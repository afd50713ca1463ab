"""Decomposition layer: worked low-degree fixtures, the coefficient
pairs forced by the second-order operators, negative controls, towers,
and the verification sweep."""

from fractions import Fraction
from random import Random

import pytest

from cliffpoly.decompose import (
    DecompositionResult,
    TheoremReport,
    admissible_h_components,
    classical_fischer_decompose,
    fischer_h_decompose,
    h_bookkeeping_report,
    harmonic_infra_intersection,
    harmonic_refine,
    inframonogenic_refine,
    monogenic_components,
    monogenic_refine,
    refine_decompose,
    verify_report,
)
from cliffpoly.operators import (
    OmegaWord,
    h_action,
    laplacian,
    laplacian_tilde,
    random_poly,
    sample_pin_elements,
    word_apply,
    x_dot,
    x_wedge,
)
from cliffpoly.polynomial import CliffordPoly, norm_squared_poly
from cliffpoly.spaces import TheoremViolation, hodge_space, space_basis

SEED = 96321


# ---------------------------------------------------------------------------
# the word-indexed decomposition


def test_admissible_components_enumeration():
    triples = admissible_h_components(3, 0, 2)
    as_strings = [(str(w), s2, k2) for w, s2, k2 in triples]
    assert ("1", 0, 2) in as_strings
    assert ("d", 1, 1) in as_strings
    assert ("wd", 0, 0) in as_strings
    assert ("dw", 0, 0) in as_strings
    # nothing with a negative source grade
    assert all(0 <= s2 <= 3 for _, s2, k2 in triples)


def test_h_decompose_single_variable():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    result = fischer_h_decompose(x1)
    assert list(result.components) == ["d*H(1,0)"]
    assert result.components["d*H(1,0)"] == x1
    assert result.residual.is_zero


def test_h_decompose_norm_squared():
    m = 3
    r2 = norm_squared_poly(m)
    result = fischer_h_decompose(r2)
    assert list(result.components) == ["dw*H(0,0)"]
    assert result.components["dw*H(0,0)"] == r2
    # and indeed dw applied to the constant gives -|x|^2
    assert word_apply("dw", CliffordPoly.one(m)) == r2.scale(-1)


def test_h_decompose_reconstructs_random():
    for m in (2, 3):
        rng = Random(SEED + m)
        for _ in range(8):
            k = rng.randint(0, 3)
            p = random_poly(m, k, range(m + 1), rng)
            result = fischer_h_decompose(p)
            assert result.total() == p
            assert result.residual.is_zero
            for label, part in result.components.items():
                assert not part.is_zero


def test_h_decompose_deterministic():
    m = 3
    rng = Random(SEED)
    p = random_poly(m, 3, range(m + 1), rng)
    a = fischer_h_decompose(p)
    b = fischer_h_decompose(p)
    assert list(a.components) == list(b.components)
    assert a.to_json_dict() == b.to_json_dict()


def test_h_bookkeeping_report_fields():
    rep = h_bookkeeping_report(3, 1, 2)
    assert rep.ok and rep.fills and rep.direct_sum
    assert rep.ambient_dim == 3 * 6  # C(3,1) monomial count times deg-2 count
    assert sum(rep.dims) == rep.ambient_dim


# ---------------------------------------------------------------------------
# harmonic refinement


def test_harmonic_refine_fixture_3_1_2():
    report = harmonic_refine(3, 1, 2)
    assert report.ok
    assert report.labels == ("H(1,2)", "d*H(2,1)", "(2*wd-1*dw)*H(1,0)")
    assert report.dims == (7, 5, 3)
    assert report.ambient_dim == 15


def test_harmonic_refine_pair_coefficients_are_forced():
    # swapping the pair weights breaks harmonicity (c1=1, c2=2 here)
    m, s, k = 3, 1, 2
    v = hodge_space(m, s, k - 2).vectors[0]
    right = x_wedge(x_dot(v)).scale(2) + x_dot(x_wedge(v)).scale(-1)
    wrong = x_wedge(x_dot(v)).scale(1) + x_dot(x_wedge(v)).scale(-2)
    assert laplacian(right).is_zero
    assert not laplacian(wrong).is_zero


def test_laplacian_eigenvalues_on_pair_words():
    # Delta(wd v) = -2 c1 v and Delta(dw v) = -2 c2 v on the source space
    m, s, k = 3, 1, 2
    c1, c2 = k - 2 + s, k - 2 + m - s
    for v in hodge_space(m, s, k - 2):
        assert laplacian(x_wedge(x_dot(v))) == v.scale(-2 * c1)
        assert laplacian(x_dot(x_wedge(v))) == v.scale(-2 * c2)
        assert laplacian_tilde(x_wedge(x_dot(v))) == v.scale(-2 * c1 * (c2 + 1))
        assert laplacian_tilde(x_dot(x_wedge(v))) == v.scale(2 * (c1 + 1) * c2)


def test_harmonic_refine_sweep_small():
    for m in (2, 3):
        for s in range(m + 1):
            for k in range(4):
                report = harmonic_refine(m, s, k)
                assert report.ok, (m, s, k)


# ---------------------------------------------------------------------------
# inframonogenic refinement


def test_infra_refine_fixture_3_1_2():
    report = inframonogenic_refine(3, 1, 2)
    assert report.ok
    assert report.labels == ("H(1,2)", "d*H(2,1)", "(4*wd+3*dw)*H(1,0)")
    assert report.dims == (7, 5, 3)
    assert report.ambient_dim == 15


def test_infra_refine_pair_coefficients_are_forced():
    m, s, k = 3, 1, 2
    v = hodge_space(m, s, k - 2).vectors[0]
    right = x_wedge(x_dot(v)).scale(4) + x_dot(x_wedge(v)).scale(3)
    wrong = x_wedge(x_dot(v)).scale(3) + x_dot(x_wedge(v)).scale(4)
    assert laplacian_tilde(right).is_zero
    assert not laplacian_tilde(wrong).is_zero


def test_infra_refine_sweep_small():
    for m in (2, 3):
        for s in range(m + 1):
            for k in range(4):
                report = inframonogenic_refine(m, s, k)
                assert report.ok, (m, s, k)


def test_intersection_refine_sweep_small():
    for m in (2, 3):
        for s in range(m + 1):
            for k in range(4):
                report = harmonic_infra_intersection(m, s, k)
                assert report.ok, (m, s, k)


# ---------------------------------------------------------------------------
# monogenic refinements


def test_monogenic_refine_m2_k1():
    report = monogenic_refine(2, 1)
    assert report.ok
    assert report.labels == ("H(1,1)", "X*H(1,0)")
    assert report.dims == (2, 2)
    assert report.ambient_dim == 4


def test_monogenic_refine_right_side():
    report = monogenic_refine(2, 1, side="right")
    assert report.ok
    assert report.labels == ("H(1,1)", "Xt*H(1,0)")
    assert report.dims == (2, 2)


def test_monogenic_refine_sweep_small():
    for m in (2, 3):
        for k in range(4):
            for side in ("left", "right"):
                report = monogenic_refine(m, k, side=side)
                assert report.ok, (m, k, side)


def test_restricted_monogenic_fixture():
    report = monogenic_refine(3, 1, S={1, 3})
    assert report.ok
    assert report.theorem == "mt"
    assert report.labels == ("H(1,1)", "X*H(2,0)")
    assert report.dims == (5, 3)
    assert report.ambient_dim == 8


def test_restricted_monogenic_all_sets_m3():
    m = 3
    for bits in range(1, 1 << (m + 1)):
        S = {s for s in range(m + 1) if bits >> s & 1}
        for k in range(3):
            report = monogenic_refine(m, k, S=S)
            assert report.ok, (S, k)


def test_monogenic_refine_bad_side():
    with pytest.raises(ValueError):
        monogenic_refine(2, 1, side="middle")


def test_refinements_reject_bad_grade_sets():
    # a grade set outside 0..m would certify no component and report ok
    p = space_basis("mono-S", 3, 1, S={1, 3}).vectors[0]
    for S in ({7}, set(), {True, 3}, 3):
        with pytest.raises(ValueError, match="grade"):
            monogenic_refine(3, 1, S=S)
        with pytest.raises(ValueError, match="grade"):
            refine_decompose(p, "mt", S=S)
        with pytest.raises(ValueError, match="grade"):
            refine_decompose(CliffordPoly.zero(3), "mt", S=S)


# ---------------------------------------------------------------------------
# refine decomposition of concrete members


def test_refine_decompose_harmonic_member():
    m, s, k = 3, 1, 2
    v0 = hodge_space(m, s, k).vectors[0]
    v1 = x_dot(hodge_space(m, s + 1, k - 1).vectors[2])
    v2 = x_wedge(x_dot(hodge_space(m, s, 0).vectors[1])).scale(2) \
        + x_dot(x_wedge(hodge_space(m, s, 0).vectors[1])).scale(-1)
    p = v0.scale(Fraction(1, 2)) + v1 + v2.scale(-3)
    result = refine_decompose(p, "homma")
    assert result.total() == p
    assert result.components["H(1,2)"] == v0.scale(Fraction(1, 2))
    assert result.components["d*H(2,1)"] == v1
    assert result.components["(2*wd-1*dw)*H(1,0)"] == v2.scale(-3)


def test_refine_decompose_rejects_nonmember():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    with pytest.raises(TheoremViolation):
        refine_decompose(x1 * x1, "homma")  # x1^2 is not harmonic
    with pytest.raises(TheoremViolation):
        refine_decompose(x1, "monogenic")  # gradients of x1 are nonzero
    with pytest.raises(TheoremViolation):
        refine_decompose(CliffordPoly.vector_variable(m), "mt", S={0, 2})


def test_refine_decompose_monogenic_member():
    m, k = 2, 1
    bases = [basis for _, basis in monogenic_components(m, k, frozenset(range(m + 1)), "left")]
    hodge_part = bases[1].vectors[0]     # H(1,1) after the empty H(0,1)
    x_part = bases[3].vectors[1]         # the X image layer
    p = hodge_part + x_part.scale(Fraction(2, 5))
    result = refine_decompose(p, "monogenic")
    assert result.total() == p
    assert result.components["H(1,1)"] == hodge_part
    assert result.components["X*H(1,0)"] == x_part.scale(Fraction(2, 5))


def test_refine_decompose_unknown_theorem():
    with pytest.raises(ValueError):
        refine_decompose(CliffordPoly.one(2), "h")


# ---------------------------------------------------------------------------
# classical towers


def test_harmonic_tower_x1_squared():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    r2 = norm_squared_poly(m)
    result = classical_fischer_decompose(x1 * x1, "harmonic")
    assert list(result.components) == ["|x|^0*Harm(0,2)", "|x|^2*Harm(0,0)"]
    assert result.components["|x|^0*Harm(0,2)"] == x1 * x1 - r2.scale(Fraction(1, 3))
    assert result.components["|x|^2*Harm(0,0)"] == r2.scale(Fraction(1, 3))


def test_infra_tower_x1_squared():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    r2 = norm_squared_poly(m)
    result = classical_fischer_decompose(x1 * x1, "infra")
    assert list(result.components) == ["x^0*Infra(0,2)*x^0", "x^1*Infra(0,0)*x^1"]
    assert result.components["x^0*Infra(0,2)*x^0"] == x1 * x1 - r2.scale(Fraction(1, 3))
    # x (-1/3) x = |x|^2 / 3
    assert result.components["x^1*Infra(0,0)*x^1"] == r2.scale(Fraction(1, 3))


def test_monogenic_tower_vector_variable():
    m = 3
    xv = CliffordPoly.vector_variable(m)
    result = classical_fischer_decompose(xv, "monogenic")
    assert list(result.components) == ["x^1*Mono(0)"]
    assert result.components["x^1*Mono(0)"] == xv


def test_towers_reconstruct_random():
    for m in (2, 3):
        rng = Random(SEED + 10 * m)
        for mode in ("harmonic", "monogenic", "infra"):
            for _ in range(5):
                k = rng.randint(0, 3)
                p = random_poly(m, k, range(m + 1), rng)
                result = classical_fischer_decompose(p, mode)
                assert result.total() == p, (mode, m, k)


def test_tower_unknown_mode():
    with pytest.raises(ValueError):
        classical_fischer_decompose(CliffordPoly.one(2), "spherical")


def test_degenerate_tower_layer_is_a_violation(monkeypatch):
    # a lift that kills its layer is a failed certificate naming the layer
    import cliffpoly.decompose as dec

    monkeypatch.setattr(dec, "norm_squared_poly", CliffordPoly.zero)
    x1 = CliffordPoly.variable(3, 1)
    with pytest.raises(TheoremViolation, match=r"\|x\|\^2\*Harm\(0,0\).*harmonic\(m=3,s=0,k=0\)") as info:
        classical_fischer_decompose(x1 * x1, "harmonic")
    assert info.value.witness == CliffordPoly.one(3)


# ---------------------------------------------------------------------------
# equivariance of the decompositions


def test_h_decompose_commutes_with_conjugation():
    m = 2
    rng = Random(SEED)
    for r in sample_pin_elements(m, 3, rng):
        p = random_poly(m, 2, range(m + 1), rng)
        before = fischer_h_decompose(p)
        after = fischer_h_decompose(h_action(r, p))
        moved = {label: h_action(r, part) for label, part in before.components.items()}
        assert {lab for lab in moved if not moved[lab].is_zero} == set(after.components)
        for label, part in after.components.items():
            assert moved[label] == part


# ---------------------------------------------------------------------------
# results and reports as data


def test_decomposition_result_checks_sum():
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    with pytest.raises(TheoremViolation):
        DecompositionResult(x1, {"half": x1.scale(Fraction(1, 2))})
    ok = DecompositionResult(x1, {"all": x1})
    with pytest.raises(AttributeError):
        ok.residual = None


def test_theorem_report_json_shape():
    rep = h_bookkeeping_report(2, 1, 1)
    d = rep.to_json_dict()
    assert d["theorem"] == "h" and d["ok"] is True
    assert d["m"] == 2 and d["k"] == 1 and d["s"] == 1
    assert isinstance(d["labels"], list) and isinstance(d["dims"], list)
    assert d["witness"] is None


# ---------------------------------------------------------------------------
# the sweep


def test_verify_report_all_green_m2():
    summary = verify_report(2, 2)
    assert summary.ok
    assert not summary.budget_exceeded
    assert summary.skipped == ()
    assert all(r.ok for r in summary.reports)
    themes = {r.theorem for r in summary.reports}
    assert themes == {"h", "homma", "monogenic", "mt", "infra", "infra-harmonic", "classical"}


def test_verify_report_subset_and_order():
    summary = verify_report(2, 1, theorems=["homma", "h"])
    assert summary.ok
    names = [r.theorem for r in summary.reports]
    # reports come back sorted by the canonical theorem order
    assert names == sorted(names, key=["h", "homma"].index)


def test_verify_report_budget_skips_gracefully():
    summary = verify_report(2, 2, budget_seconds=0.0)
    assert summary.budget_exceeded
    assert summary.skipped
    assert summary.ok  # nothing failed, things were skipped


def test_verify_report_deterministic():
    a = verify_report(2, 2, theorems=["h", "classical"], seed=5)
    b = verify_report(2, 2, theorems=["h", "classical"], seed=5)
    assert a.to_json_dict() == b.to_json_dict()


def test_verify_report_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        verify_report(2, 1, theorems=["fourier"])


def test_verify_report_failure_keeps_its_unit(monkeypatch):
    import cliffpoly.decompose as dec

    real = dec.apply_named
    monkeypatch.setattr(dec, "apply_named",
                        lambda name, p: p if name == "laplacian" and p.bigrade() == (2, 1) else real(name, p))
    summary = verify_report(3, 2, theorems=["homma"])
    assert not summary.ok
    (report,) = [r for r in summary.reports if not r.ok]
    assert (report.theorem, report.m, report.k, report.s) == ("homma", 3, 2, 1)
    assert report.witness is not None


def test_verify_report_rejects_negative_kmax():
    # every bad argument is refused up front, never run into a traceback
    # or a vacuous green summary
    for args, kwargs in [
        ((2, -1), {}),
        ((0, 1), {}),
        ((9, 1), {}),
        ((True, 1), {}),
        ((2, True), {}),
        ((2, 1.0), {}),
        ((2, 1), {"budget_seconds": float("nan")}),
        ((2, 1), {"budget_seconds": -1}),
        ((2, 1), {"budget_seconds": -0.5}),
        ((2, 1), {"theorems": []}),
        ((2, 0), {"theorems": ["h", "h"]}),
    ]:
        with pytest.raises(ValueError):
            verify_report(*args, **kwargs)
