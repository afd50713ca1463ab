"""Solution-space bases: frozen dimension tables, structural zeros,
symmetries, and the word-image components."""

from math import comb

import pytest

from cliffpoly.linalg import SubspaceBasis, nullspace, operator_matrix, span_equal
from cliffpoly.operators import (
    OPERATORS,
    OmegaWord,
    dirac,
    dirac_minus,
    dirac_plus,
    dirac_right,
    dirac_tilde,
    laplacian,
    laplacian_tilde,
)
from cliffpoly.polynomial import CliffordPoly, monomial_keys, space_dim
from cliffpoly.spaces import (
    KERNELS,
    KINDS,
    TheoremViolation,
    component_space,
    hodge_space,
    image_basis,
    kernel_dim,
    omega_words,
    space_basis,
    word_vanishes,
)
from oracles import dense_view, oracle_nullspace

# Frozen dimension tables, rows indexed by k = 0..4.  Cross-checked
# against the closed forms tested below before freezing.
HODGE_DIMS = {
    (1, 0): [1, 0, 0, 0, 0],
    (1, 1): [1, 0, 0, 0, 0],
    (2, 0): [1, 0, 0, 0, 0],
    (2, 1): [2, 2, 2, 2, 2],
    (2, 2): [1, 0, 0, 0, 0],
    (3, 0): [1, 0, 0, 0, 0],
    (3, 1): [3, 5, 7, 9, 11],
    (3, 2): [3, 5, 7, 9, 11],
    (3, 3): [1, 0, 0, 0, 0],
    (4, 0): [1, 0, 0, 0, 0],
    (4, 1): [4, 9, 16, 25, 36],
    (4, 2): [6, 16, 30, 48, 70],
    (4, 3): [4, 9, 16, 25, 36],
    (4, 4): [1, 0, 0, 0, 0],
}

MONO_LEFT_DIMS = {
    1: [2, 0, 0, 0, 0],
    2: [4, 4, 4, 4, 4],
    3: [8, 16, 24, 32, 40],
    4: [16, 48, 96, 160, 240],
}

INFRA_DIMS = {
    (1, 0): [1, 1, 0, 0, 0],
    (1, 1): [1, 1, 0, 0, 0],
    (2, 0): [1, 2, 2, 2, 2],
    (2, 1): [2, 4, 4, 4, 4],
    (2, 2): [1, 2, 2, 2, 2],
    (3, 0): [1, 3, 5, 7, 9],
    (3, 1): [3, 9, 15, 21, 27],
    (3, 2): [3, 9, 15, 21, 27],
    (3, 3): [1, 3, 5, 7, 9],
}


def scalar_harmonic_dim(m, k):
    if k < 0:
        return 0
    return comb(m + k - 1, k) - (comb(m + k - 3, k - 2) if k >= 2 else 0)


@pytest.mark.parametrize("m,s", sorted(HODGE_DIMS))
def test_hodge_dims_frozen(m, s):
    assert [space_basis("hodge", m, k, s=s).dim for k in range(5)] == HODGE_DIMS[(m, s)]


@pytest.mark.parametrize("m", sorted(MONO_LEFT_DIMS))
def test_mono_left_dims_frozen(m):
    got = [space_basis("mono-left", m, k).dim for k in range(5)]
    assert got == MONO_LEFT_DIMS[m]
    # closed form for the full-algebra kernel
    assert got == [2 ** m * comb(k + m - 2, k) if m >= 2 else 2 * (k == 0) for k in range(5)]


@pytest.mark.parametrize("m,s", sorted(INFRA_DIMS))
def test_infra_dims_frozen(m, s):
    assert [space_basis("infra", m, k, s=s).dim for k in range(5)] == INFRA_DIMS[(m, s)]


def test_harmonic_dims_closed_form():
    for m in (1, 2, 3, 4):
        for s in range(m + 1):
            for k in range(5):
                assert space_basis("harmonic", m, k, s=s).dim == comb(m, s) * scalar_harmonic_dim(m, k)


def test_structural_zeros_at_extreme_grades():
    for m in (1, 2, 3):
        for k in range(1, 4):
            assert space_basis("hodge", m, k, s=0).dim == 0
            assert space_basis("hodge", m, k, s=m).dim == 0
        assert space_basis("hodge", m, 0, s=0).dim == 1
        assert space_basis("hodge", m, 0, s=m).dim == 1


def test_hodge_dim_symmetric_under_grade_complement():
    for m in (2, 3, 4):
        for s in range(m + 1):
            for k in range(4):
                assert space_basis("hodge", m, k, s=s).dim == space_basis("hodge", m, k, s=m - s).dim


def test_hodge_vectors_satisfy_both_equations():
    for m in (2, 3):
        for s in range(m + 1):
            for k in range(3):
                for v in space_basis("hodge", m, k, s=s):
                    assert dirac_plus(v).is_zero
                    assert dirac_minus(v).is_zero
                    assert laplacian(v).is_zero


def test_kernel_membership_by_kind():
    m = 3
    for k in (1, 2):
        for v in space_basis("mono-left", m, k):
            assert dirac(v).is_zero
        for v in space_basis("mono-right", m, k):
            assert dirac_right(v).is_zero
        for s in range(m + 1):
            for v in space_basis("harmonic", m, k, s=s):
                assert laplacian(v).is_zero
            for v in space_basis("infra", m, k, s=s):
                assert laplacian_tilde(v).is_zero


def test_two_sided_equals_hodge():
    # the joint left/right kernel per grade coincides with the first-order system
    for m in (2, 3):
        for s in range(m + 1):
            for k in range(3):
                two = space_basis("two-sided", m, k, s=s)
                ho = space_basis("hodge", m, k, s=s)
                assert span_equal(two, ho)


def test_mono_S_restricts_grades():
    m = 3
    b = space_basis("mono-S", m, 1, S={1, 3})
    assert b.dim == 8
    for v in b:
        assert v.grades() <= {1, 3}
        assert dirac(v).is_zero
    # singleton grade set collapses to the first-order system
    single = space_basis("mono-S", m, 2, S={1})
    assert span_equal(single, space_basis("hodge", m, 2, s=1))


def test_space_basis_argument_validation():
    with pytest.raises(ValueError):
        space_basis("hodge", 3, 1)  # missing s
    with pytest.raises(ValueError):
        space_basis("hodge", 3, 1, s=1, S={1})
    with pytest.raises(ValueError):
        space_basis("mono-left", 3, 1, s=1)
    with pytest.raises(ValueError):
        space_basis("mono-S", 3, 1)
    with pytest.raises(ValueError):
        space_basis("nonsense", 3, 1, s=1)
    with pytest.raises(ValueError):
        space_basis("hodge", 3, -1, s=1)
    with pytest.raises(ValueError):
        space_basis("hodge", 3, 1, s=7)
    # m is checked before any blade is enumerated, k before any degree
    for m in (0, 9, 26):
        with pytest.raises(ValueError, match="1..8"):
            space_basis("hodge", m, 1, s=0)
    for k in (-1, True, 1.0):
        with pytest.raises(ValueError, match="degree k"):
            space_basis("hodge", 3, k, s=1)
    # grades are ints: a bool or float equal to one would share its memo entry
    for kind, s in [("hodge", True), ("hodge", 1.0), ("hodge", 1.5), ("two-sided", False)]:
        with pytest.raises(ValueError, match="grade"):
            space_basis(kind, 3, 1, s=s)
    for kind, S in [("mono-S", {True, 3}), ("mono-S", {1.0}), ("two-sided", {0, 2.5}), ("mono-left", "13"),
                    ("mono-S", 3)]:
        with pytest.raises(ValueError, match="grade"):
            space_basis(kind, 3, 1, S=S)


def test_rejected_bool_grade_leaves_the_int_basis_alone():
    with pytest.raises(ValueError):
        space_basis("hodge", 3, 1, s=True)
    assert space_basis("hodge", 3, 1, s=1).label == "hodge(m=3,s=1,k=1)"


def test_mono_right_is_the_kernel_of_dirac_right():
    # the literal right Dirac operator and dirac-tilde share their kernel,
    # so the mono-right space, built from dirac-tilde, is right-monogenic
    for m in (1, 2, 3):
        for k in range(3):
            for grades in [*range(m + 1), range(m + 1)]:
                assert (nullspace(operator_matrix(dirac_right, m, grades, k))
                        == nullspace(operator_matrix(dirac_tilde, m, grades, k))), (m, k, grades)


def test_kinds_follow_the_kernel_table():
    assert KINDS == tuple(KERNELS) == (
        "hodge", "harmonic", "infra", "mono-left", "mono-right", "two-sided", "mono-S")


def _every_kind_case(m):
    """(kind, s, S, grades) for every KERNELS kind and every valid s or S at m."""
    grade_sets = [frozenset(s for s in range(m + 1) if bits >> s & 1) for bits in range(1, 1 << (m + 1))]
    cases = [(kind, s, None, s) for kind in ("hodge", "harmonic", "infra", "two-sided")
             for s in range(m + 1)]
    cases += [(kind, None, S, S) for kind in ("mono-left", "mono-right", "two-sided", "mono-S")
              for S in grade_sets]
    cases += [(kind, None, None, range(m + 1)) for kind in ("mono-left", "mono-right")]
    assert {case[0] for case in cases} == set(KINDS)
    return cases


def test_kernel_dim_matches_basis_for_every_kind():
    # columns minus rank of the stacked KERNELS matrices is each basis's length
    for m in (1, 2, 3):
        for k in range(3):
            for kind, s, S, grades in _every_kind_case(m):
                assert kernel_dim(KERNELS[kind], m, grades, k) == space_basis(kind, m, k, s=s, S=S).dim


def test_every_basis_is_the_textbook_kernel():
    # each basis vector is the polynomial of one textbook kernel vector of the
    # stacked KERNELS matrices, in the same order
    for m in (1, 2, 3):
        for k in range(3):
            for kind, s, S, grades in _every_kind_case(m):
                keys = monomial_keys(m, grades, k)
                entries = [row for name in KERNELS[kind]
                           for row in dense_view(operator_matrix(OPERATORS[name], m, grades, k))]
                want = tuple(CliffordPoly(m, dict(zip(keys, v))) for v in oracle_nullspace(entries, len(keys)))
                assert space_basis(kind, m, k, s=s, S=S).vectors == want, (kind, m, k, grades)


def test_kernel_dim_without_operators_is_the_whole_space():
    for m in (1, 2, 3):
        for k in range(3):
            for s in range(m + 1):
                assert kernel_dim((), m, s, k) == space_dim(m, s, k)
            assert kernel_dim((), m, range(m + 1), k) == space_dim(m, range(m + 1), k)


def test_hodge_space_tolerant_wrapper():
    assert hodge_space(3, -1, 2).dim == 0
    assert hodge_space(3, 4, 2).dim == 0
    assert hodge_space(3, 1, -1).dim == 0
    assert hodge_space(3, 1, 1).dim == 5


# ---------------------------------------------------------------------------
# words and their images


def test_omega_words_enumeration():
    for L in range(5):
        words = omega_words(L)
        assert len(words) == 2 * L + 1
        assert words[0] == OmegaWord("")
        assert len({w.letters for w in words}) == len(words)
        for w in words:
            assert len(w) <= L


def test_word_vanishing_rule():
    m = 3
    assert word_vanishes(OmegaWord("d"), 0, m)
    assert word_vanishes(OmegaWord("wd"), 0, m)
    assert not word_vanishes(OmegaWord("w"), 0, m)
    assert word_vanishes(OmegaWord("w"), m, m)
    assert word_vanishes(OmegaWord("dw"), m, m)
    assert not word_vanishes(OmegaWord("d"), m, m)
    assert not word_vanishes(OmegaWord(""), 0, m)


def test_component_space_vanishing_and_dims():
    m = 3
    # a dot word on scalar-valued solutions dies
    assert component_space("d", m, 0, 0).dim == 0
    assert component_space("wd", m, 0, 0).dim == 0
    # the wedge image of the constants is one-dimensional
    w_im = component_space("w", m, 0, 0)
    assert w_im.dim == 1
    # word images preserve the source dimension when they survive
    assert component_space("w", m, 1, 1).dim == 5
    assert component_space("dw", m, 1, 1).dim == 5
    assert component_space("", m, 1, 2).dim == 7


def test_component_space_off_range_empty():
    m = 2
    assert component_space("w", m, -1, 1).dim == 0
    assert component_space("w", m, 0, -1).dim == 0
    assert component_space("w", m, 1, 5).dim == 2


def test_image_basis_certifies_injectivity():
    m = 2
    x1, x2 = CliffordPoly.variable(m, 1), CliffordPoly.variable(m, 2)
    source = SubspaceBasis(m, "src", [x1, x2, x1 * x2])
    image = image_basis("double", source, lambda v: v.scale(2))
    assert image.label == "double" and image.vectors == (x1.scale(2), x2.scale(2), (x1 * x2).scale(2))
    assert image_basis("empty", SubspaceBasis(m, "none", ()), lambda v: v).dim == 0
    # the witness is the source vector whose image is the first zero or dependent one
    for f, witness in [
        (lambda v: CliffordPoly.zero(m) if v == x2 else v, x2),  # a zero image
        (lambda v: x1 if v == x2 else v, x2),  # a duplicated image
        (lambda v: x1 + x2 if v == x1 * x2 else v, x1 * x2),  # a sum of earlier images
    ]:
        with pytest.raises(TheoremViolation, match="bad.*src") as info:
            image_basis("bad", source, f)
        assert info.value.witness == witness
