"""Operator layer: the four halves against the split-product oracle,
derived-operator identities, the conjugation action, and words."""

from fractions import Fraction
from random import Random

import pytest

from cliffpoly.multivector import Multivector
from cliffpoly.operators import (
    OPERATORS,
    OmegaWord,
    PinElement,
    apply_named,
    dirac,
    dirac_minus,
    dirac_plus,
    dirac_right,
    dirac_tilde,
    euler,
    ferm_minus,
    ferm_plus,
    h_action,
    laplacian,
    laplacian_tilde,
    random_poly,
    sample_pin_elements,
    sandwich_x,
    word_apply,
    x_dot,
    x_full,
    x_wedge,
)
from cliffpoly.polynomial import CliffordPoly, monomial_keys, norm_squared_poly
from oracles import (
    dirac_right_literal,
    euler_via_sum,
    ferm_minus_via_sum,
    ferm_plus_via_sum,
    sandwich_x_literal,
    vector_split_product,
)

SEED = 20260822


def sample_polys(m, count=6, kmax=3):
    rng = Random(SEED + m)
    out = []
    for _ in range(count):
        k = rng.randint(0, kmax)
        out.append(random_poly(m, k, range(m + 1), rng))
    return out


# ---------------------------------------------------------------------------
# the four halves against the split-product oracle


def oracle_derivative_halves(p):
    """dplus and dminus rebuilt from vector_split_product term by term."""
    m = p.m
    lower = CliffordPoly.zero(m)
    upper = CliffordPoly.zero(m)
    for j in range(1, m + 1):
        e_j = Multivector.basis_vector(m, j)
        for (alpha, mask), c in p.diff(j).terms.items():
            inner, outer = vector_split_product(e_j, Multivector(m, {mask: c}))
            for nmask, nc in inner.terms.items():
                lower = lower + CliffordPoly.monomial(m, alpha, nmask, nc)
            for nmask, nc in outer.terms.items():
                upper = upper + CliffordPoly.monomial(m, alpha, nmask, nc)
    return upper, lower


def oracle_multiplication_halves(p):
    """xwedge and xdot rebuilt the same way, with an x_j thrown in."""
    m = p.m
    lower = CliffordPoly.zero(m)
    upper = CliffordPoly.zero(m)
    for j in range(1, m + 1):
        e_j = Multivector.basis_vector(m, j)
        for (alpha, mask), c in p.terms.items():
            inner, outer = vector_split_product(e_j, Multivector(m, {mask: c}))
            for nmask, nc in inner.terms.items():
                lower = lower + CliffordPoly.monomial(m, alpha, nmask, nc).times_variable(j)
            for nmask, nc in outer.terms.items():
                upper = upper + CliffordPoly.monomial(m, alpha, nmask, nc).times_variable(j)
    return upper, lower


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_halves_match_split_oracle(m):
    for p in sample_polys(m):
        upper, lower = oracle_derivative_halves(p)
        assert dirac_plus(p) == upper
        assert dirac_minus(p) == lower
        upper, lower = oracle_multiplication_halves(p)
        assert x_wedge(p) == upper
        assert x_dot(p) == lower


def test_halves_square_to_zero():
    for m in (2, 3):
        for p in sample_polys(m):
            assert dirac_plus(dirac_plus(p)).is_zero
            assert dirac_minus(dirac_minus(p)).is_zero
            assert x_wedge(x_wedge(p)).is_zero
            assert x_dot(x_dot(p)).is_zero


def test_halves_worked_examples():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    e1 = CliffordPoly.monomial(m, (0, 0, 0), 0b001)
    assert dirac_plus(x1) == e1
    assert dirac_minus(x1 * e1) == -CliffordPoly.one(m)
    assert x_dot(x1 * e1) == -(x1 * x1)
    assert x_wedge(CliffordPoly.one(m)) == CliffordPoly.vector_variable(m)
    assert x_dot(CliffordPoly.one(m)).is_zero
    assert dirac_minus(x1).is_zero


def test_full_operators_match_literal_sums():
    for m in (2, 3):
        xv = CliffordPoly.vector_variable(m)
        for p in sample_polys(m):
            lit_dirac = CliffordPoly.zero(m)
            for j in range(1, m + 1):
                lit_dirac = lit_dirac + p.diff(j).mv_left_mul(Multivector.basis_vector(m, j))
            assert dirac(p) == lit_dirac
            assert x_full(p) == xv * p


# ---------------------------------------------------------------------------
# diagonal operators and their defining sums


def test_diagonals_match_defining_sums():
    for m in (1, 2, 3):
        for p in sample_polys(m):
            assert euler(p) == euler_via_sum(p)
            assert ferm_plus(p) == ferm_plus_via_sum(p)
            assert ferm_minus(p) == ferm_minus_via_sum(p)
            assert ferm_plus(p) + ferm_minus(p) == p.scale(m)


def test_diagonal_scalars_on_bigrades():
    m = 3
    p = CliffordPoly.monomial(m, (2, 1, 0), 0b011)  # k=3, s=2
    assert euler(p) == p.scale(3)
    assert ferm_plus(p) == p.scale(2)
    assert ferm_minus(p) == p.scale(1)
    assert OPERATORS["A"](p) == p.scale(5)
    assert OPERATORS["B"](p) == p.scale(4)


# ---------------------------------------------------------------------------
# second-order identities


def oracle_second_derivative_laplacian(p):
    out = CliffordPoly.zero(p.m)
    for j in range(1, p.m + 1):
        out = out + p.diff(j).diff(j)
    return out


def test_laplacian_is_sum_of_second_derivatives():
    for m in (1, 2, 3):
        for p in sample_polys(m):
            assert laplacian(p) == oracle_second_derivative_laplacian(p)


def test_laplacian_worked_examples():
    m = 3
    x1 = CliffordPoly.variable(m, 1)
    assert laplacian(x1 * x1) == CliffordPoly.one(m).scale(2)
    assert laplacian(norm_squared_poly(m)) == CliffordPoly.one(m).scale(2 * m)
    # the twisted version flips sign on scalar values
    assert laplacian_tilde(x1 * x1) == CliffordPoly.one(m).scale(-2)


def test_dirac_squares():
    for m in (2, 3):
        for p in sample_polys(m):
            assert dirac(dirac(p)) == laplacian(p).scale(-1)
            assert dirac_tilde(dirac_tilde(p)) == laplacian(p)
            assert dirac(dirac_tilde(p)) == laplacian_tilde(p)
            assert dirac_tilde(dirac(p)) == laplacian_tilde(p).scale(-1)


def test_x_squares():
    # (xwedge + xdot)^2 = -|x|^2, and the cross terms are all of it
    for m in (2, 3):
        r2 = norm_squared_poly(m)
        for p in sample_polys(m):
            assert x_wedge(x_dot(p)) + x_dot(x_wedge(p)) == (r2 * p).scale(-1)
            assert x_full(x_full(p)) == (r2 * p).scale(-1)


# ---------------------------------------------------------------------------
# right action and the two-sided sandwich


def test_right_dirac_matches_literal():
    for m in (2, 3):
        for p in sample_polys(m):
            assert dirac_right(p) == dirac_right_literal(p)


def test_sandwich_matches_literal():
    for m in (2, 3):
        for p in sample_polys(m):
            assert sandwich_x(p) == sandwich_x_literal(p)


def test_right_dirac_is_signed_twisted_dirac_per_grade():
    # the grade-t part of P dirac is (-1)^(t-1) times that of dirac-tilde P,
    # so both cut out the same kernel (the right monogenic certificate relies on it)
    for m in (2, 3, 4):
        rng = Random(SEED + 10 * m)
        for k in (1, 2, 3):
            p = random_poly(m, k, range(m + 1), rng)
            right = {s: part for _, s, part in dirac_right(p).bigrade_split()}
            tilde = {s: part.scale(1 if s % 2 else -1) for _, s, part in dirac_tilde(p).bigrade_split()}
            assert right == tilde


def test_right_and_left_dirac_commute():
    for m in (2, 3):
        for p in sample_polys(m):
            assert dirac_right(dirac(p)) == dirac(dirac_right(p))


# ---------------------------------------------------------------------------
# words


def test_word_validation():
    with pytest.raises(ValueError):
        OmegaWord("ww")
    with pytest.raises(ValueError):
        OmegaWord("wdd")
    with pytest.raises(ValueError):
        OmegaWord("xy")
    assert str(OmegaWord("")) == "1"
    assert str(OmegaWord("wdw")) == "wdw"
    assert OmegaWord("wd").grade_shift == 0
    assert OmegaWord("wdw").grade_shift == 1
    assert OmegaWord("dwd").first_applied == "d"
    assert len(OmegaWord("")) == 0


def test_word_application_order():
    m = 2
    one = CliffordPoly.one(m)
    # rightmost letter acts first: "wd" on a scalar dies, "dw" gives -|x|^2
    assert word_apply("wd", one).is_zero
    assert word_apply("dw", one) == norm_squared_poly(m).scale(-1)
    for p in sample_polys(m):
        assert word_apply("wd", p) == x_wedge(x_dot(p))
        assert word_apply("", p) == p


# ---------------------------------------------------------------------------
# bigrade accounting of the registry

# (degree shift, grade shifts) of every operator in OPERATORS
BIGRADE_SHIFTS = {
    "dplus": (-1, {1}),
    "dminus": (-1, {-1}),
    "xwedge": (1, {1}),
    "xdot": (1, {-1}),
    **{name: (1, {1, -1}) for name in ("xfull", "X", "X-tilde")},
    **{name: (-1, {1, -1}) for name in ("dirac", "dirac-right", "dirac-tilde")},
    **{name: (-2, {0}) for name in ("laplacian", "laplacian-tilde")},
    **{name: (0, {0}) for name in ("euler", "ferm-plus", "ferm-minus", "A", "B")},
    "sandwich-x": (2, {0}),
}


def dense_poly(m, k, s):
    """Every monomial of bigrade (k, s) with coefficient 1."""
    return CliffordPoly(m, dict.fromkeys(monomial_keys(m, s, k), 1))


def test_bigrade_image_is_sound():
    # every nonzero image term lands in a bigrade the shift table allows
    assert BIGRADE_SHIFTS.keys() == OPERATORS.keys()
    m = 3
    rng = Random(SEED)
    for name, (dk, ds) in BIGRADE_SHIFTS.items():
        for k in range(3):
            for s in range(m + 1):
                allowed = {(k + dk, s + d) for d in ds}
                for p in (random_poly(m, k, {s}, rng), dense_poly(m, k, s)):
                    assert apply_named(name, p).bigrades() <= allowed, (name, k, s)


def test_bigrade_image_accounting():
    # worked examples: every reachable bigrade is reached by a dense input
    m = 3
    assert apply_named("laplacian", dense_poly(m, 2, 1)).bigrades() == {(0, 1)}
    assert apply_named("laplacian", dense_poly(m, 1, 1)).is_zero
    assert apply_named("dplus", dense_poly(m, 2, 3)).is_zero
    assert apply_named("dirac", dense_poly(m, 2, 1)).bigrades() == {(1, 0), (1, 2)}
    assert apply_named("X", dense_poly(m, 1, 1)).bigrades() == {(2, 0), (2, 2)}


def test_apply_named_unknown_name():
    with pytest.raises(KeyError):
        apply_named("curl", CliffordPoly.one(3))


# ---------------------------------------------------------------------------
# conjugation action


def test_pin_element_validation():
    e1 = Multivector.basis_vector(2, 1)
    PinElement([e1])
    with pytest.raises(ValueError):
        PinElement([])
    with pytest.raises(ValueError):
        PinElement([e1 * 2])  # not unit length
    with pytest.raises(ValueError):
        PinElement([Multivector.scalar(2, 1)])  # not a 1-vector


def test_h_action_reflection_examples():
    m = 3
    r = PinElement([Multivector.basis_vector(m, 1)])
    xv = CliffordPoly.vector_variable(m)
    assert h_action(r, xv) == xv
    x2e2 = CliffordPoly.variable(m, 2) * CliffordPoly.monomial(m, (0,) * m, 0b010)
    assert h_action(r, x2e2) == x2e2


def test_h_action_evaluation_oracle():
    # (r . P)(x0) = r P(r^{-1} x0 r) r^{-1}, checked at exact points
    for m in (2, 3):
        rng = Random(SEED + m)
        points = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m)] for _ in range(3)]
        for r in sample_pin_elements(m, 4, rng):
            for p in sample_polys(m, count=3):
                for pt in points:
                    x0 = Multivector(m, {1 << i: pt[i] for i in range(m)})
                    moved = r.conjugate_value_inverse(x0)
                    coords = [moved.terms.get(1 << i, Fraction(0)) for i in range(m)]
                    expect = r.conjugate_value(p.evaluate(coords))
                    assert h_action(r, p).evaluate(pt) == expect


def test_h_action_is_linear_and_graded():
    m = 3
    rng = Random(SEED)
    for r in sample_pin_elements(m, 3, rng):
        p, q = sample_polys(m, count=2)
        assert h_action(r, p + q) == h_action(r, p) + h_action(r, q)
        assert h_action(r, p.scale(Fraction(3, 7))) == h_action(r, p).scale(Fraction(3, 7))
        assert h_action(r, p).bigrades() <= p.bigrades()


def test_h_action_composes():
    m = 3
    rng = Random(SEED + 1)
    r1, r2 = sample_pin_elements(m, 2, rng)
    combined = PinElement(r1.factors + r2.factors)
    for p in sample_polys(m, count=3):
        assert h_action(r1, h_action(r2, p)) == h_action(combined, p)


def test_h_action_commutes_with_the_four_halves():
    for m in (2, 3):
        rng = Random(SEED + m)
        for r in sample_pin_elements(m, 3, rng):
            for p in sample_polys(m, count=3):
                for op in (dirac_plus, dirac_minus, x_wedge, x_dot):
                    assert op(h_action(r, p)) == h_action(r, op(p))
