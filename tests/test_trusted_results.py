"""The invariant behind CliffordPoly._of: every polynomial that arithmetic,
the operators, the basis and the projection code build without the
constructor's checks still passes those checks unchanged.

For each result: its terms equal CliffordPoly(m, result.terms).terms (so
every key is valid for m), every coefficient is exactly a Fraction, and
no coefficient is zero.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cliffpoly.decompose import TOWER_MODES, classical_fischer_decompose, fischer_h_decompose
from cliffpoly.operators import (
    OPERATORS,
    apply_named,
    h_action,
    random_poly,
    sample_pin_elements,
    word_apply,
)
from cliffpoly.polynomial import CliffordPoly
from cliffpoly.spaces import KINDS, space_basis

SEED = 5150


def assert_trusted(result: CliffordPoly) -> None:
    assert isinstance(result, CliffordPoly)
    assert result.terms == CliffordPoly(result.m, result.terms).terms
    for c in result.terms.values():
        assert type(c) is Fraction
        assert c != 0


def seeded_polys():
    rng = Random(SEED)
    out = []
    for m in range(1, 5):
        for k in range(0, 4 if m < 4 else 3):
            out.append(random_poly(m, k, range(m + 1), rng))
        # mixed degrees, so sums and products meet overlapping keys
        out.append(random_poly(m, 1, {0, 1}, rng) + random_poly(m, 2, range(m + 1), rng))
    return out


POLYS = seeded_polys()


@pytest.mark.parametrize("name", list(OPERATORS))
def test_every_operator_result_is_trusted(name):
    for p in POLYS:
        assert_trusted(apply_named(name, p))


@pytest.mark.parametrize("word", ["wd", "dw"])
def test_word_results_are_trusted(word):
    for p in POLYS:
        assert_trusted(word_apply(word, p))


def test_h_action_results_are_trusted():
    rng = Random(SEED + 1)
    for p in POLYS:
        if p.m < 2:
            continue
        for r in sample_pin_elements(p.m, 2, rng):
            assert_trusted(h_action(r, p))


def test_arithmetic_results_are_trusted():
    rng = Random(SEED + 2)
    for p in POLYS:
        q = random_poly(p.m, rng.randint(0, 2), range(p.m + 1), rng)
        for result in (p + q, p - q, p - p, -p, p * q, q * p, p * 3, p.scale(Fraction(-2, 7)), p.scale(0)):
            assert_trusted(result)
        for j in range(1, p.m + 1):
            assert_trusted(p.diff(j))
            assert_trusted(p.times_variable(j))
        for _, _, part in p.bigrade_split():
            assert_trusted(part)


def test_vectors_and_projections_are_trusted():
    for p in POLYS:
        if p.m > 3 or p.is_zero:
            continue
        results = [fischer_h_decompose(p)]
        results += [classical_fischer_decompose(p, mode) for mode in TOWER_MODES]
        for result in results:
            for part in (*result.components.values(), result.residual, result.total()):
                assert_trusted(part)
    # kernel-basis vectors are wrapped straight from the sparse nullspace vectors
    for kind in KINDS:
        s, S = (1, None) if kind in ("hodge", "harmonic", "infra", "two-sided") else (None, {1, 3})
        for v in space_basis(kind, 3, 2, s=s, S=S):
            assert_trusted(v)


coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def polys(draw, m):
    keys = st.tuples(st.tuples(*[st.integers(0, 2)] * m), st.integers(0, (1 << m) - 1))
    return CliffordPoly(m, draw(st.dictionaries(keys, coefficients, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(polys(m), polys(m), coefficients,
                                                        st.integers(1, m))))
def test_arithmetic_results_are_trusted_hypothesis(args):
    p, q, c, j = args
    for result in (p + q, p - q, -p, p * q, p.scale(c), p.diff(j), p.times_variable(j)):
        assert_trusted(result)
    for _, _, part in p.bigrade_split():
        assert_trusted(part)
    for name in ("dirac", "laplacian", "X", "sandwich-x"):
        assert_trusted(apply_named(name, p))
