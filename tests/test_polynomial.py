"""Polynomial arithmetic, the canonical term order, and serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliffpoly.multivector import Multivector
from cliffpoly.polynomial import (
    CliffordPoly,
    monomial_keys,
    multi_indices,
    norm_squared_poly,
    space_dim,
    term_sort_key,
)


def x(m, j):
    return CliffordPoly.variable(m, j)


def test_multi_indices_order_and_count():
    got = multi_indices(2, 2)
    assert got == [(2, 0), (1, 1), (0, 2)]
    # stars and bars
    assert len(multi_indices(3, 4)) == 15
    assert multi_indices(3, 0) == [(0, 0, 0)]
    assert multi_indices(3, -1) == []


def test_monomial_keys_match_space_dim():
    for m in (1, 2, 3):
        for k in range(4):
            for s in range(m + 1):
                assert len(monomial_keys(m, s, k)) == space_dim(m, s, k)
            all_grades = range(m + 1)
            assert len(monomial_keys(m, all_grades, k)) == space_dim(m, all_grades, k)


def test_term_order_degree_then_x1_major():
    keys = [((0, 2), 0), ((1, 1), 0), ((2, 0), 0), ((1, 0), 0), ((0, 2), 1)]
    keys.sort(key=term_sort_key)
    assert keys == [((1, 0), 0), ((2, 0), 0), ((1, 1), 0), ((0, 2), 0), ((0, 2), 1)]


def test_polynomial_ring_axioms():
    m = 3
    p = x(m, 1) * x(m, 1) + x(m, 2).scale(Fraction(-1, 2))
    q = CliffordPoly.vector_variable(m)
    r = CliffordPoly.monomial(m, (0, 1, 1), 0b011, Fraction(2))
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p * CliffordPoly.one(m) == p
    assert p - p == CliffordPoly.zero(m)


def test_vector_variable_squares_to_minus_norm():
    for m in (1, 2, 3, 4):
        xv = CliffordPoly.vector_variable(m)
        assert xv * xv == norm_squared_poly(m).scale(-1)


def test_noncommutative_values():
    m = 2
    e1 = CliffordPoly.monomial(m, (0, 0), 0b01)
    e2 = CliffordPoly.monomial(m, (0, 0), 0b10)
    assert e1 * e2 == -(e2 * e1)
    assert e1 * e1 == CliffordPoly.one(m).scale(-1)


def test_diff_and_times_variable():
    m = 2
    p = CliffordPoly.monomial(m, (2, 1), 0b10, Fraction(3))
    assert p.diff(1) == CliffordPoly.monomial(m, (1, 1), 0b10, Fraction(6))
    assert p.diff(2) == CliffordPoly.monomial(m, (2, 0), 0b10, Fraction(3))
    assert p.diff(1).diff(2) == p.diff(2).diff(1)
    assert p.times_variable(1).diff(2).coeff((3, 0), 0b10) == 3
    with pytest.raises(ValueError):
        p.diff(3)


def test_bigrade_split_partitions():
    m = 2
    p = x(m, 1) + CliffordPoly.monomial(m, (1, 1), 0b01) + CliffordPoly.one(m)
    parts = p.bigrade_split()
    assert [(k, s) for k, s, _ in parts] == [(0, 0), (1, 0), (2, 1)]
    total = CliffordPoly.zero(m)
    for _, _, part in parts:
        assert part.bigrade() is not None
        total = total + part
    assert total == p
    assert p.bigrade() is None
    assert CliffordPoly.zero(m).bigrade() is None


def test_evaluate_exact():
    m = 2
    p = x(m, 1) * x(m, 1) + CliffordPoly.monomial(m, (0, 1), 0b11, Fraction(-1, 2))
    val = p.evaluate([Fraction(1, 3), 4])
    assert val.coeff([]) == Fraction(1, 9)
    assert val.coeff([1, 2]) == -2


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_multiplicative(a, b, c, d):
    m = 2
    p = x(m, 1).scale(a) + CliffordPoly.monomial(m, (0, 1), 0b01, b)
    q = CliffordPoly.monomial(m, (1, 1), 0b10, c) + CliffordPoly.one(m).scale(d)
    pt = [Fraction(1, 2), Fraction(-3)]
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_from_multivector_round_trip():
    mv = Multivector.from_blade(3, [1, 2], Fraction(5, 7)) + Multivector.scalar(3, -2)
    p = CliffordPoly.from_multivector(mv)
    assert p.evaluate([0, 0, 0]) == mv
    assert p.degree() == 0


def test_json_canonical_order_and_round_trip():
    m = 2
    p = (CliffordPoly.monomial(m, (0, 2), 0b11, Fraction(1, 3))
         + CliffordPoly.monomial(m, (2, 0), 0, -2)
         + CliffordPoly.monomial(m, (1, 1), 0b01, Fraction(7, 2)))
    d = p.to_json_dict()
    assert [t["alpha"] for t in d["terms"]] == [[2, 0], [1, 1], [0, 2]]
    assert d["terms"][0]["coeff"] == "-2"
    assert CliffordPoly.from_json_dict(d) == p
    # serialization is byte-stable
    assert json.dumps(d) == json.dumps(p.to_json_dict())


def test_json_rejects_floats_and_bad_shapes():
    with pytest.raises(ValueError):
        CliffordPoly.from_json_dict({"m": 2, "terms": [{"alpha": [1, 0], "blade": [], "coeff": "0.5"}]})
    with pytest.raises(ValueError):
        CliffordPoly.from_json_dict({"m": 2, "terms": [{"alpha": [1], "blade": [], "coeff": "1"}]})
    with pytest.raises(ValueError):
        CliffordPoly.from_json_dict({"m": 2, "terms": [{"alpha": [1, 0], "blade": [3], "coeff": "1"}]})
    with pytest.raises(ValueError):
        CliffordPoly.from_json_dict({"m": 2, "terms": {}})
    with pytest.raises(ValueError):
        CliffordPoly.from_json_dict([1, 2])


def test_coefficients_must_be_int_or_fraction():
    with pytest.raises(TypeError):
        CliffordPoly(2, {((1, 0), 0): True})
    with pytest.raises(TypeError):
        CliffordPoly(2, {((1, 0), 0): 0.5})


def test_json_duplicate_keys_accumulate():
    d = {"m": 2, "terms": [
        {"alpha": [1, 0], "blade": [1], "coeff": "1/2"},
        {"alpha": [1, 0], "blade": [1], "coeff": "1/2"},
    ]}
    p = CliffordPoly.from_json_dict(d)
    assert p.coeff((1, 0), 0b01) == 1


def test_zero_polynomial_conventions():
    z = CliffordPoly.zero(3)
    assert z.is_zero and z.degree() is None
    assert z.to_json_dict() == {"m": 3, "terms": []}
    assert CliffordPoly.monomial(3, (1, 0, 0), 0, 0) == z
