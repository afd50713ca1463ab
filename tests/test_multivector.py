"""Blade arithmetic against a brute-force sign oracle, plus the
multivector layer built on it."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliffpoly.multivector import (
    MAX_GENERATORS,
    Multivector,
    blade_from_indices,
    blade_grade,
    blade_indices,
    blade_product,
    format_rational,
    parse_rational,
)
from oracles import vector_split_product


def oracle_blade_product(a: int, b: int) -> tuple[int, int]:
    """Multiply generator lists literally: concatenate, bubble-sort with a
    sign flip per swap, cancel adjacent equal generators at -1 each."""
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                sign = -sign
                changed = True
            else:
                i += 1
    return sign, blade_from_indices(seq, MAX_GENERATORS)


def test_blade_product_against_oracle_exhaustive_m3():
    for a in range(8):
        for b in range(8):
            assert blade_product(a, b) == oracle_blade_product(a, b)


@given(st.integers(0, 255), st.integers(0, 255))
def test_blade_product_against_oracle_m8(a, b):
    assert blade_product(a, b) == oracle_blade_product(a, b)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_blade_product_associative_sign(a, b, c):
    s1, ab = blade_product(a, b)
    s2, ab_c = blade_product(ab, c)
    t1, bc = blade_product(b, c)
    t2, a_bc = blade_product(a, bc)
    assert ab_c == a_bc
    assert s1 * s2 == t1 * t2


def test_generator_relations():
    # e_j^2 = -1 and anticommutation
    for j in range(MAX_GENERATORS):
        assert blade_product(1 << j, 1 << j) == (-1, 0)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            si, mi = blade_product(1 << i, 1 << j)
            sj, mj = blade_product(1 << j, 1 << i)
            assert mi == mj and si == -sj


def test_frozen_blade_examples():
    assert blade_product(0b001, 0b010) == (1, 0b011)
    assert blade_product(0b010, 0b001) == (-1, 0b011)
    assert blade_product(0b011, 0b101) == (1, 0b110)
    # the m=3 pseudoscalar squares to +1
    assert blade_product(0b111, 0b111) == (1, 0)
    # the m=2 pseudoscalar squares to -1
    assert blade_product(0b11, 0b11) == (-1, 0)


def test_blade_index_round_trip():
    assert blade_from_indices([], 3) == 0
    assert blade_from_indices([1, 3], 3) == 0b101
    assert blade_indices(0b101) == (1, 3)
    assert blade_grade(0b101) == 2
    with pytest.raises(ValueError):
        blade_from_indices([1, 1], 3)
    with pytest.raises(ValueError):
        blade_from_indices([0], 3)
    with pytest.raises(ValueError):
        blade_from_indices([4], 3)
    for m in (0, 9, True):
        with pytest.raises(ValueError, match="generators"):
            Multivector.from_blade(m, [1])


class TestParseRational:
    def test_accepts(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("0") == 0
        assert parse_rational("4/6") == Fraction(2, 3)

    def test_rejects(self):
        for bad in ("1.5", "1e3", "", "1/0", "1/2/3", "a", "½", "+1", " 2", None, 1.5):
            with pytest.raises((ValueError, TypeError)):
                parse_rational(bad)

    def test_edge_cases_match_fraction(self):
        for text in ("-0", "007/014", "-4/2", "-12/18", "0/5", str(10**40) + "/3"):
            got = parse_rational(text)
            assert got == Fraction(text) and type(got) is Fraction
        # Fraction takes these; the exact boundary keeps rejecting them
        for bad in ("3/0", "3/", "+3", " 3", "\u0663", "-", "-/2", "--1", "1/-2"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter sets no integer-string digit limit")
    def test_digit_limit_as_fraction(self):
        long = "1" * (sys.get_int_max_str_digits() + 1)
        for text in (long, "-" + long, "1/" + long):
            with pytest.raises(ValueError):
                Fraction(text)
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_format_lowest_terms(self):
        assert format_rational(Fraction(4, 6)) == "2/3"
        assert format_rational(Fraction(-3, 1)) == "-3"
        assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_multivector_algebra_m3():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    e3 = Multivector.basis_vector(3, 3)
    assert e1 * e1 == Multivector.scalar(3, -1)
    assert e1 * e2 + e2 * e1 == Multivector.zero(3)
    assert (e1 * e2 * e3) * (e1 * e2 * e3) == Multivector.scalar(3, 1)
    v = e1 * Fraction(3, 5) + e2 * Fraction(4, 5)
    assert v * v == Multivector.scalar(3, -1)


def test_bool_is_not_a_scalar():
    # the coefficient rule of _as_fraction: a bool is not a scalar
    one = Multivector.scalar(2, 1)
    assert (one == True) is False  # noqa: E712
    assert one != True  # noqa: E712
    with pytest.raises(TypeError):
        one * True
    with pytest.raises(TypeError):
        False * one
    with pytest.raises(TypeError):
        Multivector.scalar(2, True)


def test_multivector_grade_projection():
    e1 = Multivector.basis_vector(2, 1)
    e2 = Multivector.basis_vector(2, 2)
    mixed = Multivector.scalar(2, 2) + e1 + e1 * e2
    assert mixed.grades() == {0, 1, 2}
    assert mixed.grade_project(1) == e1
    assert mixed.grade_project(0).scalar_part == 2
    assert mixed.grade_project(3).is_zero


def test_multivector_json_round_trip():
    e1 = Multivector.basis_vector(3, 1)
    e3 = Multivector.basis_vector(3, 3)
    mv = Multivector.scalar(3, Fraction(1, 2)) + (e1 * e3) * Fraction(-2, 3)
    d = mv.to_json_dict()
    assert d["m"] == 3
    assert {"blade": [1, 3], "coeff": "-2/3"} in d["terms"]
    assert Multivector.from_json_dict(d) == mv


def test_vector_split_halves_recompose():
    # u v = inner + outer for a 1-vector u against any homogeneous v
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    u = e1 * 2 + e2 * Fraction(-1, 3)
    for v in (Multivector.scalar(3, 5), e2, e1 * e2, e1 * e2 * Multivector.basis_vector(3, 3)):
        inner, outer = vector_split_product(u, v)
        assert inner + outer == u * v
        s = min(v.grades())
        # the lowering half drops the grade, the raising half lifts it
        assert all(g == s - 1 for g in inner.grades())
        assert all(g == s + 1 for g in outer.grades())


def test_vector_split_membership_rule():
    # e_j lowers exactly the blades containing j and raises the rest
    e2 = Multivector.basis_vector(3, 2)
    b12 = Multivector.basis_vector(3, 1) * e2
    inner, outer = vector_split_product(e2, b12)
    assert outer.is_zero
    assert inner == Multivector.basis_vector(3, 1)
    b13 = Multivector.basis_vector(3, 1) * Multivector.basis_vector(3, 3)
    inner2, outer2 = vector_split_product(e2, b13)
    assert inner2.is_zero
    assert outer2 == e2 * b13
