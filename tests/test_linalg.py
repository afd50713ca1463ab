"""Exact linear algebra against a plain-Fraction textbook oracle."""

import math
from fractions import Fraction
from random import Random

import pytest

from cliffpoly.linalg import (
    NotInSpan,
    RationalMatrix,
    SubspaceBasis,
    columns_matrix,
    coords_in_basis,
    direct_sum_check,
    keys_union,
    nullspace,
    operator_matrix,
    rank,
    rref,
    span_equal,
)
from cliffpoly.operators import OPERATORS, random_poly
from cliffpoly.polynomial import CliffordPoly, monomial_keys
from oracles import (
    dense_view,
    identity_matrix,
    mul_vec,
    oracle_nullspace,
    oracle_rref,
    poly_vector,
    sparse_matrix,
    zero_matrix,
)

SEED = 40320


def reduced_rows(rr, cols):
    """The rows of an rref result divided by their pivots, written out dense."""
    return [[Fraction(row.get(j, 0), row[piv]) for j in range(cols)]
            for row, piv in zip(rr.rows, rr.pivots)]


def random_matrix(rng, rows, cols, density=0.55):
    return [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
             if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def product_matrix(rng, rows, inner, cols):
    """B*C with B rows x inner and C inner x cols: rank at most inner."""
    b = random_matrix(rng, rows, inner, density=0.8)
    c = random_matrix(rng, inner, cols, density=0.8)
    return [[sum((b[i][t] * c[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(rows)]


def rank_deficient_matrices(rng):
    """Inputs whose elimination clears entries above pivots and meets zero rows."""
    for rows, inner, cols in [(4, 1, 5), (6, 2, 6), (7, 3, 9), (12, 2, 8), (9, 3, 4)]:
        yield product_matrix(rng, rows, inner, cols)
    base = random_matrix(rng, 5, 7)
    yield base + [list(base[1]), list(base[3]), [-2 * x for x in base[0]]]
    zero_rows = random_matrix(rng, 6, 8)
    zero_rows[0] = zero_rows[4] = [Fraction(0)] * 8
    yield zero_rows
    zero_cols = random_matrix(rng, 7, 6)
    for row in zero_cols:
        row[0] = row[3] = Fraction(0)
    yield zero_cols
    yield [[Fraction(0)] * 5 for _ in range(4)]
    # later rows take pivots left of earlier ones (columns 1, then 0), one
    # vanishes after its first clear, one after its last, and the new pivots
    # of columns 3 and 5 are cleared from the earlier pivot rows that hold them
    yield [[0, 0, 2, 1, 0, 4],
           [0, 1, 1, 0, 3, 0],
           [1, 0, 0, 2, 1, 1],
           [0, 0, 4, 2, 0, 8],
           [1, 1, 3, 3, 4, 5],
           [0, 0, 0, 1, 1, 1],
           [2, 3, 9, 8, 12, 14]]


def test_rref_matches_textbook_oracle():
    rng = Random(SEED)
    shapes = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 8), (8, 5), (10, 14), (20, 30), (40, 60)]
    inputs = [random_matrix(rng, rows, cols) for rows, cols in shapes]
    for entries in inputs + list(rank_deficient_matrices(rng)):
        got = rref(sparse_matrix(entries))
        want_entries, want_pivots = oracle_rref(entries)
        assert got.pivots == want_pivots
        assert got.rank == len(want_pivots)
        assert reduced_rows(got, len(entries[0])) == want_entries[:got.rank]
        assert not any(x for row in want_entries[got.rank:] for x in row)
        # the reduced rows are primitive integer rows that store no zeros
        assert all(all(row.values()) and math.gcd(*row.values()) == 1 for row in got.rows)


def test_rref_idempotent_and_rank_bounds():
    rng = Random(SEED + 1)
    for _ in range(10):
        entries = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        cols = len(entries[0])
        first = rref(sparse_matrix(entries))
        again = rref(sparse_matrix(reduced_rows(first, cols), cols))
        assert reduced_rows(again, cols) == reduced_rows(first, cols)
        assert again.pivots == first.pivots
        assert first.rank <= min(len(entries), len(entries[0]))


def test_rref_structured_cases():
    ident = identity_matrix(4)
    assert reduced_rows(rref(ident), 4) == dense_view(ident)
    z = zero_matrix(3, 5)
    assert rref(z).rank == 0 and rref(z).pivots == ()
    empty = RationalMatrix([], cols=4)
    assert rref(empty).rank == 0
    assert rank(sparse_matrix([[1, 2], [2, 4]])) == 1


def test_nullspace_property():
    rng = Random(SEED + 2)
    for _ in range(12):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        entries = random_matrix(rng, rows, cols)
        mat = sparse_matrix(entries)
        kernel = nullspace(mat)
        assert len(kernel) == cols - rank(mat)
        # sparse vectors that store no zeros, equal to the textbook kernel
        assert all(all(v.values()) and all(0 <= j < cols for j in v) for v in kernel)
        dense = [[v.get(j, Fraction(0)) for j in range(cols)] for v in kernel]
        assert dense == oracle_nullspace(entries, cols)
        for v in dense:
            assert all(x == 0 for x in mul_vec(mat, v))
        # kernel vectors are independent by construction: each owns a free column
        if kernel:
            assert rank(sparse_matrix(dense)) == len(kernel)


def test_nullspace_full_rank_square():
    mat = sparse_matrix([[2, 1], [1, 1]])
    assert nullspace(mat) == []


# ---------------------------------------------------------------------------
# polynomial/vector bridges


def test_columns_matrix_is_the_transposed_vectors():
    m = 2
    rng = Random(SEED + 5)
    polys = [random_poly(m, 2, {0, 1, 2}, rng) for _ in range(4)] + [CliffordPoly.zero(m)]

    def transposed_vectors(keys):
        return [[Fraction(p.terms.get(key, 0)) for p in polys] for key in keys]

    keys = monomial_keys(m, range(m + 1), 2)
    mat = columns_matrix(polys, keys)
    assert (mat.rows, mat.cols) == (len(keys), len(polys))
    assert dense_view(mat) == transposed_vectors(keys)
    # each row stores its nonzero entries only, in column order
    assert all(x and type(x) is Fraction for row in mat.entries for _, x in row)
    assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in mat.entries)
    # by default the rows are the sorted key union; a zero polynomial is a zero column
    assert dense_view(columns_matrix(polys)) == transposed_vectors(keys_union(polys))
    assert columns_matrix([CliffordPoly.zero(m)] * 2) == RationalMatrix([], cols=2)
    assert columns_matrix([]) == RationalMatrix([], cols=0)
    with pytest.raises(ValueError):
        columns_matrix([CliffordPoly.one(m)], keys)  # degree 0 keys missing
    with pytest.raises(ValueError):
        poly_vector(CliffordPoly.one(m), keys)


def test_keys_no_polynomial_reaches_are_empty_rows():
    # a refinement certificate passes its whole monomial basis as ambient keys
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    x2 = CliffordPoly.variable(m, 2)
    keys = monomial_keys(m, range(m + 1), 1)
    mat = columns_matrix([x1, x1 + x2, x1.scale(2) + x2], keys)
    assert (mat.rows, mat.cols) == (8, 3)
    assert sum(1 for row in mat.entries if not row) == 6
    assert rref(mat).pivots == oracle_rref(dense_view(mat))[1] == (0, 1)
    assert rank(mat) == 2
    assert nullspace(mat) == [{0: Fraction(-1), 1: Fraction(-1), 2: Fraction(1)}]
    a = SubspaceBasis(m, "a", [x1])
    b = SubspaceBasis(m, "b", [x2])
    report = direct_sum_check([a, b], ambient_dim=len(keys), ambient_keys=keys)
    assert report.independent and report.rank == 2 and not report.fills_ambient
    assert direct_sum_check([a, b], ambient_dim=2, ambient_keys=keys).fills_ambient


def test_keys_union_ordered():
    m = 2
    p = CliffordPoly.monomial(m, (0, 2), 0)
    q = CliffordPoly.monomial(m, (1, 0), 0b01)
    keys = keys_union([p, q])
    assert keys == [((1, 0), 0b01), ((0, 2), 0)]


# ---------------------------------------------------------------------------
# bases, spans, direct sums


def test_subspace_basis_certification():
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    x2 = CliffordPoly.variable(m, 2)
    SubspaceBasis(m, "ok", [x1, x2])
    with pytest.raises(ValueError):
        SubspaceBasis(m, "dependent", [x1, x2, x1 + x2])
    with pytest.raises(ValueError):
        SubspaceBasis(m, "zero", [CliffordPoly.zero(m)])
    assert SubspaceBasis(m, "empty", ()).dim == 0


def test_span_equal():
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    x2 = CliffordPoly.variable(m, 2)
    a = SubspaceBasis(m, "a", [x1, x2])
    b = SubspaceBasis(m, "b", [x1 + x2, x1 - x2])
    c = SubspaceBasis(m, "c", [x1, x1 + x2.scale(2)])
    assert span_equal(a, b)
    assert span_equal(a, c)
    assert not span_equal(a, SubspaceBasis(m, "d", [x1]))
    assert not span_equal(SubspaceBasis(m, "e", [x1 * x1]), SubspaceBasis(m, "f", [x2 * x2]))


def test_coords_in_basis():
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    x2 = CliffordPoly.variable(m, 2)
    basis = SubspaceBasis(m, "plane", [x1 + x2, x1 - x2])
    coords = coords_in_basis(x1.scale(2), basis)
    assert coords == [Fraction(1), Fraction(1)]
    rebuilt = CliffordPoly.zero(m)
    for c, v in zip(coords, basis):
        rebuilt = rebuilt + v.scale(c)
    assert rebuilt == x1.scale(2)
    assert coords_in_basis(CliffordPoly.zero(m), basis) == [0, 0]
    with pytest.raises(NotInSpan):
        coords_in_basis(x1 * x1, basis)
    y1 = CliffordPoly.variable(3, 1)
    with pytest.raises(ValueError):
        coords_in_basis(y1, basis)
    with pytest.raises(ValueError):
        coords_in_basis(CliffordPoly.zero(3), basis)
    assert coords_in_basis(x1.scale(2), [x1 + x2, x1 - x2]) == coords


def test_direct_sum_check():
    m = 2
    x1 = CliffordPoly.variable(m, 1)
    x2 = CliffordPoly.variable(m, 2)
    a = SubspaceBasis(m, "a", [x1])
    b = SubspaceBasis(m, "b", [x2])
    overlap = SubspaceBasis(m, "c", [x1 + x2])
    good = direct_sum_check([a, b], ambient_dim=2)
    assert good.independent and good.fills_ambient and good.dims == (1, 1)
    bad = direct_sum_check([a, b, overlap], ambient_dim=2)
    assert not bad.independent
    partial = direct_sum_check([a], ambient_dim=2)
    assert partial.independent and partial.fills_ambient is False
    nothing = direct_sum_check([], ambient_dim=0)
    assert nothing.independent and nothing.fills_ambient


# ---------------------------------------------------------------------------
# operator matrices


def test_operator_matrix_frozen_example():
    # scalar degree-2 basis (x1^2, x1 x2, x2^2); the Laplacian row reads (2, 0, 2)
    mat = operator_matrix(OPERATORS["laplacian"], 2, 0, 2)
    assert mat.rows == 1 and mat.cols == 3
    assert mat.entries == [[(0, Fraction(2)), (2, Fraction(2))]]
    assert dense_view(mat) == [[Fraction(2), Fraction(0), Fraction(2)]]


def test_operator_matrix_consistent_with_application():
    # rows are the sorted keys the monomial images reach, for every registered operator
    m = 2
    rng = Random(SEED + 4)
    for name, op in OPERATORS.items():
        for k in (1, 2):
            grades = range(m + 1)
            in_keys = monomial_keys(m, grades, k)
            out_keys = keys_union(op(CliffordPoly.monomial(m, alpha, mask)) for alpha, mask in in_keys)
            mat = operator_matrix(op, m, grades, k)
            assert (mat.rows, mat.cols) == (len(out_keys), len(in_keys)), name
            p = random_poly(m, k, grades, rng)
            assert mul_vec(mat, poly_vector(p, in_keys)) == poly_vector(op(p), out_keys), name


def test_operator_matrix_empty_image():
    # the Laplacian kills degree 0 and 1 entirely; its matrix has no rows
    mat = operator_matrix(OPERATORS["laplacian"], 2, 0, 1)
    assert mat.rows == 0 and mat.cols == 2
    assert nullspace(mat) == [{0: 1}, {1: 1}]
