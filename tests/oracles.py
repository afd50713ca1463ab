"""Written-out reference implementations that the tests compare the
library against.

Each oracle follows the defining formula term by term (sums over the
generators, literal products with the vector variable, dense
matrix-vector products) and shares no shortcut with the implementation
it checks.
"""

from fractions import Fraction
from typing import Sequence

from cliffpoly.linalg import RationalMatrix
from cliffpoly.multivector import Multivector, blade_product
from cliffpoly.polynomial import CliffordPoly, TermKey


# ---------------------------------------------------------------------------
# multivectors


def vector_split_product(u: Multivector, v: Multivector) -> tuple[Multivector, Multivector]:
    """Split u*v for a 1-vector u into (inner, outer) parts.

    On the grade-s part v_s the two halves are

        inner = (u v_s - (-1)^s v_s u) / 2     (grade s-1)
        outer = (u v_s + (-1)^s v_s u) / 2     (grade s+1)

    and they add back to the full product u*v.
    """
    if not u.grades() <= {1}:
        raise ValueError(f"split product needs a pure 1-vector on the left, got grades {sorted(u.grades())}")
    half = Fraction(1, 2)
    inner = Multivector.zero(v.m)
    outer = Multivector.zero(v.m)
    for s in v.grades():
        vs = v.grade_project(s)
        uv = u * vs
        vu = vs * u
        if s % 2:
            inner = inner + (uv + vu) * half
            outer = outer + (uv - vu) * half
        else:
            inner = inner + (uv - vu) * half
            outer = outer + (uv + vu) * half
    return inner, outer


# ---------------------------------------------------------------------------
# defining sums of the diagonal operators


def euler_via_sum(p: CliffordPoly) -> CliffordPoly:
    """sum_j x_j d/dx_j p, written out."""
    out = CliffordPoly.zero(p.m)
    for j in range(1, p.m + 1):
        out = out + p.diff(j).times_variable(j)
    return out


def _wedge_const(j0: int, p: CliffordPoly) -> CliffordPoly:
    acc: dict[TermKey, Fraction] = {}
    for (alpha, mask), c in p.terms.items():
        if not mask >> j0 & 1:
            sign, nmask = blade_product(1 << j0, mask)
            key = (alpha, nmask)
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return CliffordPoly(p.m, acc)


def _dot_const(j0: int, p: CliffordPoly) -> CliffordPoly:
    acc: dict[TermKey, Fraction] = {}
    for (alpha, mask), c in p.terms.items():
        if mask >> j0 & 1:
            sign, nmask = blade_product(1 << j0, mask)
            key = (alpha, nmask)
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return CliffordPoly(p.m, acc)


def ferm_plus_via_sum(p: CliffordPoly) -> CliffordPoly:
    """-sum_j e_j ^ (e_j . p), pointwise on values."""
    out = CliffordPoly.zero(p.m)
    for j0 in range(p.m):
        out = out - _wedge_const(j0, _dot_const(j0, p))
    return out


def ferm_minus_via_sum(p: CliffordPoly) -> CliffordPoly:
    """-sum_j e_j . (e_j ^ p), pointwise on values."""
    out = CliffordPoly.zero(p.m)
    for j0 in range(p.m):
        out = out - _dot_const(j0, _wedge_const(j0, p))
    return out


# ---------------------------------------------------------------------------
# literal right and two-sided products


def dirac_right_literal(p: CliffordPoly) -> CliffordPoly:
    """The written-out sum_j (d/dx_j P) e_j."""
    out = CliffordPoly.zero(p.m)
    for j in range(1, p.m + 1):
        out = out + p.diff(j).mv_right_mul(Multivector.basis_vector(p.m, j))
    return out


def sandwich_x_literal(p: CliffordPoly) -> CliffordPoly:
    """Multiply by the vector variable on both sides."""
    x = CliffordPoly.vector_variable(p.m)
    return x * p * x


# ---------------------------------------------------------------------------
# dense matrices


def sparse_matrix(dense: Sequence[Sequence], cols: int | None = None) -> RationalMatrix:
    """The sparse matrix of a dense grid of int or Fraction entries."""
    if cols is None:
        cols = len(dense[0]) if dense else 0
    if any(len(row) != cols for row in dense):
        raise ValueError("ragged matrix")
    return RationalMatrix([[(j, Fraction(x)) for j, x in enumerate(row) if x] for row in dense], cols)


def dense_view(mat: RationalMatrix) -> list[list[Fraction]]:
    """The matrix as a dense grid of Fractions, zeros written out."""
    out = [[Fraction(0)] * mat.cols for _ in range(mat.rows)]
    for i, row in enumerate(mat.entries):
        for j, x in row:
            out[i][j] = x
    return out


def identity_matrix(n: int) -> RationalMatrix:
    return sparse_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def zero_matrix(rows: int, cols: int) -> RationalMatrix:
    return sparse_matrix([[0] * cols for _ in range(rows)], cols)


def mul_vec(mat: RationalMatrix, v: Sequence) -> list[Fraction]:
    if len(v) != mat.cols:
        raise ValueError("vector length mismatch")
    v = [Fraction(x) for x in v]
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in dense_view(mat)]


def oracle_rref(entries: Sequence[Sequence]) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Straight Gauss-Jordan over Fraction, no integer tricks: the reduced
    grid (zero rows last) and the pivot columns."""
    work = [[Fraction(x) for x in row] for row in entries]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        work[r] = [x / piv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, tuple(pivots)


def oracle_nullspace(entries: Sequence[Sequence], cols: int) -> list[list[Fraction]]:
    """The textbook kernel basis, dense: for each free column in ascending
    order, 1 there and minus that column of the reduced rows at the pivots."""
    reduced, pivots = oracle_rref(entries)
    out = []
    for free in range(cols):
        if free not in pivots:
            v = [Fraction(0)] * cols
            v[free] = Fraction(1)
            for row, piv in zip(reduced, pivots):
                v[piv] = -row[free]
            out.append(v)
    return out


def poly_vector(p: CliffordPoly, keys: Sequence[TermKey]) -> list[Fraction]:
    """The coordinates of p over keys; ValueError for a term outside keys."""
    outside = p.terms.keys() - set(keys)
    if outside:
        raise ValueError(f"terms {sorted(outside)} outside the key list")
    return [p.terms.get(key, Fraction(0)) for key in keys]
