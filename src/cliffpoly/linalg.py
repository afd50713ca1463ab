"""Exact rational linear algebra over the polynomial spaces.

Sparse matrices: each row lists its nonzero (column, Fraction) pairs in
column order, and the coefficients are those of the polynomials, already
exact.  Polynomials become matrix entries only through `columns_matrix`,
one column each.  `rref` is the one elimination, a single fraction-free
pass over primitive integer rows into a pivot table (pivot column ->
fully reduced row): each row is cleared at the pivot columns it holds
and dropped if it vanishes, and a surviving row clears its first column
from the pivot rows that hold it.  Nothing is divided there; a kernel
or a solve divides only the entries it reads by their row's pivot, and
kernels stay sparse.  Rank, kernel, span equality, direct sums and
coordinates all read that result; the reduced row echelon form is
unique, so every result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .polynomial import CliffordPoly, TermKey, monomial_keys, term_sort_key


class NotInSpan(Exception):
    """A vector failed to lie in the span of a basis."""


class RationalMatrix(NamedTuple):
    """A sparse exact matrix: entries[i] holds row i's nonzero
    (column, Fraction) pairs in column order."""

    entries: list[list[tuple[int, Fraction]]]
    cols: int

    @property
    def rows(self) -> int:
        return len(self.entries)


class RrefResult(NamedTuple):
    """The reduced rows, each a primitive integer row (column -> int)
    whose division by its pivot entry is the reduced row echelon form."""

    rows: list[dict[int, int]]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _primitive(row: dict[int, int]) -> dict[int, int] | None:
    """The row divided by the gcd of its entries; None for a zero row."""
    g = math.gcd(*row.values())
    if not g:
        return None
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _clear(row: dict[int, int], base: dict[int, int], c: int) -> dict[int, int] | None:
    """The row, which holds column c, with that entry cleared by the pivot row base."""
    x, piv = row[c], base[c]
    out = {j: v * piv for j, v in row.items()}
    for j, b in base.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def rref(mat: RationalMatrix) -> RrefResult:
    basis: dict[int, dict[int, int]] = {}
    for row in mat.entries:
        if not row:
            continue
        denom = math.lcm(*(x.denominator for _, x in row))
        row = _primitive({c: x.numerator * (denom // x.denominator) for c, x in row})
        # each pivot row is zero in every other pivot column, so clearing one
        # pivot column neither adds nor removes another
        for c in [c for c in row if c in basis]:
            row = _clear(row, basis[c], c)
        if row:
            p = min(row)
            for c, base in basis.items():
                if p in base:
                    basis[c] = _clear(base, row, p)
            basis[p] = row
    pivots = sorted(basis)
    return RrefResult([basis[c] for c in pivots], tuple(pivots))


def rank(mat: RationalMatrix) -> int:
    return rref(mat).rank


def nullspace(mat: RationalMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right kernel as sparse vectors (column -> Fraction, no
    zeros stored); free columns in ascending order, each basis vector
    carrying a 1 at its own free column."""
    rr = rref(mat)
    pivots = set(rr.pivots)
    kernel = {j: {j: Fraction(1)} for j in range(mat.cols) if j not in pivots}
    for row, piv in zip(rr.rows, rr.pivots):
        for j, x in row.items():
            if j != piv:
                kernel[j][piv] = Fraction(-x, row[piv])
    return list(kernel.values())


# ---------------------------------------------------------------------------
# polynomials as coordinate vectors


def keys_union(polys: Iterable[CliffordPoly]) -> list[TermKey]:
    keys = set()
    for p in polys:
        keys |= p.terms.keys()
    return sorted(keys, key=term_sort_key)


def columns_matrix(polys: Sequence[CliffordPoly], keys: Sequence[TermKey] | None = None) -> RationalMatrix:
    """The matrix whose columns are the polynomials' coordinates over keys,
    by default the sorted union of their keys; the one way a polynomial
    becomes matrix entries.  Raises ValueError for a term outside keys."""
    if keys is None:
        keys = keys_union(polys)
    index = {key: i for i, key in enumerate(keys)}
    entries: list[list[tuple[int, Fraction]]] = [[] for _ in index]
    for col, p in enumerate(polys):
        for key, c in p.terms.items():
            if key not in index:
                raise ValueError(f"term {key} outside the ambient key list")
            entries[index[key]].append((col, c))
    return RationalMatrix(entries, len(polys))


class SubspaceBasis:
    """Ordered list of polynomials certified linearly independent."""

    __slots__ = ("m", "label", "vectors")

    def __init__(self, m: int, label: str, vectors: Iterable[CliffordPoly]):
        vectors = tuple(vectors)
        for v in vectors:
            if v.m != m:
                raise ValueError("basis vectors must share one algebra")
            if v.is_zero:
                raise ValueError(f"zero vector in basis {label!r}")
        if vectors and rank(columns_matrix(vectors)) != len(vectors):
            raise ValueError(f"dependent vectors in basis {label!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __repr__(self) -> str:
        return f"SubspaceBasis({self.label!r}, dim={self.dim})"


def span_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Same span: both bases are independent, so the spans agree exactly
    when the union has the rank of each."""
    return a.dim == b.dim and rank(columns_matrix(a.vectors + b.vectors)) == a.dim


@dataclass(frozen=True)
class DirectSumReport:
    dims: tuple[int, ...]
    total: int
    rank: int
    independent: bool
    fills_ambient: bool


def direct_sum_check(parts: Sequence[SubspaceBasis], ambient_dim: int,
                     ambient_keys: Sequence[TermKey] | None = None) -> DirectSumReport:
    """Do the given bases meet only in 0, and together fill the ambient?"""
    vectors = [v for part in parts for v in part.vectors]
    dims = tuple(part.dim for part in parts)
    total = len(vectors)
    rk = rank(columns_matrix(vectors, ambient_keys))
    return DirectSumReport(dims, total, rk, rk == total, rk == ambient_dim)


def coords_in_basis(p: CliffordPoly, vectors: Iterable[CliffordPoly]) -> list[Fraction]:
    """Coordinates of p over independent polynomials (a SubspaceBasis or
    any sequence); raises NotInSpan if p escapes their span."""
    polys = [*vectors, p]
    if any(v.m != p.m for v in polys):
        raise ValueError("vectors and polynomial must share one algebra")
    n = len(polys) - 1
    if p.is_zero:
        return [Fraction(0)] * n
    rr = rref(columns_matrix(polys))
    if n in rr.pivots:
        raise NotInSpan("polynomial outside the span of the given vectors")
    coords = [Fraction(0)] * n
    for row, piv in zip(rr.rows, rr.pivots):
        coords[piv] = Fraction(row.get(n, 0), row[piv])
    return coords


# ---------------------------------------------------------------------------
# exact matrices of operators


def operator_matrix(op: Callable[[CliffordPoly], CliffordPoly], m: int,
                    grades: Union[int, Iterable[int]], k: int) -> RationalMatrix:
    """Matrix of the operator from the canonical monomial basis of the
    input bigrades; its rows are the sorted keys the images reach."""
    images = [op(CliffordPoly.monomial(m, alpha, mask)) for alpha, mask in monomial_keys(m, grades, k)]
    return columns_matrix(images)
