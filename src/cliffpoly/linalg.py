"""Exact rational linear algebra over the polynomial spaces.

Dense matrices of Fractions.  Forward elimination is fraction-free over
integers with per-row content reduction to keep entries small; a short
Fraction back-substitution then yields the reduced row echelon form.
Pivots are always the first nonzero entry scanning top to bottom, so
every result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .operators import OperatorSpec, apply_operator, bigrade_image
from .polynomial import CliffordPoly, TermKey, monomial_keys, term_sort_key


class NotInSpan(Exception):
    """A vector failed to lie in the span of a basis."""


class RationalMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        entries = [[Fraction(x) for x in row] for row in entries]
        if entries:
            cols_found = len(entries[0])
            if any(len(row) != cols_found for row in entries):
                raise ValueError("ragged matrix")
            if cols is not None and cols != cols_found:
                raise ValueError(f"cols={cols} but rows have length {cols_found}")
            cols = cols_found
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RationalMatrix":
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch")
        return cls([[col[r] for col in columns] for r in range(rows)], len(columns))

    @classmethod
    def vstack(cls, mats: Iterable["RationalMatrix"]) -> "RationalMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(mat.cols != cols for mat in mats):
            raise ValueError("column count mismatch in vstack")
        return cls([row for mat in mats for row in mat.entries], cols)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalMatrix):
            return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries
        return NotImplemented

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class RrefResult:
    matrix: RationalMatrix
    pivots: tuple[int, ...]
    rank: int


def _primitive_int_row(row: Sequence[Fraction]) -> list[int]:
    denom = math.lcm(*(x.denominator for x in row)) if row else 1
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rref(mat: RationalMatrix) -> RrefResult:
    nrows, ncols = mat.rows, mat.cols
    work = [_primitive_int_row(row) for row in mat.entries]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        base = work[r]
        for l in range(r + 1, nrows):
            x = work[l][c]
            if x:
                row = [a * piv - b * x for a, b in zip(work[l], base)]
                g = 0
                for v in row:
                    g = math.gcd(g, v)
                    if g == 1:
                        break
                work[l] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
    rank = r
    reduced = [[Fraction(x) for x in row] for row in work[:rank]]
    for i in range(rank):
        piv = reduced[i][pivots[i]]
        if piv != 1:
            reduced[i] = [x / piv for x in reduced[i]]
    for i in reversed(range(rank)):
        c = pivots[i]
        for t in range(i):
            x = reduced[t][c]
            if x:
                reduced[t] = [a - x * b for a, b in zip(reduced[t], reduced[i])]
    full = reduced + [[Fraction(0)] * ncols for _ in range(nrows - rank)]
    return RrefResult(RationalMatrix(full, ncols), tuple(pivots), rank)


def rank(mat: RationalMatrix) -> int:
    return rref(mat).rank


def nullspace(mat: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the right kernel; free columns in ascending order, each
    basis vector carrying a 1 at its own free column."""
    rr = rref(mat)
    pivot_set = set(rr.pivots)
    out = []
    for free in range(mat.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * mat.cols
        v[free] = Fraction(1)
        for row_idx, piv in enumerate(rr.pivots):
            v[piv] = -rr.matrix.entries[row_idx][free]
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# polynomials as coordinate vectors


def keys_union(polys: Iterable[CliffordPoly]) -> list[TermKey]:
    keys = set()
    for p in polys:
        keys |= p.terms.keys()
    return sorted(keys, key=term_sort_key)


def poly_vector(p: CliffordPoly, keys: Sequence[TermKey]) -> list[Fraction]:
    index = {key: i for i, key in enumerate(keys)}
    v = [Fraction(0)] * len(keys)
    for key, c in p.terms.items():
        if key not in index:
            raise ValueError(f"term {key} outside the ambient key list")
        v[index[key]] = c
    return v


def rows_matrix(polys: Sequence[CliffordPoly], keys: Sequence[TermKey]) -> RationalMatrix:
    return RationalMatrix([poly_vector(p, keys) for p in polys], len(keys))


def poly_from_vector(m: int, keys: Sequence[TermKey], v: Sequence[Fraction]) -> CliffordPoly:
    return CliffordPoly(m, {key: c for key, c in zip(keys, v) if c})


class SubspaceBasis:
    """Ordered list of polynomials certified linearly independent."""

    __slots__ = ("m", "label", "vectors")

    def __init__(self, m: int, label: str, vectors: Iterable[CliffordPoly], certify: bool = True):
        vectors = tuple(vectors)
        for v in vectors:
            if v.m != m:
                raise ValueError("basis vectors must share one algebra")
            if v.is_zero:
                raise ValueError(f"zero vector in basis {label!r}")
        if certify and vectors:
            keys = keys_union(vectors)
            if rref(rows_matrix(vectors, keys)).rank != len(vectors):
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
    """Same span, decided by comparing reduced row echelon forms."""
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    keys = keys_union(list(a) + list(b))
    ra = rref(rows_matrix(a.vectors, keys))
    rb = rref(rows_matrix(b.vectors, keys))
    return ra.rank == rb.rank and ra.matrix.entries[: ra.rank] == rb.matrix.entries[: rb.rank]


@dataclass(frozen=True)
class DirectSumReport:
    dims: tuple[int, ...]
    total: int
    rank: int
    independent: bool
    fills_ambient: bool | None


def direct_sum_check(parts: Sequence[SubspaceBasis], ambient_dim: int | None = None,
                     ambient_keys: Sequence[TermKey] | None = None) -> DirectSumReport:
    """Do the given bases meet only in 0, and together fill the ambient?"""
    vectors = [v for part in parts for v in part.vectors]
    dims = tuple(part.dim for part in parts)
    total = len(vectors)
    if vectors:
        keys = list(ambient_keys) if ambient_keys is not None else keys_union(vectors)
        rk = rref(rows_matrix(vectors, keys)).rank
    else:
        rk = 0
    fills = None if ambient_dim is None else rk == ambient_dim
    return DirectSumReport(dims, total, rk, rk == total, fills)


def coords_in_basis(p: CliffordPoly, basis: SubspaceBasis) -> list[Fraction]:
    """Coordinates of p in the basis; raises NotInSpan if p escapes it."""
    if p.is_zero:
        return [Fraction(0)] * basis.dim
    keys = keys_union(list(basis.vectors) + [p])
    columns = [poly_vector(v, keys) for v in basis.vectors] + [poly_vector(p, keys)]
    rr = rref(RationalMatrix.from_columns(columns, len(keys)))
    n = basis.dim
    if any(piv == n for piv in rr.pivots):
        raise NotInSpan(f"polynomial outside span of basis {basis.label!r}")
    coords = [Fraction(0)] * n
    for row_idx, piv in enumerate(rr.pivots):
        coords[piv] = rr.matrix.entries[row_idx][n]
    return coords


# ---------------------------------------------------------------------------
# exact matrices of operator trees


def _as_grade_set(grades: Union[int, Iterable[int]]) -> set[int]:
    return {grades} if isinstance(grades, int) else set(grades)


def image_keys(spec: OperatorSpec, m: int, grades: Union[int, Iterable[int]], k: int) -> list[TermKey]:
    """Canonical row labels: the monomial keys of every bigrade the
    operator can reach from the input bigrades."""
    gset = _as_grade_set(grades)
    targets = bigrade_image(spec, m, {(k, s) for s in gset})
    keys: list[TermKey] = []
    for kk, ss in targets:
        keys.extend(monomial_keys(m, ss, kk))
    keys.sort(key=term_sort_key)
    return keys


def operator_matrix(spec: OperatorSpec, m: int, grades: Union[int, Iterable[int]], k: int) -> RationalMatrix:
    """Matrix of the operator from the canonical monomial basis of the
    input bigrades to the canonical basis of its image bigrades."""
    gset = _as_grade_set(grades)
    in_keys = monomial_keys(m, gset, k)
    out_keys = image_keys(spec, m, gset, k)
    index = {key: i for i, key in enumerate(out_keys)}
    entries = [[Fraction(0)] * len(in_keys) for _ in range(len(out_keys))]
    for col, (alpha, mask) in enumerate(in_keys):
        image = apply_operator(spec, CliffordPoly.monomial(m, alpha, mask))
        for key, c in image.terms.items():
            if key not in index:
                raise AssertionError(f"operator image left its declared bigrades at {key}")
            entries[index[key]][col] = c
    return RationalMatrix(entries, len(in_keys))
