"""Clifford-algebra-valued polynomials in m real variables, exact throughout.

A polynomial is a sparse map (alpha, blade) -> Fraction where alpha is a
multi-index over x_1..x_m and blade is a basis-blade bitmask.  Values lie
in R_{0,m}; variables commute with everything, so the product of two
polynomials multiplies coefficients in the Clifford algebra and adds
multi-indices.

Bigrading: a term with |alpha| = k and blade grade s sits in the space of
s-vector-valued k-homogeneous polynomials.  The canonical term order used
for serialization and matrix assembly is graded lexicographic on alpha
(degree first, then x_1-major lexicographic) with ties broken by blade
bitmask ascending.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence, Union

from .multivector import (
    Multivector,
    Scalar,
    _as_fraction,
    _check_m,
    blade_from_indices,
    blade_grade,
    blade_indices,
    blade_product,
    format_rational,
    parse_rational,
)

MultiIndex = tuple[int, ...]
TermKey = tuple[MultiIndex, int]


def term_sort_key(key: TermKey):
    alpha, mask = key
    return (sum(alpha), tuple(-a for a in alpha), mask)


def _check_alpha(alpha, m: int) -> MultiIndex:
    alpha = tuple(alpha)
    if len(alpha) != m or any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"multi-index must be {m} nonnegative integers, got {alpha!r}")
    return alpha


def multi_indices(m: int, k: int) -> list[MultiIndex]:
    """All multi-indices of total degree k over m variables, canonical order."""
    if k < 0:
        return []
    out = []
    for cuts in itertools.combinations(range(k + m - 1), m - 1):
        prev = -1
        alpha = []
        for c in cuts:
            alpha.append(c - prev - 1)
            prev = c
        alpha.append(k + m - 2 - prev)
        out.append(tuple(alpha))
    out.sort(key=lambda a: tuple(-x for x in a))
    return out


def grade_masks(m: int, grades: Iterable[int]) -> list[int]:
    """Blade bitmasks whose grade lies in the given set, ascending."""
    wanted = set(grades)
    return [mask for mask in range(1 << m) if blade_grade(mask) in wanted]


def monomial_keys(m: int, grades: Union[int, Iterable[int]], k: int) -> list[TermKey]:
    """Canonical (alpha, blade) list spanning the k-homogeneous polynomials
    with values of the given grade(s)."""
    if isinstance(grades, int):
        grades = {grades}
    masks = grade_masks(m, grades)
    return [(alpha, mask) for alpha in multi_indices(m, k) for mask in masks]


def space_dim(m: int, grades: Union[int, Iterable[int]], k: int) -> int:
    if isinstance(grades, int):
        grades = {grades}
    if k < 0:
        return 0
    return sum(comb(m, s) for s in set(grades) if 0 <= s <= m) * comb(k + m - 1, m - 1)


class CliffordPoly:
    """Sparse exact polynomial with values in R_{0,m}."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[TermKey, Scalar] | None = None):
        _check_m(m)
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for (alpha, mask), coeff in terms.items():
                alpha = _check_alpha(alpha, m)
                if not isinstance(mask, int) or not 0 <= mask < (1 << m):
                    raise ValueError(f"blade mask {mask!r} outside algebra with m={m}")
                c = _as_fraction(coeff)
                if c:
                    clean[(alpha, mask)] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, m: int, terms: Mapping[TermKey, Fraction]) -> "CliffordPoly":
        """Wrap terms whose keys are already valid for m and whose coefficients
        are already Fractions, dropping zeros; arithmetic results only."""
        p = object.__new__(cls)
        object.__setattr__(p, "m", m)
        object.__setattr__(p, "terms", {key: c for key, c in terms.items() if c})
        return p

    @classmethod
    def _sum(cls, m: int, parts: Iterable["CliffordPoly"]) -> "CliffordPoly":
        """The sum of polynomials in the algebra of m, accumulated in one dict."""
        acc: dict[TermKey, Fraction] = {}
        for part in parts:
            if part.m != m:
                raise ValueError(f"mixed algebras: m={m} vs m={part.m}")
            for key, c in part.terms.items():
                acc[key] = acc[key] + c if key in acc else c
        return cls._of(m, acc)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CliffordPoly":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "CliffordPoly":
        return cls(m, {((0,) * m, 0): 1})

    @classmethod
    def monomial(cls, m: int, alpha: Iterable[int], mask: int = 0, coeff: Scalar = 1) -> "CliffordPoly":
        return cls(m, {(tuple(alpha), mask): coeff})

    @classmethod
    def variable(cls, m: int, j: int) -> "CliffordPoly":
        """The scalar coordinate x_j, 1-based."""
        if not 1 <= j <= m:
            raise ValueError(f"variable index {j} outside 1..{m}")
        alpha = tuple(1 if i == j - 1 else 0 for i in range(m))
        return cls(m, {(alpha, 0): 1})

    @classmethod
    def vector_variable(cls, m: int) -> "CliffordPoly":
        """The 1-vector-valued identity x = sum_j x_j e_j."""
        terms = {}
        for j in range(m):
            alpha = tuple(1 if i == j else 0 for i in range(m))
            terms[(alpha, 1 << j)] = 1
        return cls(m, terms)

    @classmethod
    def from_multivector(cls, a: Multivector) -> "CliffordPoly":
        zero = (0,) * a.m
        return cls(a.m, {(zero, mask): c for mask, c in a.terms.items()})

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha: Iterable[int], mask: int = 0) -> Fraction:
        return self.terms.get((tuple(alpha), mask), Fraction(0))

    def degree(self) -> int | None:
        """Maximal total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(alpha) for alpha, _ in self.terms)

    def grades(self) -> set[int]:
        return {blade_grade(mask) for _, mask in self.terms}

    def bigrades(self) -> set[tuple[int, int]]:
        """All (k, s) pairs carrying a nonzero term."""
        return {(sum(alpha), blade_grade(mask)) for alpha, mask in self.terms}

    def bigrade_split(self) -> list[tuple[int, int, "CliffordPoly"]]:
        """Split into bihomogeneous parts, sorted by (k, s)."""
        buckets: dict[tuple[int, int], dict[TermKey, Fraction]] = {}
        for key, c in self.terms.items():
            alpha, mask = key
            buckets.setdefault((sum(alpha), blade_grade(mask)), {})[key] = c
        return [(k, s, CliffordPoly._of(self.m, part)) for (k, s), part in sorted(buckets.items())]

    def bigrade(self) -> tuple[int, int] | None:
        """The unique (k, s) if bihomogeneous, else None; None when zero."""
        pairs = self.bigrades()
        if len(pairs) == 1:
            return next(iter(pairs))
        return None

    # -- arithmetic --------------------------------------------------

    def _require_same_m(self, other: "CliffordPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"mixed algebras: m={self.m} vs m={other.m}")

    def __add__(self, other: "CliffordPoly") -> "CliffordPoly":
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        return CliffordPoly._sum(self.m, (self, other))

    def __neg__(self) -> "CliffordPoly":
        return CliffordPoly._of(self.m, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "CliffordPoly") -> "CliffordPoly":
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Scalar) -> "CliffordPoly":
        factor = _as_fraction(factor)
        return CliffordPoly._of(self.m, {key: c * factor for key, c in self.terms.items()})

    def __mul__(self, other) -> "CliffordPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CliffordPoly):
            return NotImplemented
        self._require_same_m(other)
        acc: dict[TermKey, Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                sign, mask = blade_product(b1, b2)
                alpha = tuple(x + y for x, y in zip(a1, a2))
                key = (alpha, mask)
                c = sign * c1 * c2
                acc[key] = acc[key] + c if key in acc else c
        return CliffordPoly._of(self.m, acc)

    def __rmul__(self, other) -> "CliffordPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def mv_left_mul(self, a: Multivector) -> "CliffordPoly":
        """a * P with a constant multivector on the left."""
        return CliffordPoly.from_multivector(a) * self

    def mv_right_mul(self, a: Multivector) -> "CliffordPoly":
        """P * a with a constant multivector on the right."""
        return self * CliffordPoly.from_multivector(a)

    def diff(self, j: int) -> "CliffordPoly":
        """Partial derivative with respect to x_j, 1-based."""
        if not 1 <= j <= self.m:
            raise ValueError(f"variable index {j} outside 1..{self.m}")
        i = j - 1
        acc: dict[TermKey, Fraction] = {}
        for (alpha, mask), c in self.terms.items():
            if alpha[i]:
                down = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                acc[(down, mask)] = c * alpha[i]  # one-to-one on keys: nothing to add
        return CliffordPoly._of(self.m, acc)

    def times_variable(self, j: int) -> "CliffordPoly":
        """Multiply by the scalar coordinate x_j."""
        if not 1 <= j <= self.m:
            raise ValueError(f"variable index {j} outside 1..{self.m}")
        i = j - 1
        return CliffordPoly._of(
            self.m,
            {(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], mask): c for (alpha, mask), c in self.terms.items()},
        )

    def evaluate(self, point: Sequence[Scalar]) -> Multivector:
        """Exact evaluation at a rational point."""
        if len(point) != self.m:
            raise ValueError(f"point must have {self.m} coordinates")
        coords = [_as_fraction(p) for p in point]
        acc: dict[int, Fraction] = {}
        for (alpha, mask), c in self.terms.items():
            val = c
            for x, a in zip(coords, alpha):
                if a:
                    val *= x ** a
            acc[mask] = acc[mask] + val if mask in acc else val
        return Multivector(self.m, acc)

    # -- protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CliffordPoly):
            return self.m == other.m and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.m, tuple(self.sorted_terms())))

    def _rows(self) -> list[tuple[MultiIndex, list[tuple[int, Fraction]]]]:
        """The terms in canonical order, grouped by multi-index: (alpha, [(mask, coeff), ...]).
        Only the distinct multi-indices go through term_sort_key."""
        rows: dict[MultiIndex, dict[int, Fraction]] = {}
        for (alpha, mask), c in self.terms.items():
            row = rows.get(alpha)
            if row is None:
                rows[alpha] = row = {}
            row[mask] = c
        alphas = sorted(rows, key=lambda alpha: term_sort_key((alpha, 0)))
        return [(alpha, sorted(rows[alpha].items())) for alpha in alphas]

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return [((alpha, mask), c) for alpha, row in self._rows() for mask, c in row]

    def __repr__(self) -> str:
        if self.is_zero:
            return f"CliffordPoly.zero({self.m})"
        parts = []
        for (alpha, mask), c in self.sorted_terms():
            chunk = [str(c)]
            for i, a in enumerate(alpha):
                if a:
                    chunk.append(f"x{i + 1}" + (f"^{a}" if a > 1 else ""))
            if mask:
                chunk.append("e" + "".join(str(i) for i in blade_indices(mask)))
            parts.append("*".join(chunk))
        return " + ".join(parts).replace("+ -", "- ")

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {
                    "alpha": list(alpha),
                    "blade": list(blade_indices(mask)),
                    "coeff": format_rational(c),
                }
                for (alpha, mask), c in self.sorted_terms()
            ],
        }

    def json_text(self, pad: int = 0) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2), nested at pad
        spaces, written straight from the sorted terms.  Raises ValueError when a
        coefficient has more digits than the interpreter converts to a string."""
        i2, i4, i6, i8 = (" " * (pad + n) for n in (2, 4, 6, 8))
        head = f'{{\n{i2}"m": {self.m},\n{i2}"terms": '
        if not self.terms:
            return f"{head}[]\n{' ' * pad}}}"
        sep, close = f",\n{i8}", f"\n{i6}]"
        blades: dict[int, str] = {}
        parts = []
        for alpha, row in self._rows():
            alpha_text = f"[\n{i8}{sep.join(map(str, alpha))}{close}"
            for mask, c in row:
                blade = blades.get(mask)
                if blade is None:
                    indices = sep.join(map(str, blade_indices(mask)))
                    blade = blades[mask] = f"[\n{i8}{indices}{close}" if mask else "[]"
                parts.append(f'{i4}{{\n{i6}"alpha": {alpha_text},\n{i6}"blade": {blade},\n'
                             f'{i6}"coeff": "{format_rational(c)}"\n{i4}}}')
        return f"{head}[\n" + ",\n".join(parts) + f"\n{i2}]\n{' ' * pad}}}"

    @classmethod
    def from_json_dict(cls, data: dict) -> "CliffordPoly":
        if not isinstance(data, dict) or "m" not in data or "terms" not in data:
            raise ValueError("polynomial JSON must be an object with 'm' and 'terms'")
        m = data["m"]
        _check_m(m)
        if not isinstance(data["terms"], list):
            raise ValueError("'terms' must be a list")
        acc: dict[TermKey, Fraction] = {}
        for pos, term in enumerate(data["terms"]):
            if not isinstance(term, dict) or not {"alpha", "blade", "coeff"} <= set(term):
                raise ValueError(f"term {pos}: expected object with 'alpha', 'blade', 'coeff'")
            key = (_check_alpha(term["alpha"], m), blade_from_indices(term["blade"], m))
            c = parse_rational(term["coeff"])
            acc[key] = acc[key] + c if key in acc else c
        return cls._of(m, acc)


def norm_squared_poly(m: int) -> CliffordPoly:
    """|x|^2 = x_1^2 + ... + x_m^2 as a scalar-valued polynomial."""
    terms = {}
    for j in range(m):
        alpha = tuple(2 if i == j else 0 for i in range(m))
        terms[(alpha, 0)] = 1
    return CliffordPoly(m, terms)
