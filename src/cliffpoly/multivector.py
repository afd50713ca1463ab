"""Exact Clifford algebra R_{0,m}: blades, signs, multivectors.

The algebra is generated by e_1, ..., e_m subject to

    e_i e_j + e_j e_i = -2 delta_ij,

so every generator squares to -1.  A basis blade e_A = e_{a_1}...e_{a_s}
with a_1 < ... < a_s is encoded as a bitmask (bit i-1 stands for e_i);
the empty mask is the scalar unit.  The grade of a blade is its
popcount, and the algebra is the direct sum of its grade-s parts for
s = 0..m.

Coefficients are fractions.Fraction throughout.  No floating point
enters anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

MAX_GENERATORS = 8

Scalar = Union[int, Fraction]


def _check_m(m: int) -> None:
    if type(m) is not int or not 1 <= m <= MAX_GENERATORS:
        raise ValueError(f"number of generators must be an integer in 1..{MAX_GENERATORS}, got {m!r}")


def blade_from_indices(indices: Iterable[int], m: int) -> int:
    """Bitmask of a blade given by strictly increasing 1-based indices;
    m must already be checked."""
    mask = 0
    prev = 0
    for i in indices:
        if type(i) is not int or not 1 <= i <= m:
            raise ValueError(f"blade index {i!r} outside 1..{m}")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got repeat/misorder at {i}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a blade bitmask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def blade_grade(mask: int) -> int:
    return mask.bit_count()


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades: (sign, result bitmask).

    The sign counts the adjacent transpositions needed to sort the
    concatenated index sequence, then applies e_i^2 = -1 once per index
    common to both factors.  The surviving indices are the symmetric
    difference, i.e. the XOR of the masks.
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if (swaps + (a & b).bit_count()) & 1 else 1
    return sign, a ^ b


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" in ASCII digits with optional leading minus.
    Nothing else.

    Rejects decimal and exponent forms so no float notation can sneak
    into exact data.  A numerator or denominator past the interpreter's
    integer-string digit limit raises ValueError from int().
    """
    if not isinstance(text, str):
        raise ValueError(f"rational coefficient must be a string, got {type(text).__name__}")
    negative = text.startswith("-")
    body = text[1:] if negative else text
    num, slash, den = body.partition("/")
    if not body.isascii() or not num.isdigit() or (slash and not den.isdigit()):
        raise ValueError(f"malformed rational {text!r}; expected p or p/q in integers")
    n = -int(num) if negative else int(num)
    if not slash:
        return Fraction(n)
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(n, d)


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p" or "p/q" with positive denominator."""
    return str(value)


class Multivector:
    """Element of R_{0,m} as a sparse blade -> coefficient map.

    Zero coefficients are dropped on construction, so the zero element
    is the empty map and equality is plain dict equality.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[int, Scalar] | None = None):
        _check_m(m)
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                if not isinstance(mask, int) or not 0 <= mask < (1 << m):
                    raise ValueError(f"blade mask {mask!r} outside algebra with m={m}")
                c = _as_fraction(coeff)
                if c:
                    clean[mask] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def zero(cls, m: int) -> "Multivector":
        return cls(m)

    @classmethod
    def scalar(cls, m: int, value: Scalar) -> "Multivector":
        return cls(m, {0: value})

    @classmethod
    def basis_vector(cls, m: int, i: int) -> "Multivector":
        """e_i for 1 <= i <= m."""
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} outside 1..{m}")
        return cls(m, {1 << (i - 1): 1})

    @classmethod
    def from_blade(cls, m: int, indices: Iterable[int], coeff: Scalar = 1) -> "Multivector":
        _check_m(m)
        return cls(m, {blade_from_indices(indices, m): coeff})

    @classmethod
    def pseudoscalar(cls, m: int) -> "Multivector":
        return cls(m, {(1 << m) - 1: 1})

    def coeff(self, indices: Iterable[int]) -> Fraction:
        return self.terms.get(blade_from_indices(indices, self.m), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def grades(self) -> set[int]:
        return {blade_grade(mask) for mask in self.terms}

    def grade_project(self, s: int) -> "Multivector":
        return Multivector(self.m, {mask: c for mask, c in self.terms.items() if blade_grade(mask) == s})

    @property
    def scalar_part(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def _require_same_m(self, other: "Multivector") -> None:
        if self.m != other.m:
            raise ValueError(f"mixed algebras: m={self.m} vs m={other.m}")

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_m(other)
        acc = dict(self.terms)
        for mask, c in other.terms.items():
            acc[mask] = acc[mask] + c if mask in acc else c
        return Multivector(self.m, acc)

    def __neg__(self) -> "Multivector":
        return Multivector(self.m, {mask: -c for mask, c in self.terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, Multivector):
            self._require_same_m(other)
            acc: dict[int, Fraction] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    sign, mask = blade_product(a, b)
                    c = sign * ca * cb
                    acc[mask] = acc[mask] + c if mask in acc else c
            return Multivector(self.m, acc)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Multivector(self.m, {mask: c * other for mask, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, Multivector):
            return self.m == other.m and self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Multivector.scalar(self.m, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Multivector.zero({self.m})"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            name = "e" + "".join(str(i) for i in blade_indices(mask)) if mask else "1"
            parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"blade": list(blade_indices(mask)), "coeff": format_rational(self.terms[mask])}
                for mask in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multivector":
        if not isinstance(data, dict) or "m" not in data or "terms" not in data:
            raise ValueError("multivector JSON must be an object with 'm' and 'terms'")
        m = data["m"]
        _check_m(m)
        acc: dict[int, Fraction] = {}
        if not isinstance(data["terms"], list):
            raise ValueError("'terms' must be a list")
        for pos, term in enumerate(data["terms"]):
            if not isinstance(term, dict) or "blade" not in term or "coeff" not in term:
                raise ValueError(f"term {pos}: expected object with 'blade' and 'coeff'")
            mask = blade_from_indices(term["blade"], m)
            c = parse_rational(term["coeff"])
            acc[mask] = acc[mask] + c if mask in acc else c
        return cls(m, acc)
