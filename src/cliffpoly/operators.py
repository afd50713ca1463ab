"""Dirac-type operators on Clifford-algebra-valued polynomials.

Both the vector variable and the Dirac operator split into a
grade-raising and a grade-lowering half.  Acting on a polynomial P with
values in R_{0,m}:

    dplus  P = sum_j e_j ^ (d/dx_j P)      raises value grade by 1
    dminus P = sum_j e_j . (d/dx_j P)      lowers value grade by 1
    xwedge P = sum_j x_j (e_j ^ P)         raises value grade by 1
    xdot   P = sum_j x_j (e_j . P)         lowers value grade by 1

where ^ and . are the outer and inner halves of the product of a
1-vector with an s-vector.  The full Dirac operator is dplus + dminus,
multiplication by x is xwedge + xdot, and the usual Laplacian is
recovered as -(dplus dminus + dminus dplus).

On a bihomogeneous polynomial of degree k and value grade s the three
diagonal operators act as scalars:

    euler      -> k          (sum_j x_j d/dx_j)
    ferm_plus  -> s          (-sum_j e_j ^ e_j . , pointwise on values)
    ferm_minus -> m - s      (-sum_j e_j . e_j ^ , pointwise on values)

The scalar forms are the implementation; the defining sums, like the
other written-out oracles, live with the tests (tests/oracles.py).
Every other operator is a function composed of these; OPERATORS maps
each name the CLI accepts to one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random
from typing import Callable, Iterable

from .multivector import Multivector, Scalar, blade_grade, blade_product
from .polynomial import CliffordPoly, MultiIndex, TermKey

WEDGE = "w"
DOT = "d"


# ---------------------------------------------------------------------------
# primitive applications


# For a basis vector against a basis blade the inner/outer split is a
# membership test: e_j * e_A lies in the lowering half exactly when j
# occurs in A.  The four halves below rely on that; the tests pin them
# to the signed-half formulas of the split-product oracle.


def _half(p: CliffordPoly, differentiate: bool, lower: bool) -> CliffordPoly:
    """sum_j e_j ^ q_j (lower False) or sum_j e_j . q_j (lower True), where
    q_j is d/dx_j p (differentiate True) or x_j p (differentiate False)."""
    shift = -1 if differentiate else 1
    acc: dict[TermKey, Fraction] = {}
    for (alpha, mask), c in p.terms.items():
        for j0 in range(p.m):
            weight = alpha[j0] if differentiate else 1
            if weight and mask >> j0 & 1 == lower:
                sign, nmask = blade_product(1 << j0, mask)
                key = (alpha[:j0] + (alpha[j0] + shift,) + alpha[j0 + 1:], nmask)
                term = c * (sign * weight)
                acc[key] = acc[key] + term if key in acc else term
    return CliffordPoly._of(p.m, acc)


def dirac_plus(p: CliffordPoly) -> CliffordPoly:
    """Grade-raising Dirac half: sum_j e_j ^ (d/dx_j p)."""
    return _half(p, differentiate=True, lower=False)


def dirac_minus(p: CliffordPoly) -> CliffordPoly:
    """Grade-lowering Dirac half: sum_j e_j . (d/dx_j p)."""
    return _half(p, differentiate=True, lower=True)


def x_wedge(p: CliffordPoly) -> CliffordPoly:
    """Grade-raising multiplication half: sum_j x_j (e_j ^ p)."""
    return _half(p, differentiate=False, lower=False)


def x_dot(p: CliffordPoly) -> CliffordPoly:
    """Grade-lowering multiplication half: sum_j x_j (e_j . p)."""
    return _half(p, differentiate=False, lower=True)


def x_full(p: CliffordPoly) -> CliffordPoly:
    """Multiplication by the vector variable: xwedge + xdot."""
    return x_wedge(p) + x_dot(p)


def euler(p: CliffordPoly) -> CliffordPoly:
    """Degree operator: each term scaled by its total degree."""
    return CliffordPoly._of(p.m, {key: c * sum(key[0]) for key, c in p.terms.items()})


def ferm_plus(p: CliffordPoly) -> CliffordPoly:
    """Value-grade operator: each term scaled by its blade grade."""
    return CliffordPoly._of(p.m, {key: c * blade_grade(key[1]) for key, c in p.terms.items()})


def ferm_minus(p: CliffordPoly) -> CliffordPoly:
    """Complementary grade operator: each term scaled by m - grade."""
    return CliffordPoly._of(p.m, {key: c * (p.m - blade_grade(key[1])) for key, c in p.terms.items()})


# ---------------------------------------------------------------------------
# derived operators: compositions of the halves and diagonals


def dirac(p: CliffordPoly) -> CliffordPoly:
    """The Dirac operator: dplus + dminus."""
    return dirac_plus(p) + dirac_minus(p)


def dirac_tilde(p: CliffordPoly) -> CliffordPoly:
    """The twisted Dirac operator: dplus - dminus."""
    return dirac_plus(p) - dirac_minus(p)


def laplacian(p: CliffordPoly) -> CliffordPoly:
    """The usual Laplacian: -(dplus dminus + dminus dplus)."""
    return -(dirac_plus(dirac_minus(p)) + dirac_minus(dirac_plus(p)))


def laplacian_tilde(p: CliffordPoly) -> CliffordPoly:
    """The twisted Laplacian: -(dplus dminus - dminus dplus)."""
    return dirac_minus(dirac_plus(p)) - dirac_plus(dirac_minus(p))


def diagonal_a(p: CliffordPoly) -> CliffordPoly:
    """A = euler + ferm-plus, the scalar k + s on bigrade (k, s)."""
    return euler(p) + ferm_plus(p)


def diagonal_b(p: CliffordPoly) -> CliffordPoly:
    """B = euler + ferm-minus, the scalar k + m - s on bigrade (k, s)."""
    return euler(p) + ferm_minus(p)


def x_op(p: CliffordPoly) -> CliffordPoly:
    """X = xwedge A - xdot B."""
    return x_wedge(diagonal_a(p)) - x_dot(diagonal_b(p))


def x_tilde(p: CliffordPoly) -> CliffordPoly:
    """X-tilde = xwedge A + xdot B."""
    return x_wedge(diagonal_a(p)) + x_dot(diagonal_b(p))


# ---------------------------------------------------------------------------
# per-bigrade sign twists: right Dirac and the two-sided x-sandwich


def _signed_by_grade(p: CliffordPoly, op: Callable[[CliffordPoly], CliffordPoly]) -> CliffordPoly:
    """Apply op to each grade-s slice of values with an extra (-1)^s."""
    out = CliffordPoly.zero(p.m)
    for s in p.grades():
        part = CliffordPoly._of(p.m, {key: c for key, c in p.terms.items() if blade_grade(key[1]) == s})
        piece = op(part)
        out = out + (piece if s % 2 == 0 else -piece)
    return out


def dirac_right(p: CliffordPoly) -> CliffordPoly:
    """Right action of the Dirac operator: P |-> sum_j (d/dx_j P) e_j.

    Computed per value grade as (-1)^s (dplus - dminus) P, which equals
    the literal right multiplication.
    """
    return _signed_by_grade(p, dirac_tilde)


def sandwich_x(p: CliffordPoly) -> CliffordPoly:
    """Two-sided multiplication x P x, per value grade (-1)^s (xdot xwedge - xwedge xdot) P."""
    return _signed_by_grade(p, lambda q: x_dot(x_wedge(q)) - x_wedge(x_dot(q)))


# Every operator applied by name, in the order the CLI lists them.
OPERATORS: dict[str, Callable[[CliffordPoly], CliffordPoly]] = {
    "dplus": dirac_plus,
    "dminus": dirac_minus,
    "xwedge": x_wedge,
    "xdot": x_dot,
    "xfull": x_full,
    "dirac": dirac,
    "dirac-right": dirac_right,
    "dirac-tilde": dirac_tilde,
    "laplacian": laplacian,
    "laplacian-tilde": laplacian_tilde,
    "euler": euler,
    "ferm-plus": ferm_plus,
    "ferm-minus": ferm_minus,
    "A": diagonal_a,
    "B": diagonal_b,
    "X": x_op,
    "X-tilde": x_tilde,
    "sandwich-x": sandwich_x,
}


def apply_named(name: str, p: CliffordPoly) -> CliffordPoly:
    """Apply the operator registered in OPERATORS under the given name."""
    return OPERATORS[name](p)


# ---------------------------------------------------------------------------
# alternating words in the two multiplication halves


class OmegaWord:
    """Alternating word over the letters xwedge ('w') and xdot ('d').

    Letters are stored in writing order and applied right-to-left, so
    OmegaWord("wd") sends P to xwedge(xdot(P)).  Both halves square to
    zero, hence only alternating words are admitted.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str = ""):
        if any(ch not in (WEDGE, DOT) for ch in letters):
            raise ValueError(f"word letters must be '{WEDGE}' or '{DOT}', got {letters!r}")
        if any(a == b for a, b in zip(letters, letters[1:])):
            raise ValueError(f"word must alternate, got {letters!r}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if isinstance(other, OmegaWord):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(("OmegaWord", self.letters))

    def __repr__(self) -> str:
        return f"OmegaWord({self.letters!r})"

    def __str__(self) -> str:
        return self.letters or "1"

    @property
    def grade_shift(self) -> int:
        """Net value-grade change: wedges minus dots."""
        return self.letters.count(WEDGE) - self.letters.count(DOT)

    @property
    def first_applied(self) -> str | None:
        """The rightmost letter, the first to act; None for the empty word."""
        return self.letters[-1] if self.letters else None

    def apply(self, p: CliffordPoly) -> CliffordPoly:
        for ch in reversed(self.letters):
            p = x_wedge(p) if ch == WEDGE else x_dot(p)
        return p


def word_apply(word: OmegaWord | str, p: CliffordPoly) -> CliffordPoly:
    if isinstance(word, str):
        word = OmegaWord(word)
    return word.apply(p)


# ---------------------------------------------------------------------------
# conjugation action of products of unit vectors


class PinElement:
    """Product of exact-rational unit 1-vectors u_1 ... u_t.

    Each factor satisfies u^2 = -1 (unit length in the negative-definite
    algebra), so its inverse is -u and the inverse of the product needs
    no division.
    """

    __slots__ = ("m", "factors")

    def __init__(self, factors: Iterable[Multivector]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("PinElement needs at least one unit-vector factor")
        m = factors[0].m
        minus_one = Multivector.scalar(m, -1)
        for u in factors:
            if u.m != m:
                raise ValueError("PinElement factors must share one algebra")
            if not u.grades() <= {1} or u.is_zero:
                raise ValueError(f"PinElement factor must be a nonzero 1-vector, got {u!r}")
            if u * u != minus_one:
                raise ValueError(f"PinElement factor must have unit length, got {u!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("PinElement is immutable")

    def __repr__(self) -> str:
        return f"PinElement({list(self.factors)!r})"

    def conjugate_value(self, a: Multivector) -> Multivector:
        """r a r^{-1} for a constant multivector a."""
        for u in reversed(self.factors):
            a = -(u * a * u)
        return a

    def conjugate_value_inverse(self, a: Multivector) -> Multivector:
        """r^{-1} a r."""
        for u in self.factors:
            a = -(u * a * u)
        return a

    def substitution_matrix(self) -> list[list[Fraction]]:
        """Rows R[j] with (r^{-1} x r)_j = sum_i R[j][i] x_i, 0-based."""
        rows: list[list[Fraction]] = [[Fraction(0)] * self.m for _ in range(self.m)]
        for i in range(1, self.m + 1):
            image = self.conjugate_value_inverse(Multivector.basis_vector(self.m, i))
            if not image.grades() <= {1}:
                raise ValueError("conjugation did not preserve 1-vectors; non-unit factor slipped through")
            for mask, c in image.terms.items():
                j0 = mask.bit_length() - 1
                rows[j0][i - 1] = c
        return rows


def h_action(r: PinElement, p: CliffordPoly) -> CliffordPoly:
    """The twisted conjugation action (r . P)(x) = r P(r^{-1} x r) r^{-1}.

    Substitutes the rotated/reflected variable into each monomial and
    conjugates the blade values; both steps are exact.  The action
    preserves the bigrading and commutes with dplus, dminus, xwedge and
    xdot.
    """
    if r.m != p.m:
        raise ValueError(f"mixed algebras: m={r.m} vs m={p.m}")
    m = p.m
    rows = r.substitution_matrix()
    linear_forms = [
        CliffordPoly(m, {(tuple(1 if t == i else 0 for t in range(m)), 0): rows[j][i]
                         for i in range(m) if rows[j][i]})
        for j in range(m)
    ]
    values: dict[MultiIndex, dict[int, Fraction]] = {}
    for (alpha, mask), c in p.terms.items():
        values.setdefault(alpha, {})[mask] = c
    acc: dict[TermKey, Fraction] = {}
    for alpha, blades in values.items():
        value = r.conjugate_value(Multivector(m, blades))
        monomial = CliffordPoly.one(m)
        for j0, power in enumerate(alpha):
            for _ in range(power):
                monomial = monomial * linear_forms[j0]
        for (beta, _), f in monomial.terms.items():
            for mask, v in value.terms.items():
                key, c = (beta, mask), f * v
                acc[key] = acc[key] + c if key in acc else c
    return CliffordPoly._of(m, acc)


# ---------------------------------------------------------------------------
# deterministic exact samples for randomized property runs

# primitive Pythagorean pairs (a, b, c) with (a/c)^2 + (b/c)^2 = 1
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))
# the share of monomials random_poly draws a coefficient for
RANDOM_DENSITY = 0.6


def rational_unit_vectors(m: int) -> list[Multivector]:
    """A deterministic pool of exact unit 1-vectors in R^m."""
    pool = [Multivector.basis_vector(m, i) for i in range(1, m + 1)]
    for (i, j), (a, b, c) in itertools.product(itertools.combinations(range(1, m + 1), 2), _PYTHAGOREAN):
        pool.append(Multivector(m, {1 << (i - 1): Fraction(a, c), 1 << (j - 1): Fraction(b, c)}))
        pool.append(Multivector(m, {1 << (i - 1): Fraction(-b, c), 1 << (j - 1): Fraction(a, c)}))
    return pool


def sample_pin_elements(m: int, count: int, rng: Random) -> list[PinElement]:
    """Seeded sample of reflections and short products of them."""
    pool = rational_unit_vectors(m)
    out = []
    for _ in range(count):
        nfactors = rng.choice((1, 2, 2, 3))
        out.append(PinElement(rng.choice(pool) for _ in range(nfactors)))
    return out


def random_poly(m: int, k: int, grades: Iterable[int], rng: Random) -> CliffordPoly:
    """Seeded bihomogeneous-degree-k polynomial with values in the given grades."""
    from .polynomial import monomial_keys

    terms: dict[TermKey, Scalar] = {}
    for key in monomial_keys(m, set(grades), k):
        if rng.random() < RANDOM_DENSITY:
            num = rng.randint(-9, 9)
            den = rng.choice((1, 1, 2, 3))
            if num:
                terms[key] = Fraction(num, den)
    return CliffordPoly(m, terms)
