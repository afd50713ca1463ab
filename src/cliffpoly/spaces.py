"""Polynomial solution spaces of the Dirac-type systems, as exact bases.

Each kind of space is the joint kernel of the operators that KERNELS
names for it, over the canonical monomial basis of its grades and
degree, so each basis is canonical and reproducible; `kernel_dim` reads
the dimension alone by rank-nullity.  Results are memoized; all
constructions are pure.

Grades: hodge, harmonic and infra take one grade s; mono-left and
mono-right an optional grade set S (all grades by default); mono-S a
required S; two-sided s or S.  The right monogenic equation P dirac = 0
holds exactly when dirac-tilde P = 0, since the two agree gradewise up
to sign.  The two-sided solutions coincide with the joint kernel of the
two Dirac halves; the construction computes both and insists that the
spans agree.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Iterable, Union

from .linalg import (
    RationalMatrix,
    SubspaceBasis,
    columns_matrix,
    nullspace,
    operator_matrix,
    rank,
    rref,
    span_equal,
)
from .multivector import _check_m
from .operators import OPERATORS, OmegaWord, word_apply
from .polynomial import CliffordPoly, monomial_keys, space_dim


class TheoremViolation(Exception):
    """A machine-checked claim failed; carries a witness when one exists."""

    def __init__(self, context: str, witness: CliffordPoly | None = None, report=None):
        super().__init__(context)
        self.context = context
        self.witness = witness
        self.report = report


# each kind of space as the joint kernel of the named operators
KERNELS: dict[str, tuple[str, ...]] = {
    "hodge": ("dplus", "dminus"),
    "harmonic": ("laplacian",),
    "infra": ("laplacian-tilde",),
    "mono-left": ("dirac",),
    "mono-right": ("dirac-tilde",),
    "two-sided": ("dirac", "dirac-tilde"),
    "mono-S": ("dirac",),
}

KINDS = tuple(KERNELS)


def omega_words(max_len: int) -> list[OmegaWord]:
    """The empty word plus both alternating words of each length up to max_len."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = [OmegaWord("")]
    for length in range(1, max_len + 1):
        for start in ("w", "d"):
            letters = "".join((start if i % 2 == 0 else ("d" if start == "w" else "w")) for i in range(length))
            out.append(OmegaWord(letters))
    return out


def _stacked(op_names: Iterable[str], m: int, grades: Union[int, Iterable[int]], k: int) -> RationalMatrix:
    """The named operators' matrices stacked over the monomial basis of (grades, k)."""
    rows = [row for name in op_names for row in operator_matrix(OPERATORS[name], m, grades, k).entries]
    return RationalMatrix(rows, space_dim(m, grades, k))


def kernel_dim(op_names: Iterable[str], m: int, grades: Union[int, Iterable[int]], k: int) -> int:
    """Dimension of the joint kernel of the named operators on the degree-k
    polynomials with values of the given grade(s): columns minus rank.
    With no operators, the dimension of the whole space."""
    stacked = _stacked(op_names, m, grades, k)
    return stacked.cols - rank(stacked)


def _kernel_basis(op_names: Iterable[str], m: int, grades: Union[int, Iterable[int]], k: int,
                  label: str) -> SubspaceBasis:
    keys = monomial_keys(m, grades, k)
    vectors = [CliffordPoly._of(m, {keys[j]: c for j, c in v.items()})
               for v in nullspace(_stacked(op_names, m, grades, k))]
    return SubspaceBasis(m, label, vectors)


def _normalize_grades(kind: str, m: int, s: int | None, S: Iterable[int] | None):
    if kind in ("hodge", "harmonic", "infra"):
        if s is None or S is not None:
            raise ValueError(f"kind {kind!r} takes a single grade s")
        return _check_grade(s, m)
    if kind == "two-sided":
        if s is not None and S is None:
            return _check_grade(s, m)
        if s is None and S is not None:
            return _check_grade_set(S, m)
        raise ValueError("kind 'two-sided' takes s or S, not both")
    if kind in ("mono-left", "mono-right"):
        if s is not None:
            raise ValueError(f"kind {kind!r} takes an optional grade set S, not s")
        return _check_grade_set(S, m) if S is not None else frozenset(range(m + 1))
    if kind == "mono-S":
        if s is not None or S is None:
            raise ValueError("kind 'mono-S' requires a grade set S")
        return _check_grade_set(S, m)
    raise ValueError(f"unknown space kind {kind!r}; expected one of {KINDS}")


def _check_grade(s: int, m: int) -> int:
    # a bool or float equal to an int would share its memo entry and label
    if type(s) is not int or not 0 <= s <= m:
        raise ValueError(f"grade {s!r} is not an integer in 0..{m}")
    return s


def _check_grade_set(S: Iterable[int], m: int) -> frozenset[int]:
    try:
        S = frozenset(S)
    except TypeError:
        raise ValueError(f"grade set {S!r} is not a collection of grades") from None
    if not S:
        raise ValueError("grade set must be nonempty")
    for s in S:
        _check_grade(s, m)
    return S


def space_basis(kind: str, m: int, k: int, s: int | None = None,
                S: Iterable[int] | None = None) -> SubspaceBasis:
    """Canonical basis of the requested solution space; memoized."""
    _check_m(m)
    if type(k) is not int or k < 0:
        raise ValueError(f"degree k must be a nonnegative integer, got {k!r}")
    return _space_basis(kind, m, k, _normalize_grades(kind, m, s, S))


@cache
def _space_basis(kind: str, m: int, k: int, grades: int | frozenset[int]) -> SubspaceBasis:
    gdesc = f"s={grades}" if isinstance(grades, int) else f"S={sorted(grades)}"
    label = f"{kind}(m={m},{gdesc},k={k})"
    basis = _kernel_basis(KERNELS[kind], m, grades, k, label)
    if kind == "two-sided":
        via_halves = _kernel_basis(KERNELS["hodge"], m, grades, k, label + "|halves")
        if not span_equal(basis, via_halves):
            raise TheoremViolation(
                f"two-sided solutions at (m={m},{gdesc},k={k}) disagree with the joint kernel of the halves")
    return basis


def hodge_space(m: int, s: int, k: int) -> SubspaceBasis:
    """Hodge-de Rham solutions at (s, k); the zero basis off the valid range."""
    if not 0 <= s <= m or k < 0:
        return SubspaceBasis(m, f"hodge(m={m},s={s},k={k})|empty", ())
    return space_basis("hodge", m, k, s=s)


def image_basis(label: str, source: SubspaceBasis,
                f: Callable[[CliffordPoly], CliffordPoly]) -> SubspaceBasis:
    """The images under f of the certified source's vectors, certified
    independent, so f is injective on the source.

    Dependent images raise TheoremViolation whose witness is the source
    vector with the first image that is zero or dependent on those before.
    """
    images = [f(v) for v in source]
    try:
        return SubspaceBasis(source.m, label, images)
    except ValueError:
        pivots = rref(columns_matrix(images)).pivots
        raise TheoremViolation(f"{label}: the map is not injective on {source.label}",
                               witness=next(v for col, v in enumerate(source) if col not in pivots)) from None


def word_vanishes(word: OmegaWord, s: int, m: int) -> bool:
    """Does the word annihilate every grade-s solution for structural reasons?

    The first letter to act kills the whole space when it steps off the
    grade range: a dot on grade 0, a wedge on grade m.
    """
    first = word.first_applied
    return (s == 0 and first == "d") or (s == m and first == "w")


def component_space(word: OmegaWord | str, m: int, s: int, k: int) -> SubspaceBasis:
    """Image of the Hodge-de Rham space at (s, k) under the word.

    Outside the structural vanishing cases the word map is injective on
    the space, which is certified here; a dependent image would falsify
    the decomposition and raises.  Memoized.
    """
    return _component_space(OmegaWord(word) if isinstance(word, str) else word, m, s, k)


@cache
def _component_space(word: OmegaWord, m: int, s: int, k: int) -> SubspaceBasis:
    label = f"{word}*hodge(m={m},s={s},k={k})"
    source = hodge_space(m, s, k)
    if word_vanishes(word, s, m):
        bad = next((v for v in source if not word_apply(word, v).is_zero), None)
        if bad is not None:
            raise TheoremViolation(
                f"word {word} should annihilate hodge(m={m},s={s},k={k}) but does not", witness=bad)
        return SubspaceBasis(m, label, ())
    return image_basis(label, source, partial(word_apply, word))
