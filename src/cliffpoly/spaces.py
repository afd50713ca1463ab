"""Polynomial solution spaces of the Dirac-type systems, as exact bases.

Every space here is realized as the kernel of one or two operator
matrices over the canonical monomial basis, so each basis is canonical
and reproducible.  Results are memoized; all constructions are pure.

Kinds:

    hodge       dplus P = 0 and dminus P = 0 on grade-s degree-k polynomials
    harmonic    laplacian P = 0
    infra       laplacian-tilde P = 0
    mono-left   dirac P = 0 on values restricted to a grade set
    mono-right  P dirac = 0, equivalently dirac-tilde P = 0 gradewise
    two-sided   dirac P = 0 and P dirac = 0; cross-checked against hodge
    mono-S      alias of mono-left with an explicit grade set

The solutions of the two-sided system coincide with the joint kernel of
the two Dirac halves; the construction computes both and insists that
the spans agree.
"""

from __future__ import annotations

from typing import Iterable, Union

from .linalg import (
    RationalMatrix,
    SubspaceBasis,
    nullspace,
    operator_matrix,
    poly_from_vector,
    span_equal,
)
from .operators import OmegaWord, derived_operator, word_apply
from .polynomial import CliffordPoly, monomial_keys


class TheoremViolation(Exception):
    """A machine-checked claim failed; carries a witness when one exists."""

    def __init__(self, context: str, witness: CliffordPoly | None = None, report=None):
        super().__init__(context)
        self.context = context
        self.witness = witness
        self.report = report


KINDS = ("hodge", "harmonic", "infra", "mono-left", "mono-right", "two-sided", "mono-S")

_CACHE: dict[tuple, SubspaceBasis] = {}


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


def _kernel_basis(op_names: Iterable[str], m: int, grades: Union[int, Iterable[int]], k: int,
                  label: str) -> SubspaceBasis:
    gset = {grades} if isinstance(grades, int) else set(grades)
    keys = monomial_keys(m, gset, k)
    stacked = RationalMatrix.vstack([operator_matrix(derived_operator(name), m, gset, k) for name in op_names])
    vectors = [poly_from_vector(m, keys, v) for v in nullspace(stacked)]
    return SubspaceBasis(m, label, vectors)


def _normalize_grades(kind: str, m: int, s: int | None, S: Iterable[int] | None):
    if kind in ("hodge", "harmonic", "infra"):
        if s is None or S is not None:
            raise ValueError(f"kind {kind!r} takes a single grade s")
        if not 0 <= s <= m:
            raise ValueError(f"grade s={s} outside 0..{m}")
        return s
    if kind == "two-sided":
        if s is not None and S is None:
            if not 0 <= s <= m:
                raise ValueError(f"grade s={s} outside 0..{m}")
            return s
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


def _check_grade_set(S: Iterable[int], m: int) -> frozenset[int]:
    S = frozenset(S)
    if not S:
        raise ValueError("grade set must be nonempty")
    if any(not isinstance(s, int) or not 0 <= s <= m for s in S):
        raise ValueError(f"grade set {sorted(S)} outside 0..{m}")
    return S


def space_basis(kind: str, m: int, k: int, s: int | None = None,
                S: Iterable[int] | None = None) -> SubspaceBasis:
    """Canonical basis of the requested solution space; memoized."""
    if k < 0:
        raise ValueError("degree k must be nonnegative")
    grades = _normalize_grades(kind, m, s, S)
    cache_key = (kind, m, k, grades)
    hit = _CACHE.get(cache_key)
    if hit is not None:
        return hit
    gdesc = f"s={grades}" if isinstance(grades, int) else f"S={sorted(grades)}"
    label = f"{kind}(m={m},{gdesc},k={k})"
    if kind == "hodge":
        basis = _kernel_basis(("dplus", "dminus"), m, grades, k, label)
    elif kind == "harmonic":
        basis = _kernel_basis(("laplacian",), m, grades, k, label)
    elif kind == "infra":
        basis = _kernel_basis(("laplacian-tilde",), m, grades, k, label)
    elif kind in ("mono-left", "mono-S"):
        basis = _kernel_basis(("dirac",), m, grades, k, label)
    elif kind == "mono-right":
        basis = _kernel_basis(("dirac-tilde",), m, grades, k, label)
    else:  # two-sided
        basis = _kernel_basis(("dirac", "dirac-tilde"), m, grades, k, label)
        via_halves = _kernel_basis(("dplus", "dminus"), m, grades, k, label + "|halves")
        if not span_equal(basis, via_halves):
            raise TheoremViolation(
                f"two-sided solutions at (m={m},{gdesc},k={k}) disagree with the joint kernel of the halves")
    _CACHE[cache_key] = basis
    return basis


def hodge_space(m: int, s: int, k: int) -> SubspaceBasis:
    """Hodge-de Rham solutions at (s, k); the zero basis off the valid range."""
    if not 0 <= s <= m or k < 0:
        return SubspaceBasis(m, f"hodge(m={m},s={s},k={k})|empty", ())
    return space_basis("hodge", m, k, s=s)


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
    if isinstance(word, str):
        word = OmegaWord(word)
    cache_key = ("component", word.letters, m, s, k)
    hit = _CACHE.get(cache_key)
    if hit is not None:
        return hit
    label = f"{word}*hodge(m={m},s={s},k={k})"
    source = hodge_space(m, s, k)
    if not 0 <= s <= m or k < 0 or source.dim == 0:
        basis = SubspaceBasis(m, label, ())
    elif word_vanishes(word, s, m):
        images = [word_apply(word, v) for v in source]
        bad = next((v for v, im in zip(source, images) if not im.is_zero), None)
        if bad is not None:
            raise TheoremViolation(
                f"word {word} should annihilate hodge(m={m},s={s},k={k}) but does not", witness=bad)
        basis = SubspaceBasis(m, label, ())
    else:
        images = [word_apply(word, v) for v in source]
        try:
            basis = SubspaceBasis(m, label, images)
        except ValueError:
            raise TheoremViolation(
                f"word {word} is not injective on hodge(m={m},s={s},k={k})") from None
    _CACHE[cache_key] = basis
    return basis
