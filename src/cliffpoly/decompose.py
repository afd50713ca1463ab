"""Machine-verified direct-sum decompositions of the polynomial spaces.

Each construction below builds explicit component bases, certifies
membership in the target kernel, certifies joint independence, and
checks that the components fill the target space exactly.  Nothing is
taken on faith: a failed certification raises TheoremViolation with a
witness, and the verification sweep records it and moves on.

Decomposition of a concrete polynomial is an exact linear solve against
the stacked component bases; a successful decomposition reproduces the
input with residual exactly zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

from .linalg import NotInSpan, SubspaceBasis, coords_in_basis, direct_sum_check
from .multivector import _check_m
from .operators import (
    OmegaWord,
    apply_named,
    laplacian_tilde,
    random_poly,
    x_dot,
    x_wedge,
)
from .polynomial import CliffordPoly, monomial_keys, norm_squared_poly
from .spaces import (
    KERNELS,
    TheoremViolation,
    _check_grade_set,
    component_space,
    hodge_space,
    image_basis,
    kernel_dim,
    omega_words,
    space_basis,
)

DEFAULT_SEED = 7021

# random reconstructions per sampled unit of the verification sweep
SAMPLES = 2

# components as (label, basis) pairs
Labeled = Sequence[tuple[str, SubspaceBasis]]

THEOREM_ORDER = ("h", "homma", "monogenic", "mt", "infra", "infra-harmonic", "classical")

TOWER_MODES = ("harmonic", "monogenic", "infra")


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one certification unit."""

    theorem: str
    m: int
    k: int
    s: int | None = None
    grades: tuple[int, ...] | None = None
    labels: tuple[str, ...] = ()
    dims: tuple[int, ...] = ()
    ambient_dim: int = 0
    direct_sum: bool = False
    fills: bool = False
    note: str = ""
    witness: CliffordPoly | None = None

    @property
    def ok(self) -> bool:
        return self.direct_sum and self.fills and self.witness is None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "m": self.m,
            "k": self.k,
            "s": self.s,
            "grades": list(self.grades) if self.grades is not None else None,
            "labels": list(self.labels),
            "dims": list(self.dims),
            "ambient_dim": self.ambient_dim,
            "direct_sum": self.direct_sum,
            "fills": self.fills,
            "ok": self.ok,
            "note": self.note,
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
        }


class DecompositionResult:
    """Labeled components that sum back to the input; the residual is
    always zero and kept for the JSON schema."""

    __slots__ = ("input", "components", "residual")

    def __init__(self, input: CliffordPoly, components: dict[str, CliffordPoly]):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "components", dict(components))
        object.__setattr__(self, "residual", CliffordPoly.zero(input.m))
        total = self.total()
        if total != input:
            raise TheoremViolation("decomposition does not sum back to its input", witness=input - total)

    def __setattr__(self, name, value):
        raise AttributeError("DecompositionResult is immutable")

    def total(self) -> CliffordPoly:
        return CliffordPoly._sum(self.input.m, self.components.values())

    def to_json_dict(self) -> dict:
        return {
            "input": self.input.to_json_dict(),
            "components": {label: part.to_json_dict() for label, part in self.components.items()},
            "residual": self.residual.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# exact projection onto stacked component bases, and the one driver


def project_onto(part: CliffordPoly, labeled: Labeled, context: str) -> dict[str, CliffordPoly]:
    """Coordinates of part over the concatenated bases, summed per label.

    Raises TheoremViolation when the stacked bases do not span the part;
    with certified-independent spanning components the solution is the
    unique direct-sum decomposition.
    """
    if part.is_zero:
        return {}
    vectors = [v for _, basis in labeled for v in basis]
    if not vectors:
        raise TheoremViolation(f"{context}: no components available", witness=part)
    try:
        coords = iter(coords_in_basis(part, vectors))
    except NotInSpan:
        raise TheoremViolation(f"{context}: polynomial escapes the component span",
                               witness=part) from None
    out: dict[str, CliffordPoly] = {}
    for label, basis in labeled:
        piece = CliffordPoly._sum(part.m, [v.scale(c) for v, c in zip(basis, coords) if c])
        if not piece.is_zero:
            out[label] = piece
    return out


def _decompose(p: CliffordPoly, components: Callable[..., Labeled], context: str,
               grade_set: frozenset[int] | None = None) -> DecompositionResult:
    """Project p onto certified components, one bigrade or one degree at a time.

    Without a grade set p splits per bigrade and components(m, s, k)
    lists the components of bigrade (s, k).  With one, p splits per
    degree, components(m, grade_set, k) lists those of degree k (they mix
    grades), and a part with a grade outside the set raises
    TheoremViolation.
    """
    if grade_set is None:
        units = [(s, k, part, f"{context} (s={s},k={k})") for k, s, part in p.bigrade_split()]
    else:
        by_degree: dict[int, CliffordPoly] = {}
        for k, s, part in p.bigrade_split():
            if s not in grade_set:
                raise TheoremViolation(f"input carries grade {s} outside the set {sorted(grade_set)}",
                                       witness=part)
            by_degree[k] = by_degree.get(k, CliffordPoly.zero(p.m)) + part
        units = [(grade_set, k, part, f"{context} (k={k})") for k, part in sorted(by_degree.items())]
    out: dict[str, CliffordPoly] = {}
    for grades, k, part, where in units:
        out.update(project_onto(part, components(p.m, grades, k), where))
    return DecompositionResult(p, out)


# ---------------------------------------------------------------------------
# the word-indexed decomposition of everything


def admissible_h_components(m: int, s: int, k: int) -> list[tuple[OmegaWord, int, int]]:
    """Candidate (word, source grade, source degree) triples feeding the
    bigrade (s, k): word length plus source degree is k and the word's
    grade shift connects source grade to s."""
    out = []
    for word in omega_words(k):
        k2 = k - len(word)
        s2 = s - word.grade_shift
        if 0 <= s2 <= m:
            out.append((word, s2, k2))
    return out


def h_component_label(word: OmegaWord, s2: int, k2: int) -> str:
    return f"{word}*H({s2},{k2})"


def _h_components(m: int, s: int, k: int) -> list[tuple[str, SubspaceBasis]]:
    out = []
    for word, s2, k2 in admissible_h_components(m, s, k):
        basis = component_space(word, m, s2, k2)
        if basis.dim:
            out.append((h_component_label(word, s2, k2), basis))
    return out


def fischer_h_decompose(p: CliffordPoly) -> DecompositionResult:
    """Split p along the word-indexed direct sum, bigrade by bigrade."""
    return _decompose(p, _h_components, "bigrade")


def h_bookkeeping_report(m: int, s: int, k: int) -> TheoremReport:
    """Certify that the word components tile the full bigrade exactly."""
    return _refine_report("h", m, s, k, _h_components(m, s, k), ())


# ---------------------------------------------------------------------------
# refinements of the classical kernels


def _refine_report(theorem: str, m: int, s: int | None, k: int, labeled: Labeled,
                   op_names: Sequence[str], grades: tuple[int, ...] | None = None,
                   note: str = "") -> TheoremReport:
    """Certify that each named operator annihilates every component
    vector, and that the components, which must lie in bigrade (s, k) or
    in degree k over the grade set, tile the joint kernel of the named
    operators there as a direct sum."""
    for name in op_names:
        for label, basis in labeled:
            for v in basis:
                if not apply_named(name, v).is_zero:
                    raise TheoremViolation(f"component {label} is not annihilated by {name}", witness=v)
    where = s if s is not None else grades
    ambient_dim = kernel_dim(op_names, m, where, k)
    live = [(label, basis) for label, basis in labeled if basis.dim]
    check = direct_sum_check([basis for _, basis in live], ambient_dim,
                             ambient_keys=monomial_keys(m, where, k))
    report = TheoremReport(
        theorem=theorem, m=m, k=k, s=s, grades=grades,
        labels=tuple(label for label, _ in live),
        dims=check.dims, ambient_dim=ambient_dim,
        direct_sum=check.independent, fills=check.fills_ambient, note=note,
    )
    if not report.ok:
        raise TheoremViolation(f"{theorem} refinement fails at (m={m},s={s},k={k})", report=report)
    return report


def _pair_component(m: int, s: int, k: int, wedge_coeff: int,
                    dot_coeff: int) -> tuple[str, SubspaceBasis]:
    """Span of (wedge_coeff * xwedge xdot + dot_coeff * xdot xwedge) over
    the Hodge-de Rham space two degrees down, with its label."""
    label = f"({wedge_coeff}*wd{dot_coeff:+d}*dw)*H({s},{k - 2})"
    if not 1 <= s <= m - 1:  # one of the two words vanishes on grades 0 and m
        return label, SubspaceBasis(m, label, ())
    return label, image_basis(label, hodge_space(m, s, k - 2), lambda v: (
        x_wedge(x_dot(v)).scale(wedge_coeff) + x_dot(x_wedge(v)).scale(dot_coeff)))


def intersection_components(m: int, s: int, k: int) -> list[tuple[str, SubspaceBasis]]:
    """The Hodge-de Rham space and its wedge and dot images one degree
    down.  Both refinements below start with these three; their pair
    combinations differ between the two kernels, so only these three
    survive in the intersection."""
    return [
        (f"H({s},{k})", hodge_space(m, s, k)),
        (f"w*H({s - 1},{k - 1})", component_space("w", m, s - 1, k - 1)),
        (f"d*H({s + 1},{k - 1})", component_space("d", m, s + 1, k - 1)),
    ]


def harmonic_components(m: int, s: int, k: int) -> list[tuple[str, SubspaceBasis]]:
    """The four refinement components of the grade-s degree-k harmonics:
    the three shared ones and one mixed pair combination two degrees down
    whose coefficients are forced by harmonicity."""
    c1, c2 = k - 2 + s, k - 2 + m - s
    return intersection_components(m, s, k) + [_pair_component(m, s, k, c2, -c1)]


def harmonic_refine(m: int, s: int, k: int) -> TheoremReport:
    """Certify that the four harmonic components tile the harmonics."""
    return _refine_report("homma", m, s, k, harmonic_components(m, s, k), KERNELS["harmonic"])


def infra_components(m: int, s: int, k: int) -> list[tuple[str, SubspaceBasis]]:
    """The four refinement components inside the kernel of the twisted
    Laplacian; the pair coefficients ((c1+1) c2, (c2+1) c1) are the ones
    its eigenvalues force."""
    c1, c2 = k - 2 + s, k - 2 + m - s
    return intersection_components(m, s, k) + [_pair_component(m, s, k, (c1 + 1) * c2, (c2 + 1) * c1)]


def inframonogenic_refine(m: int, s: int, k: int) -> TheoremReport:
    """Certify the four-component refinement of the twisted Laplacian
    kernel, including the eigenvalue identities behind the pair
    combination: the two pure pair words on the Hodge-de Rham space two
    degrees down carry eigenvalues -2 c1 (c2+1) and 2 (c1+1) c2."""
    c1, c2 = k - 2 + s, k - 2 + m - s
    if 1 <= s <= m - 1:
        for v in hodge_space(m, s, k - 2):
            if laplacian_tilde(x_wedge(x_dot(v))) != v.scale(-2 * c1 * (c2 + 1)):
                raise TheoremViolation(
                    f"wedge-dot eigenvalue failed at (m={m},s={s},k={k})", witness=v)
            if laplacian_tilde(x_dot(x_wedge(v))) != v.scale(2 * (c1 + 1) * c2):
                raise TheoremViolation(
                    f"dot-wedge eigenvalue failed at (m={m},s={s},k={k})", witness=v)
    return _refine_report("infra", m, s, k, infra_components(m, s, k), KERNELS["infra"])


def _x_image(m: int, s: int, k_source: int, side: str) -> SubspaceBasis:
    """Image of the Hodge-de Rham space under X (left) or X-tilde (right).

    On the source space the two diagonal factors act as the scalars
    k+s and k+m-s, which is certified against the operator itself.
    """
    op_name = "X" if side == "left" else "X-tilde"
    label = f"{'X' if side == 'left' else 'Xt'}*H({s},{k_source})"
    wedge_scale = k_source + s
    dot_scale = (1 if side == "right" else -1) * (k_source + m - s)

    def image(v: CliffordPoly) -> CliffordPoly:
        out = x_wedge(v).scale(wedge_scale) + x_dot(v).scale(dot_scale)
        if out != apply_named(op_name, v):
            raise TheoremViolation(f"diagonal shortcut disagrees with {op_name} on {label}", witness=v)
        return out

    return image_basis(label, hodge_space(m, s, k_source), image)


def monogenic_components(m: int, k: int, S: frozenset[int],
                         side: str) -> list[tuple[str, SubspaceBasis]]:
    """Hodge-de Rham spaces at degree k plus X images from degree k-1.

    A grade s feeds an X image exactly when both neighbors s-1 and s+1
    lie in the restriction set, so the image stays inside the allowed
    values.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    labeled: list[tuple[str, SubspaceBasis]] = []
    for s in sorted(S):
        labeled.append((f"H({s},{k})", hodge_space(m, s, k)))
    for s in range(m + 1):
        if s - 1 in S and s + 1 in S:
            image = _x_image(m, s, k - 1, side)
            labeled.append((image.label, image))
    return labeled


def monogenic_refine(m: int, k: int, S: Iterable[int] | None = None,
                     side: str = "left") -> TheoremReport:
    """Certify the two-layer refinement of the grade-restricted
    monogenic space against the computed kernel."""
    S = frozenset(range(m + 1)) if S is None else _check_grade_set(S, m)
    labeled = monogenic_components(m, k, S, side)
    theorem = "monogenic" if S == frozenset(range(m + 1)) else "mt"
    return _refine_report(theorem, m, None, k, labeled, KERNELS[f"mono-{side}"],
                          grades=tuple(sorted(S)), note=f"side={side}")


def harmonic_infra_intersection(m: int, s: int, k: int) -> TheoremReport:
    """The mutual kernel of both Laplacians carries just the first three
    refinement components; the pair components drop out."""
    return _refine_report("infra-harmonic", m, s, k, intersection_components(m, s, k),
                          KERNELS["harmonic"] + KERNELS["infra"])


_BIGRADE_REFINEMENTS = {"homma": harmonic_components, "infra": infra_components,
                        "infra-harmonic": intersection_components}


def refine_decompose(p: CliffordPoly, theorem: str, S: Iterable[int] | None = None,
                     side: str = "left") -> DecompositionResult:
    """Split a member of one of the refined kernels along its certified
    components.

    A polynomial outside the kernel escapes the component span and
    raises TheoremViolation; the harmonic, twisted, and intersection
    refinements work bigrade by bigrade, the monogenic ones degree by
    degree because the X images mix neighboring grades.
    """
    if theorem in _BIGRADE_REFINEMENTS:
        return _decompose(p, _BIGRADE_REFINEMENTS[theorem], theorem)
    if theorem in ("monogenic", "mt"):
        S = frozenset(range(p.m + 1)) if S is None else _check_grade_set(S, p.m)
        return _decompose(p, lambda m, grades, k: monogenic_components(m, k, grades, side),
                          f"{theorem}, {side} side", grade_set=S)
    raise ValueError(f"no refinement decomposition for theorem {theorem!r}")


# ---------------------------------------------------------------------------
# the classical towers


def _tower_components(m: int, grades: int | frozenset[int], k: int, mode: str) -> Labeled:
    """The layers of one classical tower at degree k, lowest power first:

    harmonic:  |x|^{2p} Harm(s, k-2p)
    infra:     x^p Infra(s, k-2p) x^p
    monogenic: x^p Mono(k-p), values of every grade

    Each layer's lift (|x|^{2p} or x^p) is one product more than the last.
    """
    step = norm_squared_poly(m) if mode == "harmonic" else CliffordPoly.vector_variable(m)
    depth = 1 if mode == "monogenic" else 2
    two_sided = mode == "infra"
    lift = CliffordPoly.one(m)
    out = []
    for p in range(k // depth + 1):
        j = k - depth * p
        if mode == "harmonic":
            label, base = f"|x|^{2 * p}*Harm({grades},{j})", space_basis("harmonic", m, j, s=grades)
        elif mode == "infra":
            label, base = f"x^{p}*Infra({grades},{j})*x^{p}", space_basis("infra", m, j, s=grades)
        else:
            label, base = f"x^{p}*Mono({j})", space_basis("mono-left", m, j)
        if base.dim:
            out.append((label, image_basis(label, base, lambda v: lift * v * lift if two_sided else lift * v)))
        lift = lift * step
    return out


def classical_fischer_decompose(p: CliffordPoly, mode: str) -> DecompositionResult:
    """Towers over the classical kernels.

    harmonic:  per bigrade, powers of |x|^2 against harmonic layers.
    infra:     per bigrade, two-sided powers of x against layers killed
               by the twisted Laplacian.
    monogenic: per degree, left powers of x against monogenic layers;
               grades mix, so this tower works degree by degree.
    """
    if mode not in TOWER_MODES:
        raise ValueError(f"unknown tower mode {mode!r}")
    grade_set = frozenset(range(p.m + 1)) if mode == "monogenic" else None
    return _decompose(p, lambda m, grades, k: _tower_components(m, grades, k, mode),
                      f"{mode} tower", grade_set)


# ---------------------------------------------------------------------------
# the verification sweep


@dataclass(frozen=True)
class VerifySummary:
    m: int
    k_max: int
    theorems: tuple[str, ...]
    reports: tuple[TheoremReport, ...]
    skipped: tuple[str, ...]
    ok: bool
    budget_exceeded: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "k_max": self.k_max,
            "theorems": list(self.theorems),
            "ok": self.ok,
            "budget_exceeded": self.budget_exceeded,
            "skipped": list(self.skipped),
            "reports": [r.to_json_dict() for r in self.reports],
        }


def _failed_report(exc: TheoremViolation, theorem: str, m: int, k: int, s: int | None,
                   grades: tuple[int, ...] | None = None) -> TheoremReport:
    if exc.report is not None:
        return exc.report
    return TheoremReport(theorem=theorem, m=m, k=k, s=s, grades=grades,
                        note=exc.context, witness=exc.witness,
                        direct_sum=False, fills=False)


def verify_report(m: int, k_max: int, theorems: Iterable[str] | str = "all",
                  budget_seconds: float | None = None, seed: int = DEFAULT_SEED) -> VerifySummary:
    """Run the selected certifications for all bigrades up to k_max.

    Violations are recorded, never fatal; the sweep continues.  With a
    budget, units that would start after the deadline are reported as
    skipped, distinct from any violation.  Bad arguments raise ValueError
    before any unit runs.
    """
    _check_m(m)
    if type(k_max) is not int or k_max < 0:
        raise ValueError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if budget_seconds is not None and not budget_seconds >= 0:  # negative or NaN
        raise ValueError(f"budget_seconds must be a nonnegative number of seconds, got {budget_seconds!r}")
    if theorems == "all":
        selected = list(THEOREM_ORDER)
    else:
        selected = [theorems] if isinstance(theorems, str) else list(theorems)
        unknown = [t for t in selected if t not in THEOREM_ORDER]
        if unknown:
            raise ValueError(f"unknown theorems {unknown}; expected among {list(THEOREM_ORDER)}")
        if not selected:
            raise ValueError("theorems must name at least one theorem")
        if len(set(selected)) < len(selected):
            raise ValueError(f"theorems name a theorem more than once: {selected}")
    rng = Random(seed)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    reports: list[TheoremReport] = []
    skipped: list[str] = []

    # (theorem, unit name, k, s, grades, certification): k, s and grades
    # locate a failure that carries no report of its own
    units: list[tuple[str, str, int, int | None, tuple[int, ...] | None,
                      Callable[[], TheoremReport]]] = []

    def sample_reconstructions(theorem: str, k: int, decomposer, note: str) -> TheoremReport:
        for _ in range(SAMPLES):
            decomposer(random_poly(m, k, tuple(range(m + 1)), rng))  # raises unless it sums back
        return TheoremReport(theorem=theorem, m=m, k=k, ambient_dim=SAMPLES, direct_sum=True, fills=True,
                             note=f"{note}: {SAMPLES} random reconstructions exact")

    per_bigrade = {
        "h": h_bookkeeping_report,
        "homma": harmonic_refine,
        "infra": inframonogenic_refine,
        "infra-harmonic": harmonic_infra_intersection,
    }
    all_grades = tuple(range(m + 1))
    for theorem in selected:
        if theorem == "classical":
            for mode in TOWER_MODES:
                for k in range(k_max + 1):
                    units.append((theorem, f"classical({mode},k={k})", k, None, None,
                                  lambda mode=mode, k=k: sample_reconstructions(
                                      "classical", k, lambda p: classical_fischer_decompose(p, mode),
                                      f"{mode} tower")))
            continue
        for k in range(k_max + 1):
            if theorem in per_bigrade:
                for s in range(m + 1):
                    units.append((theorem, f"{theorem}(s={s},k={k})", k, s, None,
                                  lambda fn=per_bigrade[theorem], s=s, k=k: fn(m, s, k)))
                if theorem == "h":
                    units.append(("h", f"h-samples(k={k})", k, None, None,
                                  lambda k=k: sample_reconstructions(
                                      "h", k, fischer_h_decompose, "word decomposition")))
            elif theorem == "monogenic":
                for side in ("left", "right"):
                    units.append((theorem, f"monogenic({side},k={k})", k, None, all_grades,
                                  lambda k=k, side=side: monogenic_refine(m, k, side=side)))
            else:  # mt: every nonempty grade set
                for bits in range(1, 1 << (m + 1)):
                    subset = tuple(s for s in all_grades if bits >> s & 1)
                    units.append((theorem, f"mt(S={subset},k={k})", k, None, subset,
                                  lambda k=k, subset=subset: monogenic_refine(m, k, S=subset)))

    for theorem, name, k, s, grades, fn in units:
        if deadline is not None and time.monotonic() > deadline:
            skipped.append(name)
            continue
        try:
            reports.append(fn())
        except TheoremViolation as exc:
            reports.append(_failed_report(exc, theorem, m, k, s, grades))

    reports.sort(key=lambda r: (THEOREM_ORDER.index(r.theorem), r.k,
                                r.s if r.s is not None else -1,
                                r.grades if r.grades is not None else ()))
    ok = all(r.ok for r in reports)
    return VerifySummary(
        m=m, k_max=k_max, theorems=tuple(selected),
        reports=tuple(reports), skipped=tuple(skipped),
        ok=ok, budget_exceeded=bool(skipped),
    )
