"""The four benchmark workloads: their inputs, operations and output checks.

Each workload builds, from its seed, a fixed list of operations (one
pass).  An operation is a call into cliffpoly's public API or its CLI
entry point; its output is checked outside the timed region with the
independent arithmetic in refalg.py and, where recorded, against the
sha256 of the output this benchmark was calibrated on.

    verify-m3     cold: one verify_report(3, 3, "all") per fresh process
    basis-m5      cold: space_basis at m=5, large sparse kernels
    decompose-m3  warm stream: decompose requests through the CLI, JSON in and out
    apply-m5      stream: operator and word requests through the CLI at m=5,
                  plus h_action by pin elements at m=4
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from random import Random

import refalg as ra

DEFAULT_SEED = 7021


class CheckFailed(Exception):
    """An operation's output is wrong."""


class Op:
    """One timed operation: run() is timed; check(result) is not and returns
    the output text whose digest identifies the result."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def cli_call(main, argv: list, stdin_text: str) -> tuple[int, str]:
    """Run the CLI entry point in-process with the given stdin; return (exit code, stdout)."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        return rc, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def parse_output(rc: int, text: str):
    require(rc == 0, f"exit code {rc}")
    return json.loads(text)


def read_poly(lib, text: str):
    """Parse polynomial JSON as the CLI does."""
    return lib.CliffordPoly.from_json_dict(json.loads(text))


def write_poly(poly) -> str:
    """Emit polynomial JSON as the CLI does."""
    return json.dumps(poly.to_json_dict(), indent=2) + "\n"


def polys_of(basis) -> list[dict]:
    return [ra.from_json(v.to_json_dict())[1] for v in basis.vectors]


# ---------------------------------------------------------------------------
# verify-m3


VERIFY_REPORTS = 148


def verify_m3(lib, seed: int) -> list[Op]:
    def run():
        return lib.verify_report(3, 3, "all", seed=seed)

    def check(summary):
        require(summary.ok, "verify summary is not ok")
        require(len(summary.reports) == VERIFY_REPORTS,
                f"{len(summary.reports)} reports, expected {VERIFY_REPORTS}")
        return json.dumps(summary.to_json_dict(), indent=2)

    return [Op("verify(m=3,kmax=3,all)", run, check)]


# ---------------------------------------------------------------------------
# basis-m5

# (kind, k, grade arguments, expected dim, defining operators).  The hodge
# (s=2, k=3; dim 154) and mono-left (k=2; dim 320) bases are left out: with
# them one cold pass takes about 10 s and a run holds too few passes for a
# steady median.
BASES = (
    ("harmonic", 3, {"s": 2}, 300, (ra.laplacian,)),
    ("infra", 3, {"s": 1}, 150, (ra.laplacian_tilde,)),
    ("two-sided", 2, {"s": 2}, 81, (ra.dirac, ra.dirac_right)),
)


def basis_m5(lib, seed: int) -> list[Op]:
    m = 5
    ops = []
    for kind, k, grade_args, dim, killers in BASES:
        def run(kind=kind, k=k, grade_args=grade_args):
            return lib.space_basis(kind, m, k, **grade_args)

        def check(basis, kind=kind, k=k, s=grade_args["s"], dim=dim, killers=killers):
            require(basis.dim == dim, f"{kind} dim {basis.dim}, expected {dim}")
            for v in polys_of(basis):
                require(v and ra.bigrades(v) == {(k, s)}, f"{kind} vector outside bigrade ({k},{s})")
                for kill in killers:
                    require(not kill(v, m), f"{kind} vector not killed by {kill.__name__}")
            return json.dumps([v.to_json_dict() for v in basis.vectors])

        ops.append(Op(f"space_basis({kind},m={m},k={k},{grade_args})", run, check))
    Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# decompose-m3


DECOMPOSE_M = 3
DECOMPOSE_DEGREES = (0, 1, 2, 3, 4)
MT_SET = (1, 3)

# (request name, CLI arguments after "decompose", kernel the input lies in)
DECOMPOSE_KINDS = (
    ("h", ["--theorem", "h"], None),
    ("homma", ["--theorem", "homma"], "harmonic"),
    ("infra", ["--theorem", "infra"], "infra"),
    ("infra-harmonic", ["--theorem", "infra-harmonic"], "intersection"),
    ("monogenic-left", ["--theorem", "monogenic", "--side", "left"], "mono-left"),
    ("monogenic-right", ["--theorem", "monogenic", "--side", "right"], "mono-right"),
    ("mt", ["--theorem", "mt", "--S", ",".join(map(str, MT_SET))], "mt"),
    ("classical-harmonic", ["--theorem", "classical", "--mode", "harmonic"], None),
    ("classical-monogenic", ["--theorem", "classical", "--mode", "monogenic"], None),
    ("classical-infra", ["--theorem", "classical", "--mode", "infra"], None),
)

# operators whose kernel each refinement's input and components lie in
KERNEL_CHECKS = {
    "harmonic": (ra.laplacian,),
    "infra": (ra.laplacian_tilde,),
    "intersection": (ra.laplacian, ra.laplacian_tilde),
    "mono-left": (ra.dirac,),
    "mono-right": (ra.dirac_right,),
    "mt": (ra.dirac,),
}


def _kernel_basis(lib, kernel: str, k: int) -> list[dict]:
    """Certified basis polynomials of the kernel at degree k, all grades."""
    m = DECOMPOSE_M
    if kernel in ("harmonic", "infra"):
        return [v for s in range(m + 1) for v in polys_of(lib.space_basis(kernel, m, k, s=s))]
    if kernel == "intersection":
        out = []
        for s in range(m + 1):
            out += polys_of(lib.hodge_space(m, s, k))
            if k >= 1:
                if s >= 1:
                    out += polys_of(lib.component_space("w", m, s - 1, k - 1))
                if s <= m - 1:
                    out += polys_of(lib.component_space("d", m, s + 1, k - 1))
        return out
    if kernel in ("mono-left", "mono-right"):
        return polys_of(lib.space_basis(kernel, m, k))
    if kernel == "mt":
        return polys_of(lib.space_basis("mono-left", m, k, S=MT_SET))
    raise ValueError(kernel)


def _component_degree_grade(label: str):
    """(degree, grade) a label of the h decomposition or a tower implies, or None."""
    head, _, body = label.partition("*")
    if body.startswith("H("):  # word*H(s,k)
        s2, k2 = map(int, body[2:-1].split(","))
        word = "" if head == "1" else head
        return len(word) + k2, s2 + word.count("w") - word.count("d")
    if body.startswith(("Harm(", "Infra(")):  # |x|^2p*Harm(s,j) or x^p*Infra(s,j)*x^p
        s2, j = map(int, body[body.index("(") + 1:body.index(")")].split(","))
        p = int(head.split("^")[1])
        return (p if head.startswith("|x|") else 2 * p) + j, s2
    if body.startswith("Mono("):  # x^q*Mono(j), values of every grade
        return int(head.split("^")[1]) + int(body[5:-1]), None
    return None


def _decompose_check(kernel, given: dict):
    m = DECOMPOSE_M

    def check(result):
        data = parse_output(*result)
        _, inp = ra.from_json(data["input"])
        _, residual = ra.from_json(data["residual"])
        require(inp == given, "decomposition input differs from the request")
        require(not residual, "nonzero residual")
        parts = {label: ra.from_json(c)[1] for label, c in data["components"].items()}
        require(ra.add(*parts.values()) == inp, "components do not sum back to the input")
        for label, part in parts.items():
            require(part, f"empty component {label}")
            if kernel is None:
                shape = _component_degree_grade(label)
                require(shape is not None, f"unrecognised component label {label}")
                degree, grade = shape
                require(all(k == degree and grade in (None, s) for k, s in ra.bigrades(part)),
                        f"component {label} outside its bigrade")
            else:
                for kill in KERNEL_CHECKS[kernel]:
                    require(not kill(part, m), f"component {label} not killed by {kill.__name__}")
                if kernel == "mt":
                    require(all(s in MT_SET for _, s in ra.bigrades(part)), f"component {label} outside S")
        return result[1]

    return check


def decompose_m3(lib, seed: int) -> list[Op]:
    """One request per (kind, degree); inputs are seeded members of each kernel."""
    from cliffpoly.cli import main

    m = DECOMPOSE_M
    rng = Random(seed)
    ops = []
    for name, args, kernel in DECOMPOSE_KINDS:
        for k in DECOMPOSE_DEGREES:
            if kernel is None:
                poly = ra.random_poly(m, (k,), range(m + 1), 12 + 6 * k, rng)
            else:
                poly = ra.random_combination(_kernel_basis(lib, kernel, k), rng)
            text = ra.dumps(poly, m)
            argv = ["decompose", *args, "--input", "-"]
            ops.append(Op(f"decompose {name} k={k}", lambda argv=argv, text=text: cli_call(main, argv, text),
                          _decompose_check(kernel, poly)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# apply-m5


APPLY_M = 5
APPLY_DEGREES = (3, 4)
APPLY_TERMS = 1000
OP_NAMES = (
    "dplus", "dminus", "xwedge", "xdot", "xfull",
    "dirac", "dirac-right", "dirac-tilde",
    "laplacian", "laplacian-tilde",
    "euler", "ferm-plus", "ferm-minus",
    "A", "B", "X", "X-tilde", "sandwich-x",
)
WORDS = ("wd", "dw")
# h_action requests at m=4: (degree, terms, planes of the unit-vector factors)
PIN_M = 4
PIN_REQUESTS = (
    (3, 200, ((0, 2), (1, 3), (2, 3))),
    (4, 330, ((0, 1),)),
)


def _reference_op(name: str, p: dict, m: int) -> dict:
    """One --op or --word of the apply command on p, from the defining formulas."""
    if name.startswith("word "):
        return ra.word(name[len("word "):], p, m)
    formulas = {
        "dplus": lambda: ra.dplus(p, m),
        "dminus": lambda: ra.dminus(p, m),
        "xwedge": lambda: ra.xwedge(p, m),
        "xdot": lambda: ra.xdot(p, m),
        "xfull": lambda: ra.add(ref("xwedge"), ref("xdot")),
        "dirac": lambda: ra.add(ref("dplus"), ref("dminus")),
        "dirac-right": lambda: ra.dirac_right(p, m),
        "dirac-tilde": lambda: ra.add(ref("dplus"), ref("dminus"), signs=(1, -1)),
        "laplacian": lambda: ra.add(ra.dplus(ref("dminus"), m), ra.dminus(ref("dplus"), m), signs=(-1, -1)),
        "laplacian-tilde": lambda: ra.add(ra.dplus(ref("dminus"), m), ra.dminus(ref("dplus"), m), signs=(-1, 1)),
        "euler": lambda: ra.scale_terms(p, lambda alpha, mask: sum(alpha)),
        "ferm-plus": lambda: ra.scale_terms(p, lambda alpha, mask: mask.bit_count()),
        "ferm-minus": lambda: ra.scale_terms(p, lambda alpha, mask: m - mask.bit_count()),
        "A": lambda: ra.add(ref("euler"), ref("ferm-plus")),
        "B": lambda: ra.add(ref("euler"), ref("ferm-minus")),
        "X": lambda: ra.add(ra.xwedge(ref("A"), m), ra.xdot(ref("B"), m), signs=(1, -1)),
        "X-tilde": lambda: ra.add(ra.xwedge(ref("A"), m), ra.xdot(ref("B"), m)),
        "sandwich-x": lambda: ra.vector_action(ref("xfull"), m, False, side="R"),
    }

    def ref(n: str) -> dict:
        return formulas[n]()

    return ref(name)


def _pin_check(factors: list, given: dict, point: list):
    """r . P evaluated at a point equals r P(r^-1 x r) r^-1, computed directly."""
    m = PIN_M
    r = {0: Fraction(1)}
    for u in factors:
        r = ra.mv_mul(r, u)
    r_inv = {0: Fraction(1) if len(factors) % 2 == 0 else Fraction(-1)}
    for u in reversed(factors):
        r_inv = ra.mv_mul(r_inv, u)
    x = {1 << j: c for j, c in enumerate(point)}
    y = ra.mv_mul(ra.mv_mul(r_inv, x), r)
    y_point = [y.get(1 << j, Fraction(0)) for j in range(m)]
    expected = ra.mv_mul(ra.mv_mul(r, ra.evaluate(given, y_point)), r_inv)

    def check(text):
        out_m, out = ra.from_json(json.loads(text))
        require(out_m == m, "h_action output in the wrong algebra")
        require(ra.bigrades(out) <= ra.bigrades(given), "h_action left the input bigrades")
        require(ra.evaluate(out, point) == expected, "h_action value at the check point is wrong")
        return text

    return check


def apply_m5(lib, seed: int) -> list[Op]:
    from cliffpoly.cli import main

    m = APPLY_M
    rng = Random(seed)
    poly = ra.random_poly(m, APPLY_DEGREES, range(m + 1), APPLY_TERMS, rng)
    text = ra.dumps(poly, m)

    ops = []
    requests = [(op, ["--op", op]) for op in OP_NAMES] + [(f"word {w}", ["--word", w]) for w in WORDS]
    for name, args in requests:
        def check(result, name=name):
            out_m, out = ra.from_json(parse_output(*result))
            require(out_m == m and out == _reference_op(name, poly, m), f"apply {name} output is wrong")
            return result[1]

        argv = ["apply", *args, "--input", "-"]
        ops.append(Op(f"apply {name}", lambda argv=argv: cli_call(main, argv, text), check))

    for i, (k, nterms, planes) in enumerate(PIN_REQUESTS):
        given = ra.random_poly(PIN_M, (k,), range(PIN_M + 1), nterms, rng)
        factors = [ra.unit_vector(a, b, rng) for a, b in planes]
        point = [ra.rational(rng) for _ in range(PIN_M)]
        pin_text = ra.dumps(given, PIN_M)

        def run(pin_text=pin_text, factors=factors):
            p = read_poly(lib, pin_text)
            r = lib.PinElement([lib.Multivector(PIN_M, u) for u in factors])
            return write_poly(lib.h_action(r, p))

        ops.append(Op(f"h_action #{i} k={k} factors={len(planes)}", run, _pin_check(factors, given, point)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    # name: (operation list maker, cold, warm-up pass in set-up, output digests depend on the seed)
    "verify-m3": (verify_m3, True, False, False),
    "basis-m5": (basis_m5, True, False, False),
    "decompose-m3": (decompose_m3, False, True, True),
    "apply-m5": (apply_m5, False, False, True),
}
