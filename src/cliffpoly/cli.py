"""Command-line interface: bases, operator application, decomposition,
and the verification sweep, all speaking polynomial JSON.

Exit codes: 0 success, 1 theorem violation or membership failure,
2 usage error or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .decompose import (
    DEFAULT_SEED,
    THEOREM_ORDER,
    TOWER_MODES,
    classical_fischer_decompose,
    fischer_h_decompose,
    refine_decompose,
    verify_report,
)
from .multivector import MAX_GENERATORS
from .operators import OPERATORS, OmegaWord, apply_named, word_apply
from .polynomial import CliffordPoly
from .spaces import KINDS, TheoremViolation, space_basis

BUDGET_ENV = "CLIFFPOLY_BUDGET_SECONDS"

OP_NAMES = tuple(OPERATORS)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_poly(path: str) -> CliffordPoly:
    name = "standard input" if path == "-" else path
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(2, f"cannot read {name}: {e}") from None
    except UnicodeDecodeError as e:
        raise CliError(2, f"{name} is not valid UTF-8: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(2, f"malformed JSON in {name}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise CliError(2, f"unreadable JSON in {name}: {e}") from None
    except RecursionError:
        raise CliError(2, f"JSON in {name} is nested too deeply") from None
    try:
        return CliffordPoly.from_json_dict(data)
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(2, f"invalid polynomial in {name}: {e}") from None


def _json_text(value, pad: int = 0) -> str:
    """The text of json.dumps(value, indent=2), nested at pad spaces.  value is a
    JSON tree with string keys whose CliffordPoly leaves write themselves."""
    if isinstance(value, CliffordPoly):
        return value.json_text(pad)
    inner, close = "\n" + " " * (pad + 2), "\n" + " " * pad
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {_json_text(v, pad + 2)}" for key, v in value.items())
        return "{" + inner + ("," + inner).join(items) + close + "}"
    if isinstance(value, list) and value:
        return "[" + inner + ("," + inner).join(_json_text(v, pad + 2) for v in value) + close + "]"
    return json.dumps(value)


def _emit(obj, output: str | None) -> None:
    try:
        text = _json_text(obj) + "\n"
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise CliError(2, f"a result coefficient has more than {sys.get_int_max_str_digits()} digits, "
                          "the interpreter's limit for integer-string conversion, which inputs "
                          "also meet") from None
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as e:
            raise CliError(2, f"cannot write {output}: {e}") from None


def _ascii_int(text: str) -> int:
    """int(text) for ASCII text only: int() alone also reads the digits of
    other scripts.  Fails with argparse's own "invalid int value"."""
    try:
        if not text.isascii():
            raise ValueError(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_grades(text: str) -> list[int]:
    try:
        return [_ascii_int(tok) for tok in text.split(",") if tok.strip() != ""]
    except argparse.ArgumentTypeError:
        raise CliError(2, f"cannot parse grade set {text!r}; expected comma-separated integers") from None


def cmd_basis(args) -> int:
    S = _parse_grades(args.S) if args.S is not None else None
    try:
        basis = space_basis(args.kind, args.m, args.k, s=args.s, S=S)
    except ValueError as e:
        raise CliError(2, str(e)) from None
    _emit({
        "kind": args.kind,
        "m": args.m,
        "k": args.k,
        "s": args.s,
        "S": sorted(S) if S is not None else None,
        "dim": basis.dim,
        "polynomials": list(basis),
    }, args.output)
    return 0


def cmd_apply(args) -> int:
    if (args.op is None) == (args.word is None):
        raise CliError(2, "apply takes exactly one of --op and --word")
    p = _read_poly(args.input)
    if args.op is not None:
        result = apply_named(args.op, p)
    else:
        try:
            word = OmegaWord(args.word)
        except ValueError as e:
            raise CliError(2, str(e)) from None
        result = word_apply(word, p)
    _emit(result, args.output)
    return 0


def cmd_decompose(args) -> int:
    if args.theorem == "classical":
        if args.mode is None:
            raise CliError(2, "decompose --theorem classical requires --mode")
    elif args.mode is not None:
        raise CliError(2, "--mode only applies to --theorem classical")
    if args.theorem == "mt":
        if args.S is None:
            raise CliError(2, "decompose --theorem mt requires --S")
    elif args.S is not None:
        raise CliError(2, "--S only applies to --theorem mt")
    if args.side is not None and args.theorem not in ("monogenic", "mt"):
        raise CliError(2, "--side only applies to the monogenic theorems")
    p = _read_poly(args.input)
    side = args.side if args.side is not None else "left"
    if args.theorem == "h":
        result = fischer_h_decompose(p)
    elif args.theorem == "classical":
        result = classical_fischer_decompose(p, args.mode)
    else:
        S = _parse_grades(args.S) if args.S is not None else None
        try:
            result = refine_decompose(p, args.theorem, S=S, side=side)
        except ValueError as e:  # a grade set outside 0..m
            raise CliError(2, str(e)) from None
    _emit({"input": result.input, "components": result.components, "residual": result.residual},
          args.output)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.m <= MAX_GENERATORS:
        raise CliError(2, f"--m must be in 1..{MAX_GENERATORS}, got {args.m}")
    if args.kmax < 0:
        raise CliError(2, f"--kmax must be nonnegative, got {args.kmax}")
    if args.theorems == "all":
        theorems = "all"
    else:
        theorems = [tok.strip() for tok in args.theorems.split(",") if tok.strip()]
        unknown = [t for t in theorems if t not in THEOREM_ORDER]
        if unknown:
            raise CliError(2, f"unknown theorems {unknown}; expected among {list(THEOREM_ORDER)}")
        if not theorems:
            raise CliError(2, "--theorems must name at least one theorem")
        if len(set(theorems)) < len(theorems):
            raise CliError(2, f"--theorems names a theorem more than once: {theorems}")
    budget, source = args.budget_seconds, "--budget-seconds"
    if budget is None and os.environ.get(BUDGET_ENV):
        source = BUDGET_ENV
        try:
            budget = float(os.environ[BUDGET_ENV])
        except ValueError:
            raise CliError(2, f"cannot parse {BUDGET_ENV}={os.environ[BUDGET_ENV]!r}") from None
    if budget is not None and not budget >= 0:  # negative or NaN
        raise CliError(2, f"{source} must be a nonnegative number of seconds, got {budget}")
    summary = verify_report(args.m, args.kmax, theorems=theorems,
                            budget_seconds=budget, seed=args.seed)
    _emit(summary.to_json_dict(), args.output)
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffpoly",
        description="Exact Clifford polynomial algebra: bases, operators, decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="emit a canonical solution-space basis")
    p_basis.add_argument("--kind", required=True, choices=KINDS)
    p_basis.add_argument("--m", required=True, type=_ascii_int)
    p_basis.add_argument("--k", required=True, type=_ascii_int)
    p_basis.add_argument("--s", type=_ascii_int)
    p_basis.add_argument("--S", help="comma-separated grade set, e.g. 1,3")
    p_basis.add_argument("--output")
    p_basis.set_defaults(func=cmd_basis)

    p_apply = sub.add_parser("apply", help="apply an operator or pair word to a polynomial")
    p_apply.add_argument("--op", choices=OP_NAMES)
    p_apply.add_argument("--word", help="alternating word over w and d, applied right-to-left")
    p_apply.add_argument("--input", required=True, help="polynomial JSON file, or - for stdin")
    p_apply.add_argument("--output")
    p_apply.set_defaults(func=cmd_apply)

    p_dec = sub.add_parser("decompose", help="split a polynomial along a certified decomposition")
    p_dec.add_argument("--theorem", required=True, choices=THEOREM_ORDER)
    p_dec.add_argument("--input", required=True, help="polynomial JSON file, or - for stdin")
    p_dec.add_argument("--mode", choices=TOWER_MODES, help="tower for --theorem classical")
    p_dec.add_argument("--S", help="comma-separated grade set for --theorem mt")
    p_dec.add_argument("--side", choices=("left", "right"))
    p_dec.add_argument("--output")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the certification sweep")
    p_ver.add_argument("--m", required=True, type=_ascii_int)
    p_ver.add_argument("--kmax", required=True, type=_ascii_int)
    p_ver.add_argument("--theorems", default="all",
                       help="comma-separated theorem names, or all")
    p_ver.add_argument("--budget-seconds", type=float,
                       help=f"wall-clock guard; defaults to ${BUDGET_ENV} when set")
    p_ver.add_argument("--seed", type=_ascii_int, default=DEFAULT_SEED)
    p_ver.add_argument("--output")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"cliffpoly: {e.message}", file=sys.stderr)
        return e.code
    except TheoremViolation as e:
        print(f"cliffpoly: theorem violation: {e.context}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
