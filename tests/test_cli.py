"""Command-line behavior: contracts, exit codes, and byte stability."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from cliffpoly.cli import main
from cliffpoly.polynomial import CliffordPoly

X1_SQUARED = {"m": 3, "terms": [{"alpha": [2, 0, 0], "blade": [], "coeff": "1"}]}


@pytest.fixture
def x1sq_file(tmp_path):
    path = tmp_path / "x1sq.json"
    path.write_text(json.dumps(X1_SQUARED))
    return str(path)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses its own arguments this way
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# basis


def test_basis_hodge_dim5(capsys):
    code, out, _ = run_cli(capsys, "basis", "--kind", "hodge", "--m", "3", "--s", "1", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 5
    assert len(data["polynomials"]) == 5
    for poly in data["polynomials"]:
        CliffordPoly.from_json_dict(poly)  # round-trips through the reader


def test_basis_requires_grade(capsys):
    code, _, err = run_cli(capsys, "basis", "--kind", "hodge", "--m", "3", "--k", "1")
    assert code == 2
    assert "grade" in err


def test_basis_mono_S(capsys):
    code, out, _ = run_cli(capsys, "basis", "--kind", "mono-S", "--m", "3", "--k", "1", "--S", "1,3")
    assert code == 0
    assert json.loads(out)["dim"] == 8


@pytest.mark.parametrize("m", ["0", "9", "26"])
def test_basis_rejects_out_of_range_m(capsys, m):
    code, out, err = run_cli(capsys, "basis", "--kind", "hodge", "--m", m, "--k", "1", "--s", "0")
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: ") and "1..8" in err


def test_basis_output_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    code, out, _ = run_cli(capsys, "basis", "--kind", "harmonic", "--m", "2", "--s", "0",
                           "--k", "2", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 2


# ---------------------------------------------------------------------------
# apply


def test_apply_laplacian_worked_example(capsys, x1sq_file):
    code, out, _ = run_cli(capsys, "apply", "--op", "laplacian", "--input", x1sq_file)
    assert code == 0
    got = CliffordPoly.from_json_dict(json.loads(out))
    assert got == CliffordPoly.one(3).scale(2)


def test_apply_word(capsys, x1sq_file):
    code, out, _ = run_cli(capsys, "apply", "--word", "dw", "--input", x1sq_file)
    assert code == 0
    got = CliffordPoly.from_json_dict(json.loads(out))
    assert got.bigrade() == (4, 0)


def test_apply_needs_exactly_one_action(capsys, x1sq_file):
    code, _, err = run_cli(capsys, "apply", "--input", x1sq_file)
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "apply", "--op", "dirac", "--word", "w", "--input", x1sq_file)
    assert code == 2


def test_apply_bad_word(capsys, x1sq_file):
    code, _, err = run_cli(capsys, "apply", "--word", "ww", "--input", x1sq_file)
    assert code == 2 and "alternate" in err


def test_apply_every_named_operator(capsys, x1sq_file):
    from cliffpoly.cli import OP_NAMES
    for name in OP_NAMES:
        code, out, _ = run_cli(capsys, "apply", "--op", name, "--input", x1sq_file)
        assert code == 0, name
        CliffordPoly.from_json_dict(json.loads(out))


def test_apply_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(X1_SQUARED)))
    code, out, _ = run_cli(capsys, "apply", "--op", "euler", "--input", "-")
    assert code == 0
    got = CliffordPoly.from_json_dict(json.loads(out))
    assert got == CliffordPoly.monomial(3, (2, 0, 0), 0, 2)


def test_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 3,\n  "terms": [}')
    code, _, err = run_cli(capsys, "apply", "--op", "dirac", "--input", str(bad))
    assert code == 2
    assert "line 2" in err and "column" in err


def test_float_coefficient_rejected(capsys, tmp_path):
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps({"m": 2, "terms": [{"alpha": [1, 0], "blade": [], "coeff": "0.5"}]}))
    code, _, err = run_cli(capsys, "apply", "--op", "dirac", "--input", str(bad))
    assert code == 2 and "rational" in err


@pytest.mark.parametrize("doc, needle", [
    ({"m": True, "terms": []}, "generators"),
    ({"m": 1, "terms": [{"alpha": [True], "blade": [], "coeff": "1"}]}, "multi-index"),
    ({"m": 1, "terms": [{"alpha": [1], "blade": [True], "coeff": "1"}]}, "blade index"),
    ({"m": 1, "terms": [{"alpha": [1], "blade": [], "coeff": "\u0663/\u0662"}]}, "rational"),
    ({"m": 1, "terms": [{"alpha": [1], "blade": [], "coeff": "1/\u0662"}]}, "rational"),
    # command-line integers, like JSON ones, are ASCII digits only
    (("verify", "--m", "\u0663", "--kmax", "1"), "invalid int value"),
    (("verify", "--m", "2", "--kmax", "\u0661"), "invalid int value"),
    (("verify", "--m", "2", "--kmax", "1", "--seed", "\u0667"), "invalid int value"),
    (("basis", "--kind", "hodge", "--m", "\u0662", "--k", "1", "--s", "1"), "invalid int value"),
    (("basis", "--kind", "hodge", "--m", "2", "--k", "\u0661", "--s", "1"), "invalid int value"),
    (("basis", "--kind", "hodge", "--m", "2", "--k", "1", "--s", "\u0661"), "invalid int value"),
    (("basis", "--kind", "hodge", "--m", "2", "--k", "1", "--s", "one"), "invalid int value"),
    (("basis", "--kind", "mono-S", "--m", "3", "--k", "1", "--S", "\u0661,\u0663"), "grade set"),
])
def test_booleans_and_non_ascii_digits_rejected(capsys, tmp_path, doc, needle):
    """doc is a polynomial fed to apply, or a whole command line."""
    if isinstance(doc, dict):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        doc = ("apply", "--op", "dirac", "--input", str(bad))
    code, out, err = run_cli(capsys, *doc)
    assert code == 2 and out == ""
    assert needle in err


@pytest.mark.parametrize("text", [
    '{"m": ' + "9" * 5001 + ', "terms": []}',
    '{"m": 1, "terms": [{"alpha": [' + "1" * 5001 + '], "blade": [], "coeff": "1"}]}',
], ids=["m", "alpha"])
def test_over_long_json_integer_rejected(capsys, tmp_path, text):
    # json.loads refuses an integer literal past the interpreter's digit limit
    bad = tmp_path / "long.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "apply", "--op", "dirac", "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: ")


def test_missing_input_file(capsys):
    code, _, err = run_cli(capsys, "apply", "--op", "dirac", "--input", "/no/such/file.json")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("from_stdin", [False, True])
def test_input_not_utf8(capsys, monkeypatch, tmp_path, from_stdin):
    raw = b'{"m": 1, "terms": [\xff]}'
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        source = "-"
    else:
        bad = tmp_path / "latin1.json"
        bad.write_bytes(raw)
        source = str(bad)
    code, out, err = run_cli(capsys, "apply", "--op", "dirac", "--input", source)
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: ") and "UTF-8" in err


def test_input_nested_too_deeply(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000))
    code, out, err = run_cli(capsys, "apply", "--op", "dirac", "--input", "-")
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: ")


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "dplus", "--input", "{input}"),
    ("decompose", "--theorem", "h", "--input", "{input}"),
    ("basis", "--kind", "hodge", "--m", "2", "--s", "1", "--k", "1"),
    ("verify", "--m", "1", "--kmax", "1"),
])
def test_unwritable_output(capsys, x1sq_file, tmp_path, argv):
    target = tmp_path / "no" / "such" / "dir" / "o.json"
    argv = [a.replace("{input}", x1sq_file) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: cannot write")


# The CLI's only check on a polynomial is CliffordPoly.from_json_dict:
# whatever arrives, apply exits 0 with output that reads back and
# re-emits byte for byte, or exits 2 with a message; it never raises.

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-2, 9)
index_lists = st.lists(small_ints | st.booleans(), max_size=4)
rationals = st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True)
coefficients = st.one_of(
    rationals,
    st.sampled_from(["0", "-0", "1/0", "0.5", "1e3", " 1", "+1", "--1", "\u0663", "1/-2", ""]),
    json_values,
)
terms = st.fixed_dictionaries(
    {"alpha": index_lists | json_values, "blade": index_lists | json_values, "coeff": coefficients})
polynomials = st.fixed_dictionaries(
    {}, optional={"m": small_ints | json_values, "terms": st.lists(terms, max_size=5) | json_values})


@st.composite
def near_valid_polynomials(draw):
    m = draw(st.integers(1, 3))
    term = st.fixed_dictionaries({
        "alpha": st.lists(st.integers(0, 3), min_size=m, max_size=m),
        "blade": st.sets(st.integers(1, m)).map(sorted),
        "coeff": rationals | coefficients,
    })
    return {"m": m, "terms": draw(st.lists(term, max_size=5))}


raw_inputs = st.one_of(
    near_valid_polynomials().map(json.dumps).map(str.encode),
    polynomials.map(json.dumps).map(str.encode),
    json_values.map(json.dumps).map(str.encode),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=20),
)


def apply_euler_on(raw: bytes) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["apply", "--op", "euler", "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(raw_inputs)
def test_apply_boundary_fuzz(raw):
    code, out, err = apply_euler_on(raw)
    if code == 0:
        assert err == ""
        back = CliffordPoly.from_json_dict(json.loads(out))
        assert json.dumps(back.to_json_dict(), indent=2) + "\n" == out
    else:
        assert code == 2 and out == ""
        assert err.startswith("cliffpoly: ")


def test_apply_boundary_fuzz_accepts_valid_input():
    # the fuzz's success branch is reachable, and duplicate keys merge
    raw = json.dumps({"m": 2, "terms": [
        {"alpha": [1, 0], "blade": [2], "coeff": "1/2"},
        {"alpha": [1, 0], "blade": [2], "coeff": "-3"},
        {"alpha": [0, 2], "blade": [], "coeff": "0"},
    ]}).encode()
    code, out, _ = apply_euler_on(raw)
    assert code == 0
    assert json.loads(out)["terms"] == [{"alpha": [1, 0], "blade": [2], "coeff": "-5/2"}]


# ---------------------------------------------------------------------------
# decompose


def test_decompose_h(capsys, tmp_path):
    path = tmp_path / "x1.json"
    path.write_text(json.dumps({"m": 3, "terms": [{"alpha": [1, 0, 0], "blade": [], "coeff": "1"}]}))
    code, out, _ = run_cli(capsys, "decompose", "--theorem", "h", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert list(data["components"]) == ["d*H(1,0)"]
    assert data["residual"] == {"m": 3, "terms": []}
    total = CliffordPoly.from_json_dict(data["residual"])
    for part in data["components"].values():
        total = total + CliffordPoly.from_json_dict(part)
    assert total == CliffordPoly.from_json_dict(data["input"])


def test_decompose_membership_failure_exits_1(capsys, x1sq_file):
    code, _, err = run_cli(capsys, "decompose", "--theorem", "homma", "--input", x1sq_file)
    assert code == 1
    assert "theorem violation" in err


def test_decompose_classical_modes(capsys, x1sq_file):
    for mode in ("harmonic", "monogenic", "infra"):
        code, out, _ = run_cli(capsys, "decompose", "--theorem", "classical",
                               "--mode", mode, "--input", x1sq_file)
        assert code == 0, mode
        data = json.loads(out)
        assert data["components"]


def test_decompose_flag_validation(capsys, x1sq_file):
    cases = [
        ("classical",),                          # missing --mode
        ("h", "--mode", "harmonic"),             # --mode misapplied
        ("mt",),                                 # missing --S
        ("homma", "--S", "1"),                   # --S misapplied
        ("h", "--side", "left"),                 # --side misapplied
    ]
    for theorem, *extra in cases:
        code, _, err = run_cli(capsys, "decompose", "--theorem", theorem,
                               "--input", x1sq_file, *extra)
        assert code == 2, (theorem, extra)


def test_decompose_mt(capsys, tmp_path):
    from cliffpoly.spaces import space_basis
    member = space_basis("mono-S", 3, 1, S={1, 3}).vectors[0]
    path = tmp_path / "member.json"
    path.write_text(json.dumps(member.to_json_dict()))
    code, out, _ = run_cli(capsys, "decompose", "--theorem", "mt", "--S", "1,3",
                           "--input", str(path))
    assert code == 0
    assert json.loads(out)["components"]


@pytest.mark.parametrize("grades", ["7", "", "1,9"])
def test_decompose_mt_rejects_bad_grade_sets(capsys, tmp_path, x1sq_file, grades):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"m": 3, "terms": []}))
    for path in (str(zero), x1sq_file):
        code, out, err = run_cli(capsys, "decompose", "--theorem", "mt", "--S", grades, "--input", path)
        assert (code, out) == (2, ""), (grades, path)
        assert "grade" in err


def test_decompose_byte_identical(capsys, x1sq_file):
    _, out1, _ = run_cli(capsys, "decompose", "--theorem", "classical", "--mode", "harmonic",
                         "--input", x1sq_file)
    _, out2, _ = run_cli(capsys, "decompose", "--theorem", "classical", "--mode", "harmonic",
                         "--input", x1sq_file)
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify


def test_verify_small_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["budget_exceeded"] is False
    assert data["reports"]


def test_verify_theorem_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "2", "--theorems", "h,homma")
    assert code == 0
    data = json.loads(out)
    assert {r["theorem"] for r in data["reports"]} == {"h", "homma"}


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--kmax", "1", "--theorems", "fourier")
    assert code == 2 and "unknown theorems" in err


def test_verify_budget_zero_still_succeeds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "2", "--budget-seconds", "0")
    assert code == 0
    data = json.loads(out)
    assert data["budget_exceeded"] is True
    assert data["skipped"]


def test_verify_budget_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFPOLY_BUDGET_SECONDS", "0")
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "2")
    assert code == 0
    assert json.loads(out)["budget_exceeded"] is True
    monkeypatch.setenv("CLIFFPOLY_BUDGET_SECONDS", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--kmax", "1")
    assert code == 2


def test_verify_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "2", "--theorems", "h")
    _, out2, _ = run_cli(capsys, "verify", "--m", "2", "--kmax", "2", "--theorems", "h")
    assert out1 == out2


# ---------------------------------------------------------------------------
# the installed entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cliffpoly.cli", "basis", "--kind", "hodge",
         "--m", "2", "--s", "1", "--k", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "cliffpoly.cli", "basis", "--kind", "bogus",
         "--m", "2", "--s", "1", "--k", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, budget_env", [
    (("--m", "9", "--kmax", "1"), None),
    (("--m", "0", "--kmax", "1"), None),
    (("--m", "2", "--kmax", "-1"), None),
    (("--m", "2", "--kmax", "1", "--budget-seconds", "nan"), None),
    (("--m", "2", "--kmax", "1"), "nan"),
    (("--m", "2", "--kmax", "1", "--budget-seconds", "-1"), None),
    (("--m", "2", "--kmax", "1", "--budget-seconds", "-0.5"), None),
    (("--m", "2", "--kmax", "1"), "-1"),
    (("--m", "2", "--kmax", "0", "--theorems", "h,h"), None),
])
def test_verify_rejects_bad_bounds(capsys, monkeypatch, argv, budget_env):
    if budget_env is None:
        monkeypatch.delenv("CLIFFPOLY_BUDGET_SECONDS", raising=False)
    else:
        monkeypatch.setenv("CLIFFPOLY_BUDGET_SECONDS", budget_env)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("cliffpoly: ")
