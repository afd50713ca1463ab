"""The CLI's polynomial JSON writer: its bytes equal json.dumps(..., indent=2).

`CliffordPoly.json_text` writes a polynomial straight from its sorted
terms, and the CLI nests it inside the apply, decompose and basis
envelopes.  `to_json_dict` with `json.dumps` is the oracle throughout.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffpoly.cli import _json_text, main
from cliffpoly.multivector import MAX_GENERATORS
from cliffpoly.polynomial import CliffordPoly


def nested(value, pad: int) -> str:
    """json.dumps(value, indent=2) as it reads nested at pad spaces."""
    return json.dumps(value, indent=2).replace("\n", "\n" + " " * pad)


coefficients = st.builds(
    Fraction,
    st.integers(-10**40, 10**40).filter(bool) | st.integers(-9, 9).filter(bool),
    st.integers(1, 10**30) | st.integers(1, 12),
)


@st.composite
def polys(draw):
    m = draw(st.integers(1, MAX_GENERATORS))
    key = st.tuples(
        st.lists(st.integers(0, 4), min_size=m, max_size=m).map(tuple),
        st.just(0) | st.integers(0, (1 << m) - 1),  # the scalar blade [] often
    )
    return CliffordPoly(m, draw(st.dictionaries(key, coefficients, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(polys(), st.integers(0, 12))
def test_json_text_is_json_dumps(p, pad):
    assert p.json_text(pad) == nested(p.to_json_dict(), pad)


@settings(max_examples=50, deadline=None)
@given(st.lists(polys(), max_size=3), st.text(max_size=4))
def test_envelope_text_is_json_dumps(ps, label):
    envelope = {"labels": {label: None, "e": [1, "-2"]}, "S": [], "polys": ps,
                "by_label": {str(i): p for i, p in enumerate(ps)}, "none": {}}
    assert _json_text(envelope) == json.dumps(envelope, indent=2, default=CliffordPoly.to_json_dict)


def test_zero_and_scalar_blade():
    for p in (CliffordPoly.zero(3), CliffordPoly.monomial(1, (0,), 0, Fraction(-7, 3)),
              CliffordPoly.monomial(8, (0,) * 7 + (11,), 255, 10**50)):
        for pad in (0, 2, 6):
            assert p.json_text(pad) == nested(p.to_json_dict(), pad)


# ---------------------------------------------------------------------------
# --output writes the bytes that stdout gets


MIXED = {"m": 3, "terms": [
    {"alpha": [2, 0, 1], "blade": [1, 3], "coeff": "-5/2"},
    {"alpha": [0, 1, 0], "blade": [], "coeff": "7"},
    {"alpha": [1, 0, 0], "blade": [2], "coeff": "1/3"},
]}


@pytest.mark.parametrize("argv", [
    ("apply", "--op", "dirac", "--input", "{input}"),
    ("apply", "--word", "dw", "--input", "{input}"),
    ("decompose", "--theorem", "h", "--input", "{input}"),
    ("basis", "--kind", "mono-left", "--m", "3", "--k", "2", "--S", "1,3"),
    ("basis", "--kind", "harmonic", "--m", "2", "--s", "0", "--k", "0"),
])
def test_output_file_bytes_equal_stdout(capsys, tmp_path, argv):
    source = tmp_path / "in.json"
    source.write_text(json.dumps(MIXED))
    argv = [a.replace("{input}", str(source)) for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out.json"
    assert main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode()
    assert stdout.endswith("}\n") and json.loads(stdout)


# ---------------------------------------------------------------------------
# the interpreter's digit limit, on the way in and on the way out


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter sets no integer-string digit limit")
def test_result_coefficient_past_digit_limit_exits_2(capsys, monkeypatch, tmp_path):
    limit = sys.get_int_max_str_digits()
    source = tmp_path / "nines.json"
    # euler multiplies the degree-10 term by 10: one digit more than the input
    source.write_text(json.dumps({"m": 1, "terms": [{"alpha": [10], "blade": [], "coeff": "9" * limit}]}))
    code = main(["apply", "--op", "euler", "--input", str(source)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("cliffpoly: ") and "Traceback" not in err
    assert "result coefficient" in err and str(limit) in err
    # the input one digit over the limit meets the same limit
    source.write_text(json.dumps({"m": 1, "terms": [{"alpha": [1], "blade": [], "coeff": "9" * (limit + 1)}]}))
    code = main(["apply", "--op", "euler", "--input", str(source)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and str(limit) in err
