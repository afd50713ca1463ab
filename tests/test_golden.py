"""Golden CLI outputs: the sha256 of exit code and stdout for a fixed,
seeded set of commands.

Every byte the CLI writes for these commands is pinned, so a refactor
that changes any certificate, label, coefficient or ordering fails here.
Update a digest only for an intended change of output.
"""

import hashlib
import json
import sys
from fractions import Fraction
from random import Random

from cliffpoly.cli import OP_NAMES, main
from cliffpoly.polynomial import CliffordPoly, monomial_keys
from cliffpoly.spaces import component_space, hodge_space, space_basis

SEED = 5120
M = 3
ALL_GRADES = tuple(range(M + 1))


def _sparse_poly(rng, k) -> CliffordPoly:
    """A seeded degree-k polynomial over all grades with a coefficient on
    about 30% of the monomials, drawn as random_poly draws its 60%; the
    pinned "mixed" input is built from these."""
    terms = {}
    for key in monomial_keys(M, ALL_GRADES, k):
        if rng.random() < 0.3:
            num, den = rng.randint(-9, 9), rng.choice((1, 1, 2, 3))
            if num:
                terms[key] = Fraction(num, den)
    return CliffordPoly(M, terms)


def _combination(rng, bases) -> CliffordPoly:
    out = CliffordPoly.zero(M)
    for basis in bases:
        for v in basis:
            out = out + v.scale(rng.randint(-3, 3))
    return out


def _bigraded_members(rng, build) -> CliffordPoly:
    return _combination(rng, [b for k in range(4) for s in ALL_GRADES for b in build(s, k)])


def _inputs() -> dict[str, CliffordPoly]:
    rng = Random(SEED)
    mixed = CliffordPoly.zero(M)
    for k in range(4):
        mixed = mixed + _sparse_poly(rng, k)
    return {
        "mixed": mixed,
        "homma": _bigraded_members(rng, lambda s, k: [space_basis("harmonic", M, k, s=s)]),
        "infra": _bigraded_members(rng, lambda s, k: [space_basis("infra", M, k, s=s)]),
        "infra-harmonic": _bigraded_members(rng, lambda s, k: [
            hodge_space(M, s, k), component_space("w", M, s - 1, k - 1),
            component_space("d", M, s + 1, k - 1)]),
        "mono-left": _combination(rng, [space_basis("mono-left", M, k) for k in range(4)]),
        "mono-right": _combination(rng, [space_basis("mono-right", M, k) for k in range(4)]),
        "mt-left": _combination(rng, [space_basis("mono-left", M, k, S={1, 3}) for k in range(4)]),
        "mt-right": _combination(rng, [space_basis("mono-right", M, k, S={1, 3}) for k in range(4)]),
        "x1sq": CliffordPoly.monomial(M, (2, 0, 0), 0),
        "zero": CliffordPoly.zero(M),
    }


# (case name, input name or None, argv after the input); digests of "<exit code>\n<stdout>"
CASES = (
    ("verify-m3-k2", None, ("verify", "--m", "3", "--kmax", "2")),
    ("verify-m2-k3", None, ("verify", "--m", "2", "--kmax", "3")),
    ("verify-m4-k3", None, ("verify", "--m", "4", "--kmax", "3")),
    *((f"apply-op-{name}", "mixed", ("apply", "--op", name)) for name in OP_NAMES),
    *((f"apply-word-{w}", "mixed", ("apply", "--word", w)) for w in ("w", "d", "wd", "dw", "wdw")),
    ("decompose-h", "mixed", ("decompose", "--theorem", "h")),
    ("decompose-homma", "homma", ("decompose", "--theorem", "homma")),
    ("decompose-infra", "infra", ("decompose", "--theorem", "infra")),
    ("decompose-infra-harmonic", "infra-harmonic", ("decompose", "--theorem", "infra-harmonic")),
    ("decompose-monogenic-left", "mono-left", ("decompose", "--theorem", "monogenic")),
    ("decompose-monogenic-right", "mono-right",
     ("decompose", "--theorem", "monogenic", "--side", "right")),
    ("decompose-mt-left", "mt-left", ("decompose", "--theorem", "mt", "--S", "1,3")),
    ("decompose-mt-right", "mt-right",
     ("decompose", "--theorem", "mt", "--S", "1,3", "--side", "right")),
    *((f"decompose-classical-{mode}", "mixed", ("decompose", "--theorem", "classical", "--mode", mode))
      for mode in ("harmonic", "monogenic", "infra")),
    ("decompose-homma-nonmember", "x1sq", ("decompose", "--theorem", "homma")),
    ("apply-zero", "zero", ("apply", "--op", "dirac")),
    ("basis-hodge-s1-k1", None, ("basis", "--kind", "hodge", "--m", "3", "--s", "1", "--k", "1")),
    ("basis-harmonic-s1-k2", None, ("basis", "--kind", "harmonic", "--m", "3", "--s", "1", "--k", "2")),
    ("basis-mono-left-S13-k2", None, ("basis", "--kind", "mono-left", "--m", "3", "--k", "2", "--S", "1,3")),
    ("basis-two-sided-s2-k1", None, ("basis", "--kind", "two-sided", "--m", "3", "--s", "2", "--k", "1")),
    ("help-apply", None, ("apply", "--help")),
    ("help-decompose", None, ("decompose", "--help")),
)

DIGESTS = {
    "verify-m3-k2": "ee6cb4c9da0ca577f868ea37813db9284f69c435d149f5b630cfe312f2545176",
    "verify-m2-k3": "8ae41210f3d0ac016dd788cd9129533dc92e05c22e1879d66de81bf1cf83f6ee",
    "verify-m4-k3": "5fd907995ae0e04793376ea401c4d18f2672e2979e2b2a457e96859e2355edc2",
    "apply-op-dplus": "ac38d94fd82d93dca79caae69044a5fd3d23b78d8381c838640cd7c5eeaa00b7",
    "apply-op-dminus": "c6a48281007e33a2f4a23aee68243d20e90947d28e31ae6143ede3b955799770",
    "apply-op-xwedge": "34862a3a916ad50a41483612296d272db4298a7fbb2e9482a05702b0af5edc8f",
    "apply-op-xdot": "678926d2f8e5cd35d0fe02ecc8e7c9d04985d0ca20c414a337f2ff2805100f6d",
    "apply-op-xfull": "b00f711963d1f2ffe6998b263c742ff213fa7560c580d6c2ed8ce67bce6aac15",
    "apply-op-dirac": "c9b7aea51020ea2c1c32ae5f16047bedd57de6028e3804ccc9e7518b4ec44180",
    "apply-op-dirac-right": "e2f9f92ee58c30e75ecd48d4625ba25a27394e1209b96fb625bda1aa84482f13",
    "apply-op-dirac-tilde": "263b98e71900289a44729bae07d0a0a690b66f216a23cc403bdeb6dab43c07ef",
    "apply-op-laplacian": "1e25f4869d7f20bdfd38ee39a1336d00c7d68ca351bdc2693c3ad43343fbe69f",
    "apply-op-laplacian-tilde": "b10654e06c87fdeaba4b9b098228d73c32e69e4bc032422e86a87c8afd215e52",
    "apply-op-euler": "13e333f527ed4b3910e6057bbe6fec0f30a2cca851ce32b86fd12abd26a9acca",
    "apply-op-ferm-plus": "86212f433351d29e1376940469d19b0cd1a74ef68154722bf6f5e8b5fa255c1f",
    "apply-op-ferm-minus": "85e823e99c1dbc418db11294b85b22314073d4af11b66b2d8f329e1252f41f1e",
    "apply-op-A": "b20e0b4a9490b6046427d7644e2748deacd1d46ff84869824fd54d7f00f85fa4",
    "apply-op-B": "a252b1dea510fee3abda31075e713d15747e77efb0a2a09871a7c9caac01f213",
    "apply-op-X": "cb136e1b1ec986833ad10e20e447660ec0af8a9cc2e9cfd60eebc53da40d8b8d",
    "apply-op-X-tilde": "a19397c2c43bef4bea93dae836595554585708c9bf614050c91341b7cdc03c59",
    "apply-op-sandwich-x": "024982e851b1a540de3560ec124d2c98f8e5123ff090f5df30f33c4c9d831a67",
    "apply-word-w": "34862a3a916ad50a41483612296d272db4298a7fbb2e9482a05702b0af5edc8f",
    "apply-word-d": "678926d2f8e5cd35d0fe02ecc8e7c9d04985d0ca20c414a337f2ff2805100f6d",
    "apply-word-wd": "a2b129a311dc37a28b48e2aaaba185b655a009da9fadfe61fe7944b970d66602",
    "apply-word-dw": "037b99792a3c339137216e986103408194476e6a48be0c62c9375026d8489fc1",
    "apply-word-wdw": "c22a164148c7c1253a9f7fdce4c20d90fb407d1cb094bff550a2fde160fa9902",
    "decompose-h": "ed7b7ee071811b2f395cbcc152e29bb7aa56bc9c5d7527c4194e1bc06821359e",
    "decompose-homma": "748cb1e9fc1cf40165d61d201966135fefcfb29ab1643eb77a3e327570e7469e",
    "decompose-infra": "7dc7d648fd1a83d91ad168f5e219f6088731ae553c623e51c800fd0d0b50ce86",
    "decompose-infra-harmonic": "a2ac7bcb2b3173cb920aba85698866c9a1437eb737ebcb4af93708b5c5bc50f9",
    "decompose-monogenic-left": "7982c471990985531eaa5aadbda0e0efaecf4f31bca9198394bd538bab65ee01",
    "decompose-monogenic-right": "ada034e8442cbb24515a68b94c07b16ca0e916334d25c2fa8126a5680378ec59",
    "decompose-mt-left": "7120c01f8932960fcf00258109d211ab33410f187093902561138ebbb2a78645",
    "decompose-mt-right": "b8b3b19571ad1aa1e5a1685a41fc0a0a65242cba68e52e9e4274334f03853e2f",
    "decompose-classical-harmonic": "5bf4d4c2989b5b62260eb6fa7b791d2cc782bd889e491e6f0d2c0843751af2f9",
    "decompose-classical-monogenic": "5fa6e9bc208c1c6b248b3a03ffeec6e3ffba6a7e59edcdf5264ac6834e118b1a",
    "decompose-classical-infra": "f18a2b1374c9032698e451d25345fdf7d0e2d79f17d9bcc81a502fb7ee3e6dc2",
    "decompose-homma-nonmember": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "apply-zero": "630efd7bde34361d695c62d6be70a913c9193d4f0654fcba2902c2f7460bdfd8",
    "basis-hodge-s1-k1": "f3fcb4ff270d6c3ae6af680a998be4afa2d64967527af1191c971dd4e89ccd6e",
    "basis-harmonic-s1-k2": "f40bf835b0ca4163fd80e3ac1dfa1db75d8b228278676a13623a677977c1e552",
    "basis-mono-left-S13-k2": "a09b7030f77788ff059cf9c0e3917375d9d8e7269d67e476fdd822ca8ba0e225",
    "basis-two-sided-s2-k1": "7dff9ee677d8a29bbea37664a85bdf9f6c71f42c34986c8a138284bdf5246d88",
    "help-apply": "a870a30c8b7b961cef1f370607c565ef78ecde89b25e1ec8b48ad4140df56ded",
    "help-decompose": "a13b3d2f14868eae4f1b7422017df2d4ea3b12d6ecc69bbcbd1e98ff386e751c",
}

# argparse from Python 3.13 on wraps the decompose usage line before --theorem, not after it
if sys.version_info >= (3, 13):
    DIGESTS["help-decompose"] = "c40282c3e81500c48a2660b0e9ad53ce19979af928eda36b955f0c7622b0cc04"


def _run(capsys, argv) -> str:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return f"{code}\n{capsys.readouterr().out}"


def test_golden_cli_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CLIFFPOLY_BUDGET_SECONDS", raising=False)
    inputs = _inputs()
    got = {}
    for name, input_name, argv in CASES:
        if input_name is not None:
            path = tmp_path / f"{input_name}.json"
            path.write_text(json.dumps(inputs[input_name].to_json_dict()))
            argv = (*argv, "--input", str(path))
        got[name] = hashlib.sha256(_run(capsys, argv).encode()).hexdigest()
    assert got == DIGESTS
