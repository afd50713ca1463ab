"""Independent reference arithmetic for generating inputs and checking outputs.

Polynomials here are plain dicts {(alpha, mask): Fraction}, the same
(multi-index, blade bitmask) encoding as cliffpoly's JSON format, so the
benchmark can build inputs and check outputs without calling the code it
measures.  Everything is exact; nothing here is timed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from random import Random

# ---------------------------------------------------------------------------
# Clifford algebra R_{0,m}: every generator squares to -1


def blade_sign(a: int, b: int) -> int:
    """Sign of the product of basis blades a and b (bitmasks)."""
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    return -1 if (swaps + (a & b).bit_count()) & 1 else 1


def mv_mul(x: dict, y: dict) -> dict:
    """Product of two multivectors given as {mask: Fraction}."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            key = a ^ b
            out[key] = out.get(key, 0) + blade_sign(a, b) * ca * cb
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# polynomials as term dicts


def add(*polys: dict, signs=None) -> dict:
    out: dict = {}
    for i, p in enumerate(polys):
        s = 1 if signs is None else signs[i]
        for key, c in p.items():
            out[key] = out.get(key, 0) + s * c
    return {k: v for k, v in out.items() if v}


def scale_terms(p: dict, factor) -> dict:
    """Scale each term by factor(alpha, mask)."""
    out = {key: c * factor(*key) for key, c in p.items()}
    return {k: v for k, v in out.items() if v}


def vector_action(p: dict, m: int, derive: bool, side: str = "L", part: str = "all") -> dict:
    """sum_j e_j * (d/dx_j p) or sum_j x_j e_j * p, written out term by term.

    side "L" multiplies e_j on the left, "R" on the right.  part "w"
    keeps only the grade-raising products (j not in the blade), "d" only
    the grade-lowering ones, "all" both.
    """
    out: dict = {}
    for (alpha, mask), c in p.items():
        for j in range(m):
            bit = 1 << j
            if (part == "w" and mask & bit) or (part == "d" and not mask & bit):
                continue
            if derive:
                if not alpha[j]:
                    continue
                coeff = c * alpha[j]
                new_alpha = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
            else:
                coeff = c
                new_alpha = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
            sign = blade_sign(bit, mask) if side == "L" else blade_sign(mask, bit)
            key = (new_alpha, mask ^ bit)
            out[key] = out.get(key, 0) + sign * coeff
    return {k: v for k, v in out.items() if v}


def dplus(p, m):
    return vector_action(p, m, True, part="w")


def dminus(p, m):
    return vector_action(p, m, True, part="d")


def xwedge(p, m):
    return vector_action(p, m, False, part="w")


def xdot(p, m):
    return vector_action(p, m, False, part="d")


def dirac(p, m):
    return vector_action(p, m, True)


def dirac_right(p, m):
    return vector_action(p, m, True, side="R")


def laplacian(p, m):
    """-(dplus dminus + dminus dplus) p."""
    return add(dplus(dminus(p, m), m), dminus(dplus(p, m), m), signs=(-1, -1))


def laplacian_tilde(p, m):
    """-(dplus dminus - dminus dplus) p."""
    return add(dplus(dminus(p, m), m), dminus(dplus(p, m), m), signs=(-1, 1))


def word(letters: str, p: dict, m: int) -> dict:
    """Alternating word over xwedge ('w') and xdot ('d'), applied right to left."""
    for ch in reversed(letters):
        p = xwedge(p, m) if ch == "w" else xdot(p, m)
    return p


def bigrades(p: dict) -> set:
    return {(sum(alpha), mask.bit_count()) for alpha, mask in p}


def evaluate(p: dict, point) -> dict:
    """Exact value at a rational point, as a multivector {mask: Fraction}."""
    out: dict = {}
    for (alpha, mask), c in p.items():
        v = c
        for x, a in zip(point, alpha):
            if a:
                v *= x ** a
        out[mask] = out.get(mask, 0) + v
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the polynomial JSON format


def to_json(p: dict, m: int) -> dict:
    terms = []
    for (alpha, mask), c in p.items():
        blade = [i + 1 for i in range(m) if mask >> i & 1]
        terms.append({"alpha": list(alpha), "blade": blade, "coeff": str(c)})
    return {"m": m, "terms": terms}


def from_json(data: dict) -> tuple[int, dict]:
    out: dict = {}
    for t in data["terms"]:
        mask = 0
        for i in t["blade"]:
            mask |= 1 << (i - 1)
        key = (tuple(t["alpha"]), mask)
        out[key] = out.get(key, 0) + Fraction(t["coeff"])
    return data["m"], {k: v for k, v in out.items() if v}


def dumps(p: dict, m: int) -> str:
    return json.dumps(to_json(p, m))


# ---------------------------------------------------------------------------
# seeded inputs


def monomial_keys(m: int, grades, k: int) -> list:
    """Every (alpha, mask) of degree k whose blade grade lies in grades."""
    masks = [mask for mask in range(1 << m) if mask.bit_count() in set(grades)]
    alphas = [a for a in itertools.product(range(k + 1), repeat=m) if sum(a) == k]
    return [(a, mask) for a in sorted(alphas, reverse=True) for mask in masks]


def rational(rng: Random) -> Fraction:
    """A small nonzero rational."""
    return Fraction(rng.choice((-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)), rng.choice((1, 1, 2, 3)))


def random_poly(m: int, degrees, grades, nterms: int, rng: Random) -> dict:
    """nterms distinct monomials of the given degrees and grades, with seeded coefficients."""
    keys = [key for k in degrees for key in monomial_keys(m, grades, k)]
    return {key: rational(rng) for key in rng.sample(keys, min(nterms, len(keys)))}


def random_combination(basis: list, rng: Random, keep: float = 0.7) -> dict:
    """A seeded rational combination of basis polynomials; never zero for a nonempty basis."""
    chosen = [v for v in basis if rng.random() < keep] or basis[:1]
    return add(*[scale_terms(v, lambda *_key, c=rational(rng): c) for v in chosen])


# primitive Pythagorean triples (a, b, c): (a/c)^2 + (b/c)^2 = 1
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))


def unit_vector(i: int, j: int, rng: Random) -> dict:
    """A seeded rational unit 1-vector in the plane of e_i and e_j (0-based)."""
    a, b, c = rng.choice(PYTHAGOREAN)
    if rng.random() < 0.5:
        a, b = b, a
    sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
    return {1 << i: Fraction(sa * a, c), 1 << j: Fraction(sb * b, c)}
