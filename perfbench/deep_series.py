"""Workload ``deep_series``: series-layer requests at large depth.

One cycle is a fixed sequence of request kinds; the seed draws the
coefficients.  ``invert`` and ``pow_alpha`` run at depths 16 to 256 on
sparse (4-6 terms) and dense (every exponent down to -d) inputs, next
to dense and sparse products, ``(1+o)**n``, ``expand_rational`` at depth
256 and ``rational_pow`` on large perfect powers.  The lifting and
integration layers do no work here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import exact
from core import Raised
from omegafield import ONE, OmegaNumber, expand_rational, o, rational_pow

NAME = "deep_series"
#: Seconds one cycle takes on the reference machine; sizes the traced run.
CYCLE_S = 5.1

ALPHAS = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))


def _coeff(rng) -> Fraction:
    return Fraction(rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9]), rng.randint(1, 6))


def _lead(rng, q: int) -> Fraction:
    """Positive leading coefficient with an exact rational q-th root."""
    return Fraction(rng.randint(1, 4), rng.randint(1, 3)) ** q


def sparse(rng, terms: int, q: int = 1) -> OmegaNumber:
    """Exact value with ``terms`` terms: a lead at 0, one at -1, the rest below.

    The term at -1 makes every power of the tail reach down to the depth,
    so the cost of a request depends on ``terms`` and not on the seed.
    """
    exps = [-1] + rng.sample(range(-8, -1), terms - 2)
    return OmegaNumber([(0, _lead(rng, q))] + [(e, _coeff(rng)) for e in exps])


def dense(rng, d: int, q: int = 1, floor=None) -> OmegaNumber:
    """A term at every exponent from 0 down to -d."""
    return OmegaNumber(
        [(0, _lead(rng, q))] + [(-k, _coeff(rng)) for k in range(1, d + 1)], floor
    )


def cycle(rng, index: int) -> list:
    # Sparse inputs take 4, 5 and 6 terms in turn, the same in every cycle.
    sizes = itertools.cycle((4, 5, 6))

    def sparse_next(q: int = 1) -> OmegaNumber:
        return sparse(rng, next(sizes), q)

    reqs = []
    # The depth-128 requests and (1+o)**400 form one block of similar cost
    # that holds the 90th percentile; the two depth-256 requests lie above it.
    for d in (16, 16, 16, 16, 64, 64, 128, 128, 256):
        reqs.append(("inv.sparse", {"x": sparse_next(), "d": d}))
    for _ in range(2):
        reqs.append(("inv.dense", {"x": dense(rng, 16), "d": 16}))
    for d in (16, 64, 128):
        for alpha in ALPHAS:
            reqs.append(("pow", {"x": sparse_next(alpha.denominator), "alpha": alpha, "d": d}))
    alpha = ALPHAS[index % 3]
    reqs.append(("pow", {"x": sparse_next(alpha.denominator), "alpha": alpha, "d": 256}))
    for d in (64, 128):
        reqs.append(("mul.dense", {"x": dense(rng, d), "y": dense(rng, d), "d": d}))
        reqs.append(
            ("mul.dense", {"x": dense(rng, d, floor=-d), "y": dense(rng, d, floor=-d), "d": d})
        )
    for _ in range(6):
        reqs.append(("mul.sparse", {"x": sparse_next(), "y": sparse_next()}))
    for n in (48, 96, 192, 392):
        reqs.append(("ipow", {"n": n + rng.randint(0, 8)}))
    for shift in (0, 1):
        num = [_coeff(rng) for _ in range(3)]
        den = [Fraction(0)] * shift + [_coeff(rng) for _ in range(3)]
        reqs.append(("expand", {"num": num, "den": den, "d": 256}))
    for _ in range(6):
        q = rng.choice((2, 3, 5))
        root = Fraction(rng.getrandbits(48) | 1, rng.getrandbits(48) | 1)
        pn = rng.choice((1, -1, q + 1))
        reqs.append(("rpow", {"base": root**q, "alpha": Fraction(pn, q), "root": root, "pn": pn}))
    return reqs


def warmup(rng) -> list:
    return [
        ("inv.sparse", {"x": sparse(rng, 5), "d": 8}),
        ("pow", {"x": sparse(rng, 5, 2), "alpha": ALPHAS[0], "d": 8}),
        ("mul.dense", {"x": dense(rng, 8), "y": dense(rng, 8), "d": 8}),
        ("mul.sparse", {"x": sparse(rng, 4), "y": sparse(rng, 6)}),
        ("ipow", {"n": 10}),
        ("expand", {"num": [1, 2], "den": [1, -1], "d": 8}),
        ("rpow", {"base": Fraction(9, 4), "alpha": Fraction(1, 2), "root": Fraction(3, 2), "pn": 1}),
    ]


def execute(kind: str, p: dict, tr):
    if kind in ("inv.sparse", "inv.dense"):
        with tr.span(f"series.invert.d{p['d']}", depth=p["d"]):
            return p["x"].invert(p["d"])
    if kind == "pow":
        with tr.span(f"series.pow_alpha.d{p['d']}", depth=p["d"]):
            return p["x"].pow_alpha(p["alpha"], p["d"])
    if kind == "mul.dense":
        with tr.span(f"series.mul.dense.d{p['d']}"):
            return p["x"] * p["y"]
    if kind == "mul.sparse":
        with tr.span("series.mul.sparse"):
            return p["x"] * p["y"]
    if kind == "ipow":
        base = ONE + o
        with tr.span("series.ipow"):
            return base ** p["n"]
    if kind == "expand":
        with tr.span("series.expand_rational", depth=p["d"]):
            return expand_rational(p["num"], p["den"], p["d"])
    if kind == "rpow":
        with tr.span("rationals.rational_pow"):
            return rational_pow(p["base"], p["alpha"])
    raise ValueError(kind)


def _mul_floor(x, y):
    floors = []
    if x.floor is not None:
        floors.append(x.floor + y.top)
    if y.floor is not None:
        floors.append(y.floor + x.top)
    return max(floors) if floors else None


def check(kind: str, p: dict, out):
    if isinstance(out, Raised):
        return f"raised {out.name}"
    if kind in ("inv.sparse", "inv.dense"):
        if out.floor != -p["d"]:
            return f"floor {out.floor}, expected {-p['d']}"
        if exact.mul(exact.terms(p["x"]), exact.terms(out), -p["d"]) != {0: 1}:
            return "x * x.invert(d) differs from 1 above the floor"
        return None
    if kind == "pow":
        d, alpha = p["d"], p["alpha"]
        if out.floor != -d:
            return f"floor {out.floor}, expected {-d}"
        ok = exact.is_root(exact.terms(out), exact.terms(p["x"]), alpha, -d)
        return None if ok else "pow_alpha(p/q) ** q differs from x ** p"
    if kind in ("mul.dense", "mul.sparse"):
        x, y = p["x"], p["y"]
        floor = _mul_floor(x, y)
        if out.floor != floor:
            return f"floor {out.floor}, expected {floor}"
        expected = exact.mul(exact.terms(x), exact.terms(y), floor)
        return None if exact.terms(out) == expected else "product coefficients differ"
    if kind == "ipow":
        n = p["n"]
        if out.floor is not None or exact.terms(out) != {-k: math.comb(n, k) for k in range(n + 1)}:
            return "(1+o)**n differs from the binomial coefficients"
        return None
    if kind == "expand":
        den = {-i: Fraction(c) for i, c in enumerate(p["den"]) if c != 0}
        num = {-i: Fraction(c) for i, c in enumerate(p["num"]) if c != 0}
        if out.floor is None:
            return None if exact.mul(exact.terms(out), den) == num else "exact quotient times den != num"
        if out.floor != -p["d"]:
            return f"floor {out.floor}, expected {-p['d']}"
        cut = out.floor + max(den)
        if not exact.agree(exact.mul(exact.terms(out), den, cut), num, cut):
            return "quotient times den differs from num above the floor"
        return None
    if kind == "rpow":
        expected = p["root"] ** p["pn"]
        return None if out == expected else f"rational_pow gave {out}, expected {expected}"
    raise ValueError(kind)
