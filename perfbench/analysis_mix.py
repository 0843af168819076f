"""Workload ``analysis_mix``: many small requests at working depth 8-24.

One cycle is a fixed sequence of request kinds drawn from every layer
above the series kernel: lifts with polynomial, rational, exact-power
and decimal oracles, differences and differentials, both conversion
tables, discrete integrals, infinite integers, near-equal comparisons,
Cauchy limits over exact and truncated elements, the coefficient
families and README-style expressions.  The seed draws every input.
"""

from __future__ import annotations

import math
from fractions import Fraction

import deep_series
import exact
from core import Raised
from omegafield import (
    AlephNumber,
    OmegaNumber,
    PolynomialFn,
    R1Point,
    archimedean_witness,
    binomial_general,
    cauchy_limit,
    D_to_d_table,
    d_to_D_table,
    difference,
    differential,
    discrete_integral,
    evaluate,
    exp_fn,
    integer_truncation,
    k_coeff,
    lift_eval,
    oplus,
    otimes,
    parse,
    polynomial_fn,
    power_fn,
    rational_fn,
    sin_fn,
    x_coeff,
)

NAME = "analysis_mix"
#: Seconds one cycle takes on the reference machine; sizes the traced run.
CYCLE_S = 0.035

_coeff = deep_series._coeff


def _depth(rng) -> int:
    return rng.randint(8, 24)


def _poly(rng, lo: int, hi: int) -> list:
    return [_coeff(rng) for _ in range(rng.randint(lo, hi) + 1)]


def _point(rng, t=None) -> OmegaNumber:
    """t + u with u an exact infinitesimal of 1-3 terms."""
    t = _coeff(rng) if t is None else t
    exps = rng.sample((-1, -2, -3), rng.randint(1, 3))
    return OmegaNumber([(0, t)] + [(e, _coeff(rng)) for e in exps])


def _poly_at_rational(coeffs, t) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * t + c
    return total


def _aleph(rng) -> AlephNumber:
    degree = rng.randint(0, 3)
    if degree == 0:
        return AlephNumber((rng.randint(0, 50),))
    coeffs = [rng.randint(-20, 20)] + [_coeff(rng) for _ in range(degree - 1)]
    return AlephNumber(coeffs + [Fraction(rng.randint(1, 9), rng.randint(1, 4))])


def _positive(rng) -> OmegaNumber:
    """c*o^k + d*o^(k+1) with c > 0: positive, possibly infinitesimal."""
    k = rng.randint(0, 3)
    return OmegaNumber([(-k, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                        (-k - 1, _coeff(rng))])


def _laurent(rng) -> OmegaNumber:
    return OmegaNumber([(e, _coeff(rng)) for e in rng.sample(range(-2, 4), rng.randint(1, 3))])


def _divides(a: OmegaNumber, b: OmegaNumber) -> bool:
    """Whether b / a is a Laurent polynomial, for a two-term ``_positive``.

    a = c*o^k*(1 + r*o) divides b exactly when b vanishes at o = -1/r.
    """
    k = -a.top
    root = -a.coefficient(-k) / a.coefficient(-k - 1)
    return sum(v * root ** (-e) for e, v in exact.terms(b).items()) == 0


def _signed(c: int, text: str) -> str:
    return f"+ {c}{text}" if c >= 0 else f"- {-c}{text}"


def _int(rng) -> int:
    return rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7])


def _expression(rng, index: int, d: int) -> dict:
    """A README-style expression and what its value must satisfy."""
    form = index % 7
    a, b, c = rng.randint(1, 9), _int(rng), _int(rng)
    if form == 0:
        sq = rng.randint(1, 6) ** 2
        return {"text": f"sqrt({sq} {_signed(b, '*o')})", "d": d, "check": "root",
                "base": {0: Fraction(sq), -1: Fraction(b)}, "alpha": Fraction(1, 2)}
    if form == 1:
        return {"text": f"inv({a} {_signed(b, '*o')} {_signed(c, '*o^2')})", "d": d,
                "check": "root", "base": {0: Fraction(a), -1: Fraction(b), -2: Fraction(c)},
                "alpha": Fraction(-1)}
    if form == 2:
        n = rng.randint(2, 6)
        value = exact.power({0: Fraction(a), -1: Fraction(b)}, n)
        return {"text": f"({a} {_signed(b, '*o')})^{n}", "d": d, "check": "exact", "value": value}
    if form == 3:
        e = _int(rng)
        value = exact.mul({1: Fraction(a), 0: Fraction(b)}, {0: Fraction(c), -1: Fraction(e)})
        return {"text": f"({a}*S {_signed(b, '')})*({c} {_signed(e, '*o')})", "d": d,
                "check": "exact", "value": value}
    if form == 4:
        q = rng.choice((2, 3))
        base = rng.randint(1, 4) ** q
        alpha = Fraction(rng.choice((1, -1, q + 1)), q)
        return {"text": f"pow({base}+o, {alpha.numerator}/{q})", "d": d, "check": "root",
                "base": {0: Fraction(base), -1: Fraction(1)}, "alpha": alpha}
    if form == 5:
        n = rng.randint(2, d)
        value = {-k: Fraction(-b) ** k for k in range(n + 1)}
        return {"text": f"trunc(inv(1 {_signed(b, '*o')}), {n})", "d": d, "check": "exact",
                "value": value}
    bad = rng.choice([("1 + * o", "ExprSyntaxError"), ("sqrt(o)", "FractionalLeadingExponentError"),
                      (f"inv({a}*o - {a}*o)", "DivisionByZeroError")])
    return {"text": bad[0], "d": d, "check": "error", "error": bad[1]}


def cycle(rng, index: int) -> list:
    reqs = []
    for _ in range(3):
        coeffs = _poly(rng, 2, 8)
        reqs.append(("lift.poly", {"f": polynomial_fn(coeffs), "coeffs": coeffs,
                                   "x": _point(rng), "d": _depth(rng)}))
    for _ in range(2):
        num, den = _poly(rng, 0, 3), _poly(rng, 1, 2)
        t = _coeff(rng)
        while _poly_at_rational(den, t) == 0:
            t = _coeff(rng)
        reqs.append(("lift.rational", {"f": rational_fn(num, den), "num": num, "den": den,
                                       "x": _point(rng, t), "d": _depth(rng)}))
    for _ in range(2):
        q = rng.choice((2, 3))
        alpha = Fraction(rng.choice((1, -1, q + 1)), q)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 4)) ** q
        reqs.append(("lift.power", {"f": power_fn(alpha), "alpha": alpha,
                                    "x": _point(rng, t), "d": _depth(rng)}))
    for kind, make in (("lift.exp", exp_fn), ("lift.sin", sin_fn)):
        t, a = Fraction(rng.randint(-20, 20), 10), _coeff(rng)
        reqs.append((kind, {"f": make(), "t": t, "a": a, "x": OmegaNumber([(0, t), (-1, a)]),
                            "d": _depth(rng)}))
    for _ in range(2):
        coeffs = _poly(rng, 2, 7)
        reqs.append(("difference", {"f": polynomial_fn(coeffs), "coeffs": coeffs,
                                    "x": _point(rng), "p": rng.randint(1, 5), "d": _depth(rng)}))
    coeffs = _poly(rng, 2, 7)
    reqs.append(("differential", {"f": polynomial_fn(coeffs), "coeffs": coeffs,
                                  "x": _point(rng), "n": rng.randint(1, 5), "d": _depth(rng)}))
    reqs.append(("table", {"cutoff": rng.randint(8, 24)}))
    for _ in range(2):
        coeffs = _poly(rng, 0, 12)
        upper = R1Point(Fraction(rng.randint(1, 30), rng.randint(1, 6)), rng.randint(-3, 5))
        reqs.append(("integral", {"f": PolynomialFn(coeffs), "coeffs": coeffs, "upper": upper}))
    top = rng.randint(0, 2)
    value = OmegaNumber([(top, Fraction(rng.randint(1, 40), rng.randint(1, 7)))]
                        + [(e, _coeff(rng)) for e in rng.sample(range(-3, top), rng.randint(1, 3))])
    reqs.append(("int_trunc", {"v": value}))
    # |b| / a an exact infinite integer is its own kind (a known defect);
    # plain witness requests draw b until a does not divide it.
    a = _positive(rng)
    b = _laurent(rng)
    while _divides(a, b):
        b = _laurent(rng)
    reqs.append(("witness", {"a": a, "b": b}))
    a, quotient = _positive(rng), {}
    while not quotient:
        quotient = _aleph_terms(_aleph(rng))
    reqs.append(("witness.exact", {"a": a, "b": OmegaNumber(exact.mul(exact.terms(a), quotient))}))
    reqs.append(("aleph", {"a": _aleph(rng), "b": _aleph(rng)}))
    for mode in ("exact", "resolved", "hidden"):
        x = deep_series.sparse(rng, rng.randint(4, 6))
        f = rng.randint(2, 10)
        k = rng.randint(1, f) if mode == "resolved" else rng.randint(f + 1, f + 6)
        c = _coeff(rng)
        left = x if mode == "exact" else OmegaNumber(
            [(e, x.coefficient(e)) for e in x.support if e >= -f], -f)
        right = x + OmegaNumber.single(-k, c)
        expected = "IndistinguishableError" if mode == "hidden" else ("<" if c > 0 else ">")
        reqs.append(("compare", {"left": left, "right": right, "expected": expected}))
    for kind in ("cauchy.exact", "cauchy.trunc"):
        d = _depth(rng)
        window = rng.randint(2, 3)
        budget = d + window + 1
        a = [_coeff(rng) for _ in range(budget + 1)]
        known = rng.randint(3, d - 3) if kind == "cauchy.trunc" else None
        floor = None if known is None else -known
        elements = [
            OmegaNumber([(-j, a[j]) for j in range(n + 1) if known is None or j <= known], floor)
            for n in range(budget + 1)
        ]
        reqs.append((kind, {"elements": elements, "window": window, "budget": budget, "d": d,
                            "limit": {-j: a[j] for j in range(d + 1)}}))
    reqs.append(("coeffs", {"p": rng.randint(4, 12), "m": rng.randint(4, 12),
                            "alpha": _coeff(rng)}))
    for j in range(3):
        reqs.append(("expr", _expression(rng, 3 * index + j, _depth(rng))))
    for _ in range(2):
        reqs.append(("mul.sparse", {"x": deep_series.sparse(rng, rng.randint(4, 6)),
                                    "y": deep_series.sparse(rng, rng.randint(4, 6))}))
    return reqs


def warmup(rng) -> list:
    # Two cycles reach every code path, oracle and coefficient cache once.
    return cycle(rng, 0) + cycle(rng, 1)


def execute(kind: str, p: dict, tr):
    if kind.startswith("lift."):
        with tr.span("lifting.lift_eval", depth=p["d"]):
            return lift_eval(p["f"], p["x"], p["d"])
    if kind == "difference":
        with tr.span("lifting.difference", depth=p["d"]):
            return difference(p["f"], p["x"], p["p"], p["d"])
    if kind == "differential":
        with tr.span("lifting.differential", depth=p["d"]):
            return differential(p["f"], p["x"], p["n"], p["d"])
    if kind == "table":
        with tr.span("lifting.table"):
            forward = d_to_D_table(p["cutoff"])
        with tr.span("lifting.table"):
            backward = D_to_d_table(p["cutoff"])
        return forward, backward
    if kind == "integral":
        with tr.span("integration.discrete_integral"):
            return discrete_integral(p["f"], p["upper"])
    if kind == "int_trunc":
        with tr.span("integers.integer_truncation"):
            return integer_truncation(p["v"])
    if kind.startswith("witness"):
        with tr.span("integers.archimedean_witness"):
            return archimedean_witness(p["a"], p["b"])
    if kind == "aleph":
        with tr.span("integers.oplus"):
            total = oplus(p["a"], p["b"])
        with tr.span("integers.otimes"):
            product = otimes(p["a"], p["b"])
        return total, product
    if kind == "compare":
        with tr.span("series.compare"):
            return p["left"].compare(p["right"]).symbol
    if kind.startswith("cauchy."):
        with tr.span("series.cauchy_limit", depth=p["d"]):
            return cauchy_limit(p["elements"].__getitem__, p["window"], p["budget"], p["d"])
    if kind == "coeffs":
        with tr.span("coefficients.x_coeff"):
            xs = [x_coeff(p["p"], n) for n in range(p["p"] + 5)]
        with tr.span("coefficients.k_coeff"):
            ks = [k_coeff(p["m"], j) for j in range(p["m"] + 1)]
        with tr.span("coefficients.binomial_general"):
            bs = [binomial_general(p["alpha"], k) for k in range(9)]
        return xs, ks, bs
    if kind == "expr":
        with tr.span("expressions.parse"):
            ast = parse(p["text"])
        with tr.span("expressions.evaluate", depth=p["d"]):
            return evaluate(ast, p["d"])
    if kind == "mul.sparse":
        return deep_series.execute(kind, p, tr)
    raise ValueError(kind)


def _lead_floor(out, d: int):
    return None if out.floor == -d else f"floor {out.floor}, expected {-d}"


def _aleph_terms(number) -> dict:
    return {i: c for i, c in enumerate(number.coeffs) if c != 0}


def _aleph_coeffs(series: dict) -> tuple:
    top = max(series, default=0)
    return tuple(series.get(i, Fraction(0)) for i in range(top + 1))


def check(kind: str, p: dict, out):
    expect_error = (kind == "compare" and p["expected"] == "IndistinguishableError") or (
        kind == "expr" and p["check"] == "error")
    if isinstance(out, Raised):
        if expect_error:
            expected = p["expected"] if kind == "compare" else p["error"]
            return None if out.name == expected else f"raised {out.name}, expected {expected}"
        if kind == "cauchy.trunc" and out.name in ("NotCauchyError", "PrecisionExhaustedError"):
            return None  # refusing to answer is the honest outcome
        return f"raised {out.name}"
    if expect_error:
        return f"returned {out!r}, expected an error"
    if kind == "lift.poly":
        expected = exact.poly_at(p["coeffs"], exact.terms(p["x"]))
        ok = out.floor is None and exact.terms(out) == expected
        return None if ok else "polynomial lift differs from p(t + u)"
    if kind == "lift.rational":
        d = p["d"]
        x = exact.terms(p["x"])
        lhs = exact.mul(exact.terms(out), exact.poly_at(p["den"], x), -d)
        ok = exact.agree(lhs, exact.poly_at(p["num"], x), -d)
        return _lead_floor(out, d) or (None if ok else "lift * Q(x) differs from P(x)")
    if kind == "lift.power":
        d = p["d"]
        ok = exact.is_root(exact.terms(out), exact.terms(p["x"]), p["alpha"], -d)
        return _lead_floor(out, d) or (None if ok else "lift ** q differs from x ** p")
    if kind in ("lift.exp", "lift.sin"):
        d, t, a = p["d"], p["t"], p["a"]
        s = out.coefficient(0)
        if kind == "lift.exp":
            reference = [math.exp(t)]
            expected = exact.series_exp_scaled(s, a, d)
            measured = [s]
        else:
            c = out.coefficient(-1) / a
            reference = [math.sin(t), math.cos(t)]
            cyc = (s, c, -s, -c)
            expected = {-k: cyc[k % 4] * a**k / math.factorial(k) for k in range(d + 1)}
            expected = {e: v for e, v in expected.items() if v != 0}
            measured = [s, c]
        if any(abs(float(m) - r) > 1e-12 * max(1.0, abs(r)) for m, r in zip(measured, reference)):
            return "decimal oracle value is off"
        ok = exact.terms(out) == expected
        return _lead_floor(out, d) or (None if ok else "Taylor coefficients do not follow the oracle")
    if kind == "difference":
        x, n = exact.terms(p["x"]), p["p"]
        expected: dict = {}
        for k in range(n + 1):
            shifted = exact.add(x, {-1: Fraction(k)})
            expected = exact.add(expected, exact.poly_at(p["coeffs"], shifted),
                                 (-1) ** (n - k) * math.comb(n, k))
        ok = out.floor is None and exact.terms(out) == expected
        return None if ok else "difference differs from the alternating sum"
    if kind == "differential":
        n = p["n"]
        value = exact.poly_at(exact.poly_derivative(p["coeffs"], n), exact.terms(p["x"]))
        ok = out.floor is None and exact.terms(out) == {e - n: v for e, v in value.items()}
        return None if ok else "differential differs from f^(n)(x) * o^n"
    if kind == "table":
        forward, backward = out
        size = p["cutoff"]
        for i in range(1, size + 1):
            for j in range(i, size + 1):
                total = sum(forward.row(i)[k - i] * backward.row(k)[j - k] for k in range(i, j + 1))
                if total != (i == j):
                    return f"tables do not multiply to the identity at ({i}, {j})"
        return None
    if kind == "integral":
        t, k = p["upper"].t, p["upper"].k
        riemann = sum(a * t ** (j + 1) / (j + 1) for j, a in enumerate(p["coeffs"]))
        value = exact.terms(out)
        ok = out.floor is None and max(value, default=0) <= 0 and value.get(0, 0) == riemann
        if not ok:
            return "standard part differs from the Riemann integral"
        # Finite surrogates: with S replaced by an integer M (o by 1/M) the
        # value must equal the plain sum of f(n/M)/M over the L = t*M + k
        # lattice points below the upper end.
        c = next(c for c in range(1, 8) if t.numerator * c + k >= 0)
        for m in (t.denominator * c, t.denominator * (c + 1)):
            points = t.numerator * m // t.denominator + k
            direct = sum(_poly_at_rational(p["coeffs"], Fraction(n, m)) for n in range(points))
            if sum(v * Fraction(m) ** e for e, v in value.items()) != Fraction(direct, m):
                return f"value at S = {m} differs from the finite lattice sum"
        return None
    if kind == "int_trunc":
        rest = exact.add(exact.terms(p["v"]), _aleph_terms(out), -1)
        ok = exact.sign(rest) >= 0 and exact.sign(exact.add(rest, {0: Fraction(-1)})) < 0
        return None if ok else "L <= v < L + 1 fails"
    if kind.startswith("witness"):
        b = exact.terms(p["b"])
        if exact.sign(b) < 0:
            b = {e: -v for e, v in b.items()}
        lhs = exact.mul(exact.add(_aleph_terms(out), {0: Fraction(1)}), exact.terms(p["a"]))
        return None if exact.sign(exact.add(lhs, b, -1)) > 0 else "(L + 1) * a <= |b|"
    if kind == "aleph":
        total, product = out
        a, b = _aleph_terms(p["a"]), _aleph_terms(p["b"])
        ok = (total.coeffs == _aleph_coeffs(exact.add(a, b))
              and product.coeffs == _aleph_coeffs(exact.mul(a, b)))
        return None if ok else "oplus / otimes differ from polynomial arithmetic"
    if kind == "compare":
        return None if out == p["expected"] else f"compare gave {out}, expected {p['expected']}"
    if kind == "cauchy.exact":
        ok = out.floor == -p["d"] and exact.terms(out) == {e: v for e, v in p["limit"].items() if v}
        return None if ok else "limit differs from the exact series"
    if kind == "cauchy.trunc":
        known = p["elements"][-1].floor
        if out.floor is None or out.floor < known:
            return f"limit claims coefficients down to {out.floor}; elements are known to {known}"
        ok = exact.agree(exact.terms(out), p["limit"], out.floor)
        return None if ok else "limit differs from the series above its floor"
    if kind == "coeffs":
        xs, ks, bs = out
        fp = math.factorial(p["p"])
        if xs != [fp * exact.stirling2(n, p["p"]) for n in range(p["p"] + 5)]:
            return "x_coeff differs from p! * S2(n, p)"
        m = p["m"]
        if ks != [exact.stirling1_unsigned(m + 1, m + 1 - j) for j in range(m + 1)]:
            return "k_coeff differs from the Stirling numbers of the first kind"
        if bs != [exact.falling(p["alpha"], k) / math.factorial(k) for k in range(9)]:
            return "binomial_general differs from the falling factorial"
        return None
    if kind == "expr":
        if p["check"] == "exact":
            ok = out.floor is None and exact.terms(out) == p["value"]
            return None if ok else f"{p['text']} evaluated to {out}"
        d = p["d"]
        ok = exact.is_root(exact.terms(out), p["base"], p["alpha"], -d)
        return _lead_floor(out, d) or (None if ok else f"{p['text']} fails its root identity")
    if kind == "mul.sparse":
        return deep_series.check(kind, p, out)
    raise ValueError(kind)
