"""Independent exact arithmetic used by the output checks.

Series are plain ``{exponent: Fraction}`` dicts (zero coefficients
omitted).  Nothing here calls into ``omegafield``: the checks read a
result through its public accessors and then verify it with these
helpers, so a defect in the library's own arithmetic cannot hide itself.
"""

from __future__ import annotations

import math
from fractions import Fraction


def terms(x) -> dict:
    """Known nonzero coefficients of an ``OmegaNumber``."""
    return {e: x.coefficient(e) for e in x.support}


def add(a: dict, b: dict, scale=1) -> dict:
    """``a + scale * b``."""
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + scale * v
    return {e: v for e, v in out.items() if v != 0}


def mul(a: dict, b: dict, cut=None) -> dict:
    """Product, keeping only exponents ``>= cut`` (all when cut is None)."""
    out: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            if cut is None or e >= cut:
                out[e] = out.get(e, 0) + v1 * v2
    return {e: v for e, v in out.items() if v != 0}


def power(a: dict, n: int, cut=None) -> dict:
    """``a ** n`` for a natural n, truncated below ``cut``."""
    result = {0: Fraction(1)}
    for _ in range(n):
        result = mul(result, a, cut)
    return result


def is_root(y: dict, x: dict, alpha: Fraction, cut) -> bool:
    """``y ** q`` agrees with ``x ** p`` above ``cut``, for alpha = p/q."""
    y_q = power(y, alpha.denominator, cut)
    if alpha.numerator >= 0:
        return agree(y_q, power(x, alpha.numerator, cut), cut)
    return above(mul(y_q, power(x, -alpha.numerator, cut), cut), cut) == {0: 1}


def above(a: dict, cut) -> dict:
    return {e: v for e, v in a.items() if cut is None or e >= cut}


def agree(a: dict, b: dict, cut) -> bool:
    """Same coefficients at every exponent ``>= cut``."""
    return above(a, cut) == above(b, cut)


def sign(a: dict) -> int:
    """Sign of the leading coefficient (lexicographic order)."""
    if not a:
        return 0
    return 1 if a[max(a)] > 0 else -1


def poly_at(coeffs, x: dict, cut=None) -> dict:
    """Ascending polynomial coefficients evaluated at a series, by Horner."""
    total: dict = {}
    for c in reversed(coeffs):
        total = add(mul(total, x, cut), {0: Fraction(c)})
    return total


def poly_derivative(coeffs, n: int) -> list:
    out = list(coeffs)
    for _ in range(n):
        out = [i * c for i, c in enumerate(out)][1:] or [Fraction(0)]
    return out


def stirling2(n: int, p: int) -> int:
    """Stirling numbers of the second kind, by their triangle."""
    row = [1] + [0] * p
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, p + 1)]
    return row[p]


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind, by their triangle."""
    row = [1] + [0] * k
    for i in range(n):
        row = [i * row[0]] + [i * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def falling(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= alpha - i
    return out


def series_exp_scaled(scale: Fraction, a: Fraction, depth: int) -> dict:
    """``scale * exp(a*o)`` carried to ``depth`` orders of o."""
    return {
        -k: scale * a**k / math.factorial(k)
        for k in range(depth + 1)
        if scale * a**k != 0
    }
