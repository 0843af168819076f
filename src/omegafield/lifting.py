"""Analytic lifting of smooth functions and the two differential calculi.

A smooth real function enters the library as a derivative oracle
``(k, t) -> f^(k)(t)``.  Its lift evaluates the Taylor expansion around
the standard part on the infinitesimal tail of the argument, which is a
finite exact computation once truncated at a working depth.

Two systems of higher differentials live on lifted functions: the
iterated o-step difference (order p) and the Leibniz differential
``f^(n) * o**n`` (order n).  They are linear combinations of each other
with exact rational coefficients; both conversion tables are built in
``coefficients`` from the coefficient families alone, are re-exported
here, and are exact inverses of one another.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log, log2, log10, perm

from . import _EXPORTS
from .coefficients import CoeffTable, D_to_d_table, binomial_general, d_to_D_table
from .errors import MathDomainError, PrecisionExhaustedError
from .integration import PolynomialFn
from .rationals import _VALUE_LIMIT_BITS, _as_int, as_rational, format_rational, rational_pow
from .series import OmegaNumber, ZERO, expand_rational, o as O_UNIT, resolve_depth

__all__ = [*_EXPORTS["lifting"], "CoeffTable", "d_to_D_table", "D_to_d_table"]


class LiftedFunction(namedtuple("LiftedFunction", "oracle domain degree label")):
    """Smooth function presented by its derivative oracle.

    ``oracle(k, t)`` returns the exact rational used for the k-th
    derivative at the standard point t.  For ``exp_fn``, ``log_fn``,
    ``sin_fn`` and ``cos_fn`` that rational is a binary fraction within
    2**-170 of the transcendental value, relative to its size (see
    ``VALUE_BITS``); everything downstream stays exact arithmetic on it.
    ``domain(t)`` tells whether t is a point of the domain (every t by
    default).  ``degree`` marks oracles that vanish beyond a finite order,
    so polynomial lifts terminate and come back exact.
    """

    __slots__ = ()

    def __new__(cls, oracle, domain=lambda t: True, degree=None, label="f"):
        return super().__new__(cls, oracle, domain, degree, label)

    def derivative_at(self, k: int, t: Fraction) -> Fraction:
        """The oracle's k-th derivative at t; an exp whose value would pass
        the size limit, or a sin or cos point too long to reduce, raises
        PrecisionExhaustedError before any sum."""
        _as_int(k, "derivative order", 0)
        if self.degree is not None and k > self.degree:
            return Fraction(0)
        try:
            return self.oracle(k, t)
        except _PointOutOfRange as exc:
            raise PrecisionExhaustedError(f"{self.label} at {_point_text(t)} {exc}") from None

    def in_domain(self, t: Fraction) -> bool:
        return self.domain(t)


def derivative(f: LiftedFunction, q: int = 1) -> LiftedFunction:
    """The q-th derivative: the oracle shifted by q."""
    if _as_int(q, "derivative order", 0) == 0:
        return f
    base = f.oracle
    shifted_degree = max(f.degree - q, 0) if f.degree is not None else None
    return f._replace(
        oracle=lambda k, t: base(k + q, t),
        degree=shifted_degree,
        label=f"{f.label}^({q})",
    )


def lift_eval(f: LiftedFunction, x: OmegaNumber, depth: "int | None" = None) -> OmegaNumber:
    """Taylor evaluation of the lift at x = t + u, u infinitesimal.

    Sums f^(k)(t) * u**k / k! for k up to ``depth``; exact when the
    oracle terminates within the depth and the tail of x is exact,
    truncated at floor -depth otherwise.
    """
    depth = resolve_depth(depth)
    x = OmegaNumber._coerce(x)
    x._guard_series_in_o()
    t = x.standard_part()
    if not f.in_domain(t):
        raise MathDomainError(f"{t} is outside the domain of {f.label}")
    u = x.infinitesimal_part()
    terminating = f.degree is not None and f.degree <= depth
    top_order = min(depth, f.degree) if f.degree is not None else depth
    working_floor = None if (terminating and u.is_exact) else -depth
    total = OmegaNumber.single(0, f.derivative_at(0, t))
    u_power = OmegaNumber.single(0, 1)
    for k in range(1, top_order + 1):
        u_power = (u_power * u)._refloor(working_floor)
        if u_power.is_zero:
            break
        coeff = Fraction(f.derivative_at(k, t), factorial(k))
        if coeff != 0:
            total = total + u_power * OmegaNumber.single(0, coeff)
    return total._refloor(working_floor)


def difference(
    f: LiftedFunction, x: OmegaNumber, p: int, depth: "int | None" = None
) -> OmegaNumber:
    """Iterated o-step difference of order p, in closed form.

    The alternating sum over k of (-1)**(p-k) * C(p,k) * lift(x + k*o).
    Shifting by k*o moves only the infinitesimal tail, so every term is
    expanded around the same standard point.  The result has order >= p
    in o: degree-(p-1) polynomials are annihilated.
    """
    _as_int(p, "difference order", 0)
    total = ZERO
    for k in range(p + 1):
        term = lift_eval(f, x + OmegaNumber.single(-1, k), depth)
        weight = (-1) ** (p - k) * comb(p, k)
        total = total + term * OmegaNumber.single(0, weight)
    return total


def difference_iterated(
    f: LiftedFunction, x: OmegaNumber, p: int, depth: "int | None" = None
) -> OmegaNumber:
    """Order-p difference by literal recursion D g = g(x + o) - g(x)."""
    _as_int(p, "difference order", 0)

    def step(point: OmegaNumber, order: int) -> OmegaNumber:
        if order == 0:
            return lift_eval(f, point, depth)
        return step(point + O_UNIT, order - 1) - step(point, order - 1)

    return step(OmegaNumber._coerce(x), p)


def differential(
    f: LiftedFunction, x: OmegaNumber, n: int, depth: "int | None" = None
) -> OmegaNumber:
    """Leibniz differential of order n: f^(n) lifted at x, times o**n."""
    _as_int(n, "differential order", 0)
    value = lift_eval(derivative(f, n), x, depth)
    return value * OmegaNumber.single(-n, 1)


def ns_diff_check(
    f: LiftedFunction, t, h: OmegaNumber, depth: "int | None" = None
) -> bool:
    """Order-topology differentiability witness at a standard point.

    The first-order remainder lift(t+h) - lift(t) - lift(f')(t) * h must
    vanish to order at least 2 * ord(h); a remainder that is zero down to
    the working depth counts as passing.
    """
    depth = resolve_depth(depth)
    h = OmegaNumber._coerce(h)
    if not (h.is_exact and not h.is_zero and h.is_infinitesimal):
        raise MathDomainError("step must be a nonzero exact infinitesimal")
    base = OmegaNumber.from_rational(as_rational(t))
    remainder = (
        lift_eval(f, base + h, depth)
        - lift_eval(f, base, depth)
        - lift_eval(derivative(f), base, depth) * h
    )
    if remainder.is_zero:
        return True
    if remainder.is_truncated_zero:
        observed = depth + 1
    else:
        observed = -remainder.top
    return observed >= 2 * h.ord_o()


# ----------------------------------------------------------------------
# built-in function constructors


def polynomial_fn(coeffs: Sequence) -> LiftedFunction:
    """Exact polynomial with the given ascending coefficients."""
    p = PolynomialFn(coeffs)

    def oracle(k: int, t: Fraction) -> Fraction:
        return PolynomialFn([perm(i, k) * a for i, a in enumerate(p.coeffs[k:], k)])(t)

    label = "poly(" + ",".join(str(v) for v in p.coeffs) + ")"
    return LiftedFunction(oracle=oracle, degree=p.degree, label=label)


def rational_fn(num: Sequence, den: Sequence) -> LiftedFunction:
    """Quotient of polynomials, exact away from the denominator's zeros.

    The k-th derivative at t is k! times the o**k coefficient of
    p(t + o) / q(t + o), expanded by ``expand_rational``.  Only the last
    point's expansion is kept; an order below its floor expands again,
    to twice that order.  A pole raises ZeroDivisionError.
    """
    p, q = PolynomialFn(num), PolynomialFn(den)
    if q.coeffs == (0,):
        raise MathDomainError("zero denominator polynomial")
    last = {"t": None}

    def oracle(k: int, t: Fraction) -> Fraction:
        if last["t"] != t:
            p_t, q_t = _taylor_shift(p, t), _taylor_shift(q, t)
            if q_t[0] == 0:
                raise ZeroDivisionError(f"{t} is a pole of the rational function")
            last.update(t=t, p=p_t, q=q_t, expansion=None)
        expansion = last["expansion"]
        if expansion is None or expansion.known_coefficient(-k) is None:
            expansion = last["expansion"] = expand_rational(last["p"], last["q"], 2 * k)
        return factorial(k) * expansion.coefficient(-k)

    return LiftedFunction(
        oracle=oracle,
        domain=lambda t: q(t) != 0,
        label="rational",
    )


def _taylor_shift(p: PolynomialFn, t: Fraction) -> list:
    """Coefficients of p at t + o, in ascending powers of o."""
    shifted = p.eval_series(t + O_UNIT)
    return [shifted.coefficient(-j) for j in range(p.degree + 1)]


def power_fn(alpha) -> LiftedFunction:
    """The power function t**alpha.

    Derivatives are falling-factorial multiples of t**(alpha-k).  For
    non-integer alpha the domain is t > 0 and t**(alpha-k) must have an
    exact rational value.
    """
    alpha = as_rational(alpha)
    is_integer = alpha.denominator == 1
    if is_integer and alpha >= 0:
        coeffs = [Fraction(0)] * int(alpha) + [Fraction(1)]
        fn = polynomial_fn(coeffs)
        return fn._replace(label=f"t^{alpha}")

    def domain(t: Fraction) -> bool:
        return t != 0 if is_integer else t > 0

    def oracle(k: int, t: Fraction) -> Fraction:
        return binomial_general(alpha, k) * factorial(k) * rational_pow(t, alpha - k)

    return LiftedFunction(oracle=oracle, domain=domain, label=f"t^{alpha}")


# ----------------------------------------------------------------------
# transcendental oracles in binary fixed point

# An integer X "at w bits" stands for X / 2**w; a unit is 2**-w.  Each helper
# bounds its error in units; each oracle sums at w >= VALUE_BITS + _GUARD bits
# and shows its error below 2**(_GUARD - w) of its value (Brent & Zimmermann,
# Modern Computer Arithmetic, ch. 4).
VALUE_BITS = 170
_GUARD = 12
_SIN_COS_DIGITS = 10_000  # integer digits of the largest point sin and cos take


class _PointOutOfRange(ArithmeticError):
    """A point refused before any sum; ``args[0]`` says why."""


def _bits(t: Fraction) -> int:
    """The b with 2**(b - 1) < |t| < 2**(b + 1), for t != 0."""
    return t.numerator.bit_length() - t.denominator.bit_length()


def _point_text(t: Fraction) -> str:
    # The point itself, or "about 10^N" once it has more than 50 digits.
    if max(abs(t.numerator), t.denominator) < 10**50:
        return format_rational(t)
    return f"about {'-' if t < 0 else ''}10^{round(_bits(t) * log10(2))}"


def _arc(p: int, q: int, w: int, sign: int) -> int:
    """The sum of sign**j y**(2j+1) / (2j+1) at w bits, y = p/q in [0, 1/3]:
    atan(y) for sign -1, atanh(y) for +1.  Each power floors once and errs
    by < 1/(1 - y*y) <= 9/8 units, each term by < 11/8, the tail by < 1/2:
    fewer than 2(N + 1) units for N terms, N <= L/3 + 1 for L first bits."""
    power, total, n, s = (p << w) // q, 0, 1, 1
    while power:
        total += s * (power // n)
        power = power * p * p // (q * q)
        n, s = n + 2, s * sign
    return total


def _taylor(x: int, w: int, i: int, step: int, sign: int) -> int:
    """The sum of sign**j x**n / n! over n = i, i + step, ... at w bits, for
    0 <= x <= 2**w, i in (0, 1).  Each term after the exact first floors once
    and, from the third on, is at most half the one before: it errs by < 2
    units, the tail by < 4, the sum by < 2(N + 1) for N <= L + 2 terms of L bits."""
    term, total, n, s, power = x if i else 1 << w, 0, i, 1, x**step
    while term:
        total += s * term
        term = (term * power >> step * w) // perm(n + step, step)
        n, s = n + step, s * sign
    return total


@lru_cache(maxsize=16)
def _pi(w: int) -> int:
    """pi = 16 atan(1/5) - 4 atan(1/239) at w bits, within 2 units: at
    g = bit_length(w) + 5 more bits the sums err by < 40((w + g)/3 + 2) < 2**g."""
    g = w.bit_length() + 5
    return 4 * (4 * _arc(1, 5, w + g, -1) - _arc(1, 239, w + g, -1)) >> g


@lru_cache(maxsize=16)
def _ln2(w: int) -> int:
    """log 2 = 2 atanh(1/3) at w bits, within 2 units as pi is."""
    g = w.bit_length() + 5
    return 2 * _arc(1, 3, w + g, 1) >> g


def _exp(t: Fraction) -> Fraction:
    """exp(t) = 2**n exp(r), n nearest t / log 2; a |t| whose value passes
    the size limit is refused.  At w + 32 bits t floors within 1 unit and
    log 2 within 2, so n log 2 (|n| < 2**22) errs by < 2**23 and r (|r| <
    0.35), shifted to w bits, by < 2 units.  The sum (N <= w + 3) errs by
    < 2w + 8 units, r's error adds < 2.9, and exp(r) > 0.7: the error is
    below 1.43 (2w + 11) 2**-w of the value."""
    if abs(t) > int(_VALUE_LIMIT_BITS * log(2)):
        raise _PointOutOfRange(f"has a value of more than {_VALUE_LIMIT_BITS} bits")
    w = VALUE_BITS + _GUARD
    ln2, x = _ln2(w + 32), (t.numerator << w + 32) // t.denominator
    n = (2 * x + ln2) // (2 * ln2)
    x -= n * ln2
    return Fraction(2) ** (n - w) * _taylor(abs(x) >> 32, w, 0, 1, 1 if x >= 0 else -1)


def _log(t: Fraction) -> Fraction:
    """log t = e log 2 + 2 atanh(y), t = 2**e m, m in [2/3, 4/3], y = (m - 1)
    / (m + 1) in [-1/5, 1/7].  Flooring y costs < 2.1 units, the doubled sum
    < 4(N + 1), e log 2 < 2 (log 2 at 10 + bit_length(e) more bits, within
    2 units there).  For e != 0, |log t| > 0.28 and N <= w/3 + 1:
    below 3.6 (4w/3 + 13) 2**-w of the value.  For e = 0 the sum takes w'
    bits, one more than y has leading zeros beyond w, so |log t| >= 2|y| >
    2**(w + 1 - w') and N <= (w + 2)/3 + 1: below (4w/3 + 13) 2**(-w - 1)."""
    num, den, e = t.numerator, t.denominator, _bits(t)
    a, c = (num, den << e) if e >= 0 else (num << -e, den)
    if 3 * a > 4 * c:
        c, e = c << 1, e + 1
    elif 3 * a < 2 * c:
        a, e = a << 1, e - 1
    w = VALUE_BITS + _GUARD + (0 if e else (a + c).bit_length() - abs(a - c).bit_length() + 1)
    atanh = 2 * _arc((abs(a - c) << w) // (a + c), 1 << w, w, 1)
    shift = e.bit_length() + 10
    total = (e * _ln2(w + shift) >> shift if e else 0) + (atanh if a >= c else -atanh)
    return Fraction(total, 1 << w)


def _sin_cycle(t: Fraction) -> tuple:
    """(sin t, cos t, -sin t, -cos t), from t = k pi/2 + r with k nearest
    2t/pi and |r| <= pi/4; a |t| of more than _SIN_COS_DIGITS integer digits
    is refused, by bit length first.  At u = v + max(b, 0) + 2 bits, where
    2**(b - 1) < |t| < 2**(b + 1), t floors within 1 unit and k pi/2 within
    2|k|, so r errs by < 2.2 units at v; for b < -1, |t| < 1/2 gives k = 0
    and no pi is summed.  v starts at w + 4 + max(-b - 1, 0), which serves
    every b < 0, doubles while r < 4 units and else moves to give r w + 2
    bits, until 2**w <= r < 2**(w + 4) units (t = 0 sums exactly).  sin r
    >= 0.9r, and its sum (N <= w + 6) errs by < 2w + 17 units with r's
    error: below 1.12 (2w + 17) 2**-w of it.  cos r >= 0.7, and its sum (N
    <= v + 3) errs by < 2v + 11 units: below 1.43 (2w + 11) 2**-w of it, as
    v >= w."""
    bits = _bits(t)
    if bits >= int(_SIN_COS_DIGITS * log2(10)) and abs(t) >= 10**_SIN_COS_DIGITS:
        raise _PointOutOfRange(
            f"has more than {_SIN_COS_DIGITS} integer digits to reduce modulo 2*pi"
        )
    w = VALUE_BITS + _GUARD
    v = w + 4 + max(-bits - 1, 0)
    while True:
        u = v + max(bits, 0) + 2
        x, k = (t.numerator << u) // t.denominator, 0
        if bits > -2:
            half_pi = _pi(u - 1)
            k = (2 * x + half_pi) // (2 * half_pi)
            x -= k * half_pi
        r = abs(x) >> u - v
        if w < r.bit_length() <= w + 4 or t == 0:
            break
        v += w + 2 - r.bit_length() if r >> 2 else v
    sin_r, cos_r = (1 if x >= 0 else -1) * _taylor(r, v, 1, 2, -1), _taylor(r, v, 0, 2, -1)
    cycle = tuple(Fraction(n, 1 << v) for n in (sin_r, cos_r, -sin_r, -cos_r))
    return cycle[k % 4 :] + cycle[: k % 4]


def exp_fn() -> LiftedFunction:
    """Exponential; every derivative is the function itself, so the last
    point's value serves every order."""
    value = lru_cache(maxsize=1)(_exp)
    return LiftedFunction(oracle=lambda k, t: value(t), label="exp")


def log_fn() -> LiftedFunction:
    """Natural logarithm on t > 0.

    Only the value itself is summed; every higher derivative
    (-1)**(k-1) (k-1)! / t**k is an exact rational.
    """

    def oracle(k: int, t: Fraction) -> Fraction:
        if k == 0:
            return _log(t)
        return Fraction((-1) ** (k - 1) * factorial(k - 1)) / t**k

    return LiftedFunction(oracle=oracle, domain=lambda t: t > 0, label="log")


def sin_fn() -> LiftedFunction:
    """Sine; derivatives cycle through sin, cos, -sin, -cos, all four
    kept for the last point."""

    cycle = lru_cache(maxsize=1)(_sin_cycle)
    return LiftedFunction(oracle=lambda k, t: cycle(t)[k % 4], label="sin")


def cos_fn() -> LiftedFunction:
    """Cosine, the derivative of sine."""
    return derivative(sin_fn())._replace(label="cos")
