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
from decimal import Decimal, Overflow, Underflow, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor, log10, perm

from . import _EXPORTS
from .coefficients import CoeffTable, D_to_d_table, binomial_general, d_to_D_table
from .errors import MathDomainError, PrecisionExhaustedError
from .integration import PolynomialFn
from .rationals import _as_int, as_rational, format_rational, rational_pow
from .series import OmegaNumber, ZERO, expand_rational, o as O_UNIT, resolve_depth

__all__ = [*_EXPORTS["lifting"], "CoeffTable", "d_to_D_table", "D_to_d_table"]

# Significant digits of the exp, log, sin and cos oracle values.
DECIMAL_DIGITS = 50
# Integer digits of the largest point sin and cos reduce modulo 2*pi.
_SIN_COS_DIGITS = 10_000


class LiftedFunction(namedtuple("LiftedFunction", "oracle domain degree label")):
    """Smooth function presented by its derivative oracle.

    ``oracle(k, t)`` returns the exact rational used for the k-th
    derivative at the standard point t.  For ``exp_fn``, ``log_fn``,
    ``sin_fn`` and ``cos_fn`` that rational is a ``DECIMAL_DIGITS``-digit
    decimal approximation of a transcendental value, converted exactly;
    everything downstream stays exact arithmetic on it.  ``domain(t)``
    tells whether t is a point of the domain (every t by default).
    ``degree`` marks oracles that vanish beyond a finite order, so
    polynomial lifts terminate and come back exact.
    """

    __slots__ = ()

    def __new__(cls, oracle, domain=lambda t: True, degree=None, label="f"):
        return super().__new__(cls, oracle, domain, degree, label)

    def derivative_at(self, k: int, t: Fraction) -> Fraction:
        """The oracle's k-th derivative at t; a decimal oracle whose value
        or point leaves ``decimal``'s exponent range, or a sin or cos point
        too long to reduce, raises PrecisionExhaustedError."""
        _as_int(k, "derivative order", 0)
        if self.degree is not None and k > self.degree:
            return Fraction(0)
        try:
            return self.oracle(k, t)
        except _PointOutOfRange as exc:
            problem, cause = exc.args[0], None
        except (Overflow, Underflow) as exc:
            problem, cause = "leaves the decimal exponent range", exc
        raise PrecisionExhaustedError(f"{self.label} at {_point_text(t)} {problem}") from cause

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
# fixed-precision transcendental oracles

# These functions have irrational values at almost every rational point,
# so their standard parts are carried as fixed-precision decimals and
# converted to exact rationals before entering series arithmetic.


class _PointOutOfRange(ArithmeticError):
    """A point refused before it is converted; ``args[0]`` says why."""


def _point_text(t: Fraction) -> str:
    # The point itself, or "about 10^N" once it has more than 50 digits.
    if max(abs(t.numerator), t.denominator) < 10**50:
        return format_rational(t)
    bits = t.numerator.bit_length() - t.denominator.bit_length()
    return f"about {'-' if t < 0 else ''}10^{round(bits * log10(2))}"


def _check_range(t: Fraction, ctx) -> None:
    # log2|t| lies strictly between bits - 1 and bits + 1.  Checked before
    # the point is converted, which costs time in its number of digits.
    if t == 0:
        return
    bits = t.numerator.bit_length() - t.denominator.bit_length()
    if (bits - 1) * log10(2) > ctx.Emax + 2 or (bits + 1) * log10(2) < ctx.Etiny() - 2:
        raise _PointOutOfRange("leaves the decimal exponent range")


def _digit_count(n: int) -> int:
    # Digits of n != 0: its bit length gives the count or one less.
    d = floor((n.bit_length() - 1) * log10(2)) + 1
    return d + (abs(n) >= 10**d)


def _decimal_quotient(num: int, den: int) -> Decimal:
    """num / den, den > 0, rounded once by the current context, as
    ``Decimal(num) / Decimal(den)`` is, in time about linear in their
    digits; ``Decimal(int)`` alone is quadratic in them."""
    # An integer quotient with at least three digits beyond the precision,
    # and a last, sticky digit that is 1 when the division left a remainder.
    scale = getcontext().prec + 3 - floor((num.bit_length() - den.bit_length() - 1) * log10(2))
    q, r = divmod(abs(num) * 10 ** max(scale, 0), den * 10 ** max(-scale, 0))
    value = Decimal((-1 if num < 0 else 1) * (10 * q + (r != 0))).scaleb(-scale - 1)
    # An exact quotient sheds its padding zeros; shorter digits compute faster.
    return value if r else value.normalize()


def _to_decimal(t: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 10
        ctx.traps[Underflow] = True  # a point too small raises, never rounds to 0
        _check_range(t, ctx)
        return _decimal_quotient(t.numerator, t.denominator)


def _decimal_pi() -> Decimal:
    """Pi at the current precision, by the ``decimal`` documentation's recipe."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, term, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while total != lasts:
            lasts = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            term = (term * n) / d
            total += term
    return +total


def _reduce_mod_2pi(t: Fraction) -> Decimal:
    """t minus the nearest multiple of 2*pi, to about 62 digits after the point.

    The multiple of 2*pi is as large as t, so the subtraction is carried
    out with at least one extra digit per integer digit of t; a t with more
    than ``_SIN_COS_DIGITS`` integer digits is refused.
    """
    whole_digits = _digit_count(t.numerator) - _digit_count(t.denominator) + 2
    if whole_digits >= _SIN_COS_DIGITS + 2 and abs(t) >= 10**_SIN_COS_DIGITS:
        raise _PointOutOfRange(
            f"has more than {_SIN_COS_DIGITS} integer digits to reduce modulo 2*pi"
        )
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 12 + whole_digits
        x = _decimal_quotient(t.numerator, t.denominator)
        two_pi = 2 * _decimal_pi()
        return x - two_pi * (x / two_pi).to_integral_value()


def _decimal_sin_cos(t: Fraction):
    # Taylor summation at extended precision, stopping once the partial
    # sums stop moving at the working precision.  Beyond |t| = 3 the sum
    # would cancel away about 0.43 digits per unit of |t|, so t is first
    # reduced modulo 2*pi; below pi the nearest multiple of 2*pi is 0.
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 12
        x = _to_decimal(t) if abs(t) <= 3 else _reduce_mod_2pi(t)
        xx = x * x
        sin_acc = _alternating_taylor_sum(x, 1, xx)
        cos_acc = _alternating_taylor_sum(Decimal(1), 0, xx)
        ctx.prec = DECIMAL_DIGITS
        return +sin_acc, +cos_acc


def _alternating_taylor_sum(first: Decimal, i: int, xx: Decimal) -> Decimal:
    # first - first*xx/((i+1)(i+2)) + first*xx**2/((i+1)...(i+4)) - ...,
    # summed at the current precision until the partial sums stop moving:
    # sin from first = x, i = 1 and cos from first = 1, i = 0.
    last, acc, fact, num, sign = 0, first, 1, first, 1
    while acc != last:
        last = acc
        i += 2
        fact *= i * (i - 1)
        num *= xx
        sign *= -1
        acc += num / fact * sign
    return acc


def exp_fn() -> LiftedFunction:
    """Exponential; every derivative is the function itself, so the last
    point's value serves every order."""

    @lru_cache(maxsize=1)
    def value(t: Fraction) -> Fraction:
        with localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            ctx.traps[Underflow] = True
            return Fraction(_to_decimal(t).exp())

    return LiftedFunction(oracle=lambda k, t: value(t), label="exp")


def log_fn() -> LiftedFunction:
    """Natural logarithm on t > 0.

    Only the value itself needs decimals; every higher derivative
    (-1)**(k-1) (k-1)! / t**k is an exact rational.
    """

    def oracle(k: int, t: Fraction) -> Fraction:
        if k == 0:
            with localcontext() as ctx:
                ctx.prec = DECIMAL_DIGITS
                return Fraction(_to_decimal(t).ln())
        return Fraction((-1) ** (k - 1) * factorial(k - 1)) / t**k

    return LiftedFunction(oracle=oracle, domain=lambda t: t > 0, label="log")


def sin_fn() -> LiftedFunction:
    """Sine; derivatives cycle through sin, cos, -sin, -cos, all four
    kept for the last point."""

    @lru_cache(maxsize=1)
    def cycle(t: Fraction) -> tuple:
        # Negate after the exact conversion: unary minus on a Decimal
        # rounds to the ambient context and would corrupt the digits.
        sin_t, cos_t = map(Fraction, _decimal_sin_cos(t))
        return sin_t, cos_t, -sin_t, -cos_t

    return LiftedFunction(oracle=lambda k, t: cycle(t)[k % 4], label="sin")


def cos_fn() -> LiftedFunction:
    """Cosine, the derivative of sine."""
    return derivative(sin_fn())._replace(label="cos")
