"""Discrete integral sums over the o-stepped lattice.

The integral of f from 0 to an upper lattice point accumulates f(n*o)*o
over all lattice points below the upper bound.  For polynomial f the sum
collapses in closed form: each monomial contributes a power-sum of the
first L naturals, where L = t*S + k is the (infinite) number of lattice
points, and power sums are polynomials in L with Bernoulli coefficients.
Substituting L and o = 1/S back gives an exact series value whose
standard part is the ordinary integral.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from . import _EXPORTS
from .coefficients import bernoulli
from .errors import MathDomainError
from .rationals import _as_int, as_rational
from .series import S, OmegaNumber

if TYPE_CHECKING:
    from .integers import R1Point

__all__ = _EXPORTS["integration"]

#: The largest degree the lattice sum takes, that of faulhaber's power sums.
_DEGREE_BOUND = 12


class PolynomialFn:
    """The library's dense polynomial in t: exact rational coefficients,
    constant first, trailing zeros stripped (zero keeps one 0)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence):
        values = [as_rational(c) for c in coeffs] or [Fraction(0)]
        while len(values) > 1 and values[-1] == 0:
            values.pop()
        self._coeffs = tuple(values)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __call__(self, t):
        return self.eval_series(as_rational(t))

    def eval_series(self, x: OmegaNumber) -> OmegaNumber:
        """Horner's scheme at x, a Fraction or a series value; a series x
        gives a series even for a constant, since ``Fraction(0) * x`` is one."""
        total = Fraction(0)
        for c in reversed(self._coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        if not isinstance(other, PolynomialFn):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return f"PolynomialFn({list(self._coeffs)})"


def faulhaber(j: int) -> PolynomialFn:
    """Closed form of sum(n**j for n in range(L)) as a polynomial in L.

    Degree j + 1 with leading coefficient 1/(j+1) and zero constant
    term; the Bernoulli convention used here matches the lower-exclusive
    sum, so faulhaber(j)(L) counts n = 0 .. L-1 exactly.  Powers above
    12 are refused.
    """
    if _as_int(j, "power", 0) > _DEGREE_BOUND:
        raise MathDomainError(f"power {j} exceeds the bound {_DEGREE_BOUND}")
    coeffs = [Fraction(0)] * (j + 2)
    for i in range(j + 1):
        coeffs[j + 1 - i] = Fraction(comb(j + 1, i), j + 1) * bernoulli(i)
    return PolynomialFn(coeffs)


def discrete_integral(
    f: PolynomialFn, upper: R1Point, g0=Fraction(0)
) -> OmegaNumber:
    """Integral sum of f over the lattice points below ``upper``.

    Expands f(n*o)*o monomial by monomial, replaces each power sum by its
    closed form at the point count L = phi(upper), and evaluates exactly
    with L as the series S * (t + k*o) = t*S + k.  The empty sum returns
    the integration constant g0.  f of degree above 12 is refused.
    """
    if f.degree > _DEGREE_BOUND:
        raise MathDomainError(f"degree {f.degree} exceeds the bound {_DEGREE_BOUND}")
    if not upper.is_nonnegative:
        raise MathDomainError(f"{upper} is not in the non-negative lattice")
    count = S * upper.value()
    total = OmegaNumber.single(0, as_rational(g0))
    for j, a in enumerate(f.coeffs):
        if a == 0:
            continue
        power_sum = faulhaber(j).eval_series(count)
        total = total + power_sum * OmegaNumber.single(-(j + 1), a)
    return total


def riemann(f: PolynomialFn, t) -> Fraction:
    """Exact antiderivative of f evaluated from 0 to t."""
    t = as_rational(t)
    return t * PolynomialFn([a / (j + 1) for j, a in enumerate(f.coeffs)])(t)


def difference_equation_check(f: PolynomialFn, x1: R1Point, g0=Fraction(0)) -> bool:
    """One o-step of the integral equals f at the point, times o.

    Exact identity: the sum to x1 + o has exactly one more term than the
    sum to x1, namely f(x1)*o.
    """
    lhs = discrete_integral(f, x1.shifted(1), g0) - discrete_integral(f, x1, g0)
    rhs = f.eval_series(x1.value()) * OmegaNumber.single(-1, 1)
    return lhs == rhs


def ns_continuity_check(f: PolynomialFn, x1: R1Point, k: int, g0=Fraction(0)) -> bool:
    """Moving k lattice steps changes the integral only infinitesimally."""
    _as_int(k, "step count", 1)
    delta = discrete_integral(f, x1.shifted(k), g0) - discrete_integral(f, x1, g0)
    return delta.is_infinitesimal
