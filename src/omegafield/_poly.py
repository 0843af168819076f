"""Dense polynomials with exact rational coefficients.

A polynomial is a list of Fractions, constant term first, with trailing
zeros stripped; the zero polynomial is ``[0]``.  Infinite integers,
integrands and the polynomial and rational lifts all keep their
coefficients in this one format.  Only normalization, derivatives and
Horner's scheme live here: sums, products and quotients of polynomials
go through the series kernel.
"""

from fractions import Fraction
from math import perm

from .rationals import as_rational


def normalize(coeffs) -> list:
    """Exact rationals with trailing zeros stripped; ``[0]`` for zero."""
    values = [as_rational(c) for c in coeffs] or [Fraction(0)]
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    return values


def derive(a, k: int = 1) -> list:
    """The k-th derivative."""
    return [perm(i, k) * a[i] for i in range(k, len(a))] or [Fraction(0)]


def evaluate(a, t):
    """Horner's scheme at t, a Fraction or a series value; a series t gives
    a series even for a constant, since ``Fraction(0) * t`` is one."""
    total = Fraction(0)
    for c in reversed(a):
        total = total * t + c
    return total
