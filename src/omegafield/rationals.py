"""Exact rational scalars.

Coefficients throughout the library are arbitrary-precision rationals in
canonical form (positive denominator, gcd one).  The standard library
``fractions.Fraction`` already guarantees both invariants, so it is used
directly; this module adds coercion, formatting and exact root extraction
on top of it.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import _EXPORTS
from .errors import (
    DivisionByZeroError,
    IrrationalLeadingCoefficientError,
    MathDomainError,
    NegativeBaseError,
    PrecisionExhaustedError,
)

__all__ = _EXPORTS["rationals"]


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or string (``n``, ``n/d`` or a decimal) to
    an exact rational; the one place a rational string is read.

    Floats and bools are rejected with TypeError: a float would smuggle
    binary rounding into arithmetic that is exact by contract.  A string
    in exponent notation raises ValueError before any conversion, since
    ``Fraction("1e999999999")`` builds a billion-digit integer; so does one
    with an underscore, or a non-ASCII character inside surrounding space.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not an exact rational: {value!r}")
        if "_" in value or not value.strip().isascii():
            raise ValueError(f"not a plain ASCII rational: {value!r}")
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_int(value, name: str, least: "int | None" = None) -> int:
    """``value`` itself when it is an int of at least ``least``.

    An order, index, count, exponent or floor that is not an int, or is a
    bool, raises TypeError; one below ``least`` raises ValueError.
    ``name`` is the argument the message blames.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}")
    return value


# The size limit: bits of the largest numerator or denominator that a power
# or an exp may build, about 10**1,000,000.
_VALUE_LIMIT_BITS = 3_321_928

#: Default number of infinitesimal orders carried by truncating operations.
DEFAULT_DEPTH = 16


def resolve_depth(depth: "int | None", name: str = "depth") -> int:
    """The working depth: ``DEFAULT_DEPTH`` for None, else ``depth`` itself.

    A depth that is not an int, or is a bool, raises TypeError.  A
    negative depth would put the floor above the standard part and
    silently drop it, so it raises MathDomainError; ``name`` is the
    setting the message blames.
    """
    if depth is None:
        return DEFAULT_DEPTH
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise TypeError(f"{name} must be an int or None")
    if depth < 0:
        raise MathDomainError(f"{name} must be non-negative")
    return depth


def _digits(n: int) -> str:
    """``str(n)``, also for more digits than ``sys.get_int_max_str_digits()``.

    Past that limit the digits are rendered in pieces of at most ``limit``
    digits each, split off by powers of ten; the limit is never changed.
    """
    try:
        return str(n)
    except ValueError:
        pass
    width = sys.get_int_max_str_digits()  # not 0: str() would have succeeded
    unit = 10**width
    magnitude = abs(n)
    pieces = []
    while magnitude >= unit:
        magnitude, piece = divmod(magnitude, unit)
        pieces.append(str(piece).zfill(width))
    pieces.append(str(magnitude))
    return ("-" if n < 0 else "") + "".join(reversed(pieces))


def format_rational(q: Fraction) -> str:
    """Render ``num/den`` with a ``/1`` denominator suppressed."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return format_rational_json(q)


def format_rational_json(q: Fraction) -> str:
    """Render ``num/den`` always carrying the denominator, for JSON."""
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a non-negative integer, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():
        return None  # 1 < n < 2**k, so the root lies strictly between 1 and 2
    # Newton iteration on integers, seeded from the bit length.
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def rational_pow(base: Fraction, exponent: Fraction) -> Fraction:
    """Exact ``base ** exponent`` for rational exponents.

    Raises NegativeBaseError for a non-integer power of a negative base
    and IrrationalLeadingCoefficientError when no exact rational root
    exists.  A power p/q, |p| > q, of an n-bit base has at least (n - 1)
    |p|/q bits; past the size limit it raises PrecisionExhaustedError
    before building anything.
    """
    base = as_rational(base)
    exponent = as_rational(exponent)
    size = max(base.numerator.bit_length(), base.denominator.bit_length())
    p, q = abs(exponent.numerator), exponent.denominator
    if p > q and p * (size - 1) > _VALUE_LIMIT_BITS * q:
        raise PrecisionExhaustedError(
            f"power {format_rational(exponent)} of a {size}-bit base has more than "
            f"{_VALUE_LIMIT_BITS} bits"
        )
    if q == 1:
        return base ** int(exponent)
    if base < 0:
        raise NegativeBaseError(
            f"non-integer power {format_rational(exponent)} of negative base "
            f"{format_rational(base)}"
        )
    if base == 0:
        if exponent > 0:
            return Fraction(0)
        raise DivisionByZeroError("zero base with negative exponent")
    root_num = _int_nth_root(base.numerator, q)
    root_den = _int_nth_root(base.denominator, q)
    if root_num is None or root_den is None:
        raise IrrationalLeadingCoefficientError(
            f"{format_rational(base)} has no exact rational {q}-th root"
        )
    return Fraction(root_num, root_den) ** exponent.numerator
