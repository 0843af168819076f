"""Exception hierarchy.

Two error families matter to callers: mathematical domain violations
(division by zero, invalid exponents, membership failures) and precision
failures (a truncated value does not carry enough known coefficients to
answer the question).  Each class carries the CLI exit code it maps to
as ``exit_code``.
"""

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class OmegaError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class MathDomainError(OmegaError):
    """Operation undefined for the given values (CLI exit code 3)."""


class DivisionByZeroError(MathDomainError):
    """Inverting or dividing by an exact zero."""


class FractionalLeadingExponentError(MathDomainError):
    """Rational power whose leading exponent would not be an integer.

    No series with integer exponents squares to the infinitesimal
    generator, so e.g. sqrt(o) must be rejected.
    """


class NegativeBaseError(MathDomainError):
    """Non-integer power of a value with negative leading coefficient."""


class IrrationalLeadingCoefficientError(MathDomainError):
    """Exact rational root of the leading coefficient does not exist."""


class PrecisionError(OmegaError):
    """Known coefficients are insufficient to decide (CLI exit code 4)."""

    exit_code = 4


class PrecisionExhaustedError(PrecisionError):
    """A required coefficient lies below a value's precision floor."""


class IndistinguishableError(PrecisionError):
    """Comparison of values that agree on every known coefficient,
    at least one of them truncated."""


class NotCauchyError(PrecisionError):
    """A sequence failed to stabilize all requested moments within the
    given index budget."""


class ExprSyntaxError(OmegaError):
    """Malformed expression text (CLI exit code 2)."""

    exit_code = 2

    def __init__(self, message, position):
        super().__init__(f"{message} at column {position}")
        self.position = position
