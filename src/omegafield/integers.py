"""Infinite integers and the lattice they count.

The lattice consists of points ``t + k*o`` (standard rational t, integer
multiplier k).  Counting the o-stepped points inside an interval yields
polynomials in the infinite unit S: degree-one counts ``t*S + k`` for the
non-negative lattice, and their inductive closure under addition and
multiplication, which is exactly the set of polynomials with an integer
constant term and a positive leading coefficient.  These behave like
natural numbers defined to within one unit: each has a distinct
successor, yet every one of them with an infinite part exceeds every
standard integer.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    IndistinguishableError,
    MathDomainError,
    PrecisionExhaustedError,
)
from .rationals import _as_int, as_rational, format_rational_json
from .series import ComparisonResult, OmegaNumber

__all__ = [
    "R1Point",
    "R1Interval",
    "AlephNumber",
    "ALEPH_ZERO",
    "ALEPH_ONE",
    "SIGMA",
    "count_interval",
    "phi",
    "psi",
    "successor",
    "predecessor",
    "oplus",
    "otimes",
    "oplus_inductive",
    "otimes_inductive",
    "compare_aleph",
    "embed",
    "integer_truncation",
    "archimedean_witness",
]


class R1Point(namedtuple("R1Point", "t k")):
    """Lattice point t + k*o, ordered by (t, k)."""

    __slots__ = ()

    def __new__(cls, t, k: int):
        return super().__new__(cls, as_rational(t), _as_int(k, "the o-multiplier"))

    @property
    def is_nonnegative(self) -> bool:
        """Membership in the non-negative lattice (t > 0, or t = 0 and k >= 0)."""
        return self.t > 0 or (self.t == 0 and self.k >= 0)

    def value(self) -> OmegaNumber:
        """The point as a series value."""
        return OmegaNumber([(0, self.t), (-1, Fraction(self.k))])

    def shifted(self, steps: int = 1) -> "R1Point":
        """The lattice point ``steps`` o-steps away."""
        return R1Point(self.t, self.k + steps)

    def __add__(self, other: "R1Point") -> "R1Point":
        return R1Point(self.t + other.t, self.k + other.k)

    def __sub__(self, other: "R1Point") -> "R1Point":
        return R1Point(self.t - other.t, self.k - other.k)

    def __str__(self):
        return str(self.value())


class R1Interval(namedtuple("R1Interval", "lo hi closed")):
    """Interval of lattice points between two endpoints.

    ``closed`` includes both endpoints; otherwise the upper endpoint is
    excluded.  The count of contained points depends only on the
    difference of the endpoints.
    """

    __slots__ = ()

    def __new__(cls, lo: R1Point, hi: R1Point, closed: bool = True):
        if not lo <= hi:
            raise MathDomainError("interval endpoints out of order")
        return super().__new__(cls, lo, hi, closed)

    @property
    def is_empty(self) -> bool:
        return not self.closed and self.lo == self.hi


class AlephNumber:
    """Polynomial in the infinite unit S that denotes an infinite integer.

    Admissible coefficient lists (constant first) have either a single
    natural entry, or degree >= 1 with an integer constant term and a
    positive leading coefficient.  Interior coefficients may be any
    rationals; they arise from counts such as t*S + k with fractional t.
    The number keeps the exact series it denotes, which ``embed`` returns.
    """

    __slots__ = ("_value",)

    def __init__(self, coeffs: Sequence = (0,)):
        self._value = _admissible(
            OmegaNumber._build(dict(enumerate(map(as_rational, coeffs))), None)
        )

    @classmethod
    def _of(cls, value: OmegaNumber) -> "AlephNumber":
        # The number whose series is value, a polynomial in S.
        self = object.__new__(cls)
        self._value = _admissible(value)
        return self

    @classmethod
    def from_int(cls, n: int) -> "AlephNumber":
        return cls((n,))

    @property
    def coeffs(self) -> tuple:
        """Coefficients, constant term first."""
        return tuple(_coefficient_list(self._value))

    @property
    def degree(self) -> int:
        return max(self._value.support, default=0)

    @property
    def is_standard(self) -> bool:
        return self._value.is_standard

    def coefficient(self, k: int) -> Fraction:
        return self._value.coefficient(k)

    def __eq__(self, other):
        if isinstance(other, AlephNumber):
            other = other._value
        elif not isinstance(other, int):
            return NotImplemented
        return self._value == other

    def __hash__(self):
        # A standard integer equals its int, so it hashes as one.
        return hash(self._value)

    def __str__(self):
        return str(self._value)

    def __repr__(self):
        return f"AlephNumber({self})"

    def to_json(self) -> dict:
        return {"kind": "aleph", "coeffs": [format_rational_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "AlephNumber":
        if data.get("kind") != "aleph":
            raise ValueError("not a serialized infinite integer")
        return cls([Fraction(c) for c in data["coeffs"]])


def _admissible(value: OmegaNumber) -> OmegaNumber:
    # value itself when it is the series of an admissible coefficient list.
    degree = max(value.support, default=0)
    constant, lead = value.coefficient(0), value.coefficient(degree)
    if degree == 0 and (constant.denominator != 1 or constant < 0):
        raise MathDomainError(f"{constant} is not a natural number")
    if constant.denominator != 1:
        raise MathDomainError(f"constant term {constant} must be an integer")
    if degree and lead <= 0:
        raise MathDomainError(f"leading coefficient {lead} must be positive")
    return value


ALEPH_ZERO = AlephNumber((0,))
ALEPH_ONE = AlephNumber((1,))
#: The count of o-stepped points from o up to 1: the infinite unit itself.
SIGMA = AlephNumber((0, 1))


def phi(point: R1Point) -> AlephNumber:
    """Count-based image of a non-negative lattice point: t*S + k.

    Counting the o-stepped progression from o up to t + k*o gives t*S + k
    points, the closed form validated by finite surrogates (replace S by
    a concrete integer M and o by 1/M).
    """
    if not point.is_nonnegative:
        raise MathDomainError(f"{point} is not in the non-negative lattice")
    return AlephNumber((Fraction(point.k), point.t))


def psi(number: AlephNumber) -> R1Point:
    """Inverse of phi on counts of degree at most one."""
    if number.degree > 1:
        raise MathDomainError(
            "only degree <= 1 integers correspond to lattice points"
        )
    return R1Point(number.coefficient(1), int(number.coefficient(0)))


def count_interval(interval: R1Interval) -> AlephNumber:
    """Number of lattice points inside the interval.

    A closed interval [a, b] holds phi(b - a) + 1 points; dropping the
    upper endpoint drops the final point.  Depends only on b - a.
    """
    if interval.is_empty:
        raise MathDomainError("empty interval has no well-defined count")
    span = phi(interval.hi - interval.lo)
    return oplus(span, ALEPH_ONE) if interval.closed else span


def successor(number: AlephNumber) -> AlephNumber:
    """The next integer: constant term raised by one."""
    return AlephNumber._of(embed(number) + 1)


def predecessor(number: AlephNumber) -> AlephNumber:
    """The previous integer; zero has none."""
    if number == ALEPH_ZERO:
        raise MathDomainError("zero has no predecessor")
    return AlephNumber._of(embed(number) - 1)


def oplus(left: AlephNumber, right: AlephNumber) -> AlephNumber:
    """Closed-form sum: the series sum of the embedded integers."""
    return AlephNumber._of(embed(left) + embed(right))


def otimes(left: AlephNumber, right: AlephNumber) -> AlephNumber:
    """Closed-form product: the series product of the embedded integers."""
    return AlephNumber._of(embed(left) * embed(right))


def oplus_inductive(number: AlephNumber, steps: int) -> AlephNumber:
    """Sum with a standard natural, by repeated successor."""
    acc = number
    for _ in range(_as_int(steps, "steps", 0)):
        acc = successor(acc)
    return acc


def otimes_inductive(number: AlephNumber, factor: int) -> AlephNumber:
    """Product with a standard natural, by repeated addition.

    Unfolds the recursion L*(m+1) = L*m + L; the accumulated addition is
    the transferred sum, since adding a full infinite integer cannot be
    reached by finitely many successor steps.
    """
    acc = ALEPH_ZERO
    for _ in range(_as_int(factor, "factor", 0)):
        acc = oplus(acc, number)
    return acc


def compare_aleph(left: AlephNumber, right: AlephNumber) -> ComparisonResult:
    """Lexicographic comparison from the top degree downward."""
    return embed(left).compare(embed(right))


def embed(number: AlephNumber) -> OmegaNumber:
    """The integer as an exact series value; a ring homomorphism."""
    return number._value


def integer_truncation(value: OmegaNumber) -> AlephNumber:
    """The integer L with embed(L) <= value < embed(L) + 1.

    Keeps the positive-degree coefficients, floors the constant term and
    drops the infinitesimal tail; when the dropped tail is negative and
    the constant was already an integer the candidate overshoots by one
    and is decremented.  Requires value >= 0 with its sign and
    non-negative-exponent coefficients known.
    """
    candidate = _truncation_candidate(value)
    try:
        relation = value.compare(embed(candidate))
    except IndistinguishableError as exc:
        raise PrecisionExhaustedError(
            "fractional remainder is not resolvable at this precision"
        ) from exc
    if relation is ComparisonResult.LT:
        candidate = predecessor(candidate)
    return candidate


def _truncation_candidate(value: OmegaNumber) -> AlephNumber:
    # The positive-degree part of value plus its floored constant term.
    try:
        sign = value.sign()
    except IndistinguishableError as exc:
        raise PrecisionExhaustedError(
            "sign of the value is not known at this precision"
        ) from exc
    if sign < 0:
        raise MathDomainError("integer truncation requires a non-negative value")
    if value.floor is not None and value.floor > 0:
        raise PrecisionExhaustedError(
            "constant coefficient of the value is unknown"
        )
    coeffs = _coefficient_list(value)
    coeffs[0] = Fraction(coeffs[0].numerator // coeffs[0].denominator)
    return AlephNumber(coeffs)


def _coefficient_list(value: OmegaNumber) -> list:
    # Coefficients at exponents 0 up to the top, constant term first.
    return [value.coefficient(e) for e in range(max(value.support + (0,)) + 1)]


def archimedean_witness(a: OmegaNumber, b: OmegaNumber) -> AlephNumber:
    """An integer L with (L + 1) * a strictly above |b|, for a > 0.

    Obtained as the integer truncation of |b| / a: some multiple of the
    denominator always overtakes the numerator, whatever their orders of
    magnitude.  When a and b are exact and |b| / a is exactly an infinite
    integer, the truncated quotient agrees with it on every known
    coefficient, so truncation alone cannot settle it; the candidate read
    off the quotient is then confirmed by multiplying back.
    """
    if a.sign() <= 0:
        raise MathDomainError("witness requires a positive denominator")
    if b.is_zero:
        return ALEPH_ZERO
    quotient = abs(b) * a.invert()
    if a.is_exact and b.is_exact:
        candidate = _truncation_candidate(quotient)
        if embed(candidate) * a == abs(b):
            return candidate
    return integer_truncation(quotient)
