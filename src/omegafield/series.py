"""Truncated formal series in the infinite unit S and its inverse o.

A value is a finite sum of terms ``a_e * S**e`` over integer exponents
``e`` with exact rational coefficients, together with a precision floor:
either the marker "exact" (every omitted coefficient is truly zero) or an
integer ``f`` meaning "coefficients at exponents >= f are correct, below
f nothing is claimed".  Exponent -1 is the positive infinitesimal ``o``,
so ``S * o == 1`` holds as an ordinary field product.

Values with top exponent <= 0 are series in o (infinitesimal-augmented
reals); values supported on exponent 0 alone are the ordinary rationals.
The order is lexicographic from the highest exponent downward, which
makes o positive yet smaller than every positive rational, and S larger
than every rational.

Every operation reports only coefficients it can certify, and raises a
PrecisionError rather than fabricate or silently equate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from fractions import Fraction

from . import _EXPORTS
from .errors import (
    DivisionByZeroError,
    FractionalLeadingExponentError,
    IndistinguishableError,
    MathDomainError,
    NotCauchyError,
    PrecisionExhaustedError,
)
from .rationals import DEFAULT_DEPTH, _as_int, as_rational, format_rational, resolve_depth
from .rationals import format_rational_json, rational_pow

__all__ = _EXPORTS["series"]

RationalLike = "int | Fraction | str"
EntryLike = "Mapping[int, RationalLike] | Iterable[tuple]"


class ComparisonResult(Enum):
    """Outcome of a lexicographic comparison."""

    LT = "<"
    EQ = "="
    GT = ">"

    @property
    def symbol(self) -> str:
        return self.value


class OmegaNumber:
    """Immutable truncated series with exact rational coefficients.

    ``floor=None`` marks an exact value (finite support, nothing hidden);
    an integer floor marks a truncation.  Arithmetic operators are exact
    on every coefficient above the result's floor, and the floor rules
    are chosen so that no reported coefficient is ever wrong.
    """

    __slots__ = ("_coeffs", "_floor")

    def __init__(self, entries: EntryLike = (), floor: "int | None" = None):
        if floor is not None:
            _as_int(floor, "floor")
        coeffs: dict = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for exponent, value in pairs:
            if _as_int(exponent, "exponent") in coeffs:
                raise ValueError(f"duplicate exponent {exponent}")
            if floor is not None and exponent < floor:
                raise ValueError(
                    f"entry at exponent {exponent} lies below the floor {floor}"
                )
            coeffs[exponent] = as_rational(value)
        self._coeffs = {e: v for e, v in coeffs.items() if v != 0}
        self._floor = floor

    @classmethod
    def _build(cls, coeffs: dict, floor: "int | None") -> "OmegaNumber":
        # Internal constructor: floors may legitimately drop entries.
        self = object.__new__(cls)
        self._coeffs = {
            e: v
            for e, v in coeffs.items()
            if v != 0 and (floor is None or e >= floor)
        }
        self._floor = floor
        return self

    @classmethod
    def single(cls, exponent: int, value: RationalLike) -> "OmegaNumber":
        """Exact single-term value ``value * S**exponent``."""
        return cls._build({_as_int(exponent, "exponent"): as_rational(value)}, None)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "OmegaNumber":
        """Exact standard value (supported on exponent 0)."""
        return cls.single(0, value)

    # ------------------------------------------------------------------
    # structure

    @property
    def floor(self) -> "int | None":
        """Precision floor, or None when the value is exact."""
        return self._floor

    @property
    def is_exact(self) -> bool:
        return self._floor is None

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero element."""
        return not self._coeffs and self._floor is None

    @property
    def is_truncated_zero(self) -> bool:
        """All known coefficients vanish but the value is truncated."""
        return not self._coeffs and self._floor is not None

    @property
    def top(self) -> int:
        """Largest exponent carrying a nonzero coefficient."""
        if self._coeffs:
            return max(self._coeffs)
        if self._floor is None:
            raise MathDomainError("the zero element has no leading exponent")
        raise PrecisionExhaustedError("no known nonzero coefficient")

    @property
    def support(self) -> tuple:
        """Known nonzero exponents, largest first."""
        return tuple(sorted(self._coeffs, reverse=True))

    def coefficient(self, exponent: int) -> Fraction:
        """Exact coefficient at ``exponent``; raises below the floor."""
        _as_int(exponent, "exponent")
        if self._floor is not None and exponent < self._floor:
            raise PrecisionExhaustedError(
                f"coefficient at exponent {exponent} is below the floor {self._floor}"
            )
        return self._coeffs.get(exponent, Fraction(0))

    def known_coefficient(self, exponent: int):
        """Coefficient at ``exponent`` or None when it is not known."""
        _as_int(exponent, "exponent")
        if self._floor is not None and exponent < self._floor:
            return None
        return self._coeffs.get(exponent, Fraction(0))

    def _refloor(self, new_floor: "int | None") -> "OmegaNumber":
        # Raising the floor discards knowledge; it can never invent any.
        if new_floor is None:
            return self
        if self._floor is not None and self._floor >= new_floor:
            return self
        return OmegaNumber._build(self._coeffs, new_floor)

    # ------------------------------------------------------------------
    # classification

    def _guard_series_in_o(self):
        if self._coeffs and max(self._coeffs) > 0:
            raise MathDomainError("value has an infinite part")
        if self._floor is not None and self._floor > 0:
            raise PrecisionExhaustedError(
                "coefficients at non-negative exponents are unknown"
            )

    @property
    def is_standard(self) -> bool:
        """Exact and supported on exponent 0 only."""
        return self._floor is None and all(e == 0 for e in self._coeffs)

    @property
    def is_infinitesimal(self) -> bool:
        """True when every known part sits strictly below exponent 0.

        Zero counts as infinitesimal.  Raises when the truncation hides
        the exponent-0 coefficient.
        """
        if any(e >= 0 for e in self._coeffs):
            return False
        if self._floor is not None and self._floor > 0:
            raise PrecisionExhaustedError(
                "cannot classify: non-negative exponents unknown"
            )
        return True

    # ------------------------------------------------------------------
    # ring operations

    @staticmethod
    def _coerce(value) -> "OmegaNumber":
        if isinstance(value, OmegaNumber):
            return value
        return OmegaNumber.single(0, as_rational(value))

    def __add__(self, other) -> "OmegaNumber":
        other = self._coerce(other)
        floors = [f for f in (self._floor, other._floor) if f is not None]
        floor = max(floors) if floors else None
        merged = dict(self._coeffs)
        for e, v in other._coeffs.items():
            merged[e] = merged.get(e, Fraction(0)) + v
        return OmegaNumber._build(merged, floor)

    __radd__ = __add__

    def __neg__(self) -> "OmegaNumber":
        return OmegaNumber._build(
            {e: -v for e, v in self._coeffs.items()}, self._floor
        )

    def __sub__(self, other) -> "OmegaNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "OmegaNumber":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "OmegaNumber":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return ZERO
        floor = self._mul_floor(self, other)
        prod: dict = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = e1 + e2
                prod[e] = prod.get(e, Fraction(0)) + v1 * v2
        return OmegaNumber._build(prod, floor)

    __rmul__ = __mul__

    @staticmethod
    def _mul_floor(x: "OmegaNumber", y: "OmegaNumber") -> "int | None":
        # The unknown tail of one factor times the known part of the other
        # pollutes everything below floor + top; with no known part the
        # cross term of the two tails starts one lower still.
        candidates = []
        if x._floor is not None:
            other_top = max(y._coeffs) if y._coeffs else y._floor - 1
            candidates.append(x._floor + other_top)
        if y._floor is not None:
            other_top = max(x._coeffs) if x._coeffs else x._floor - 1
            candidates.append(y._floor + other_top)
        return max(candidates) if candidates else None

    def __truediv__(self, other) -> "OmegaNumber":
        return self * self._coerce(other).invert()

    def __rtruediv__(self, other) -> "OmegaNumber":
        return self._coerce(other) * self.invert()

    def __pow__(self, n: int) -> "OmegaNumber":
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("use pow_alpha for non-integer exponents")
        if n < 0:
            return self.invert() ** (-n)
        result = ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # order

    def compare(self, other) -> ComparisonResult:
        """Lexicographic comparison by the leading coefficient of the
        difference.  Equality is only reported between exact values;
        truncated values that agree on all known coefficients raise
        IndistinguishableError instead of feigning equality."""
        diff = self - self._coerce(other)
        if diff._coeffs:
            lead = diff._coeffs[max(diff._coeffs)]
            return ComparisonResult.GT if lead > 0 else ComparisonResult.LT
        if diff._floor is None:
            return ComparisonResult.EQ
        raise IndistinguishableError(
            "values agree on all known coefficients but at least one is truncated"
        )

    def sign(self) -> int:
        """-1, 0 or +1; raises when truncation hides the sign."""
        result = self.compare(ZERO)
        if result is ComparisonResult.EQ:
            return 0
        return 1 if result is ComparisonResult.GT else -1

    def __abs__(self) -> "OmegaNumber":
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        return self.compare(other) is ComparisonResult.LT

    def __le__(self, other):
        return self.compare(other) is not ComparisonResult.GT

    def __gt__(self, other):
        return self.compare(other) is ComparisonResult.GT

    def __ge__(self, other):
        return self.compare(other) is not ComparisonResult.LT

    def __eq__(self, other):
        """Structural equality: same known coefficients and same floor.

        Use compare() for the order relation; == is representation
        identity, which is what exact tests want.
        """
        if not isinstance(other, (OmegaNumber, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self._coeffs == other._coeffs and self._floor == other._floor

    def __hash__(self):
        # An exact standard value equals its rational, so it hashes as one.
        if self.is_standard:
            return hash(self._coeffs.get(0, Fraction(0)))
        return hash((frozenset(self._coeffs.items()), self._floor))

    def agrees_with(self, other) -> bool:
        """True when both values carry the same coefficients at every
        exponent known to both (at or above the higher floor)."""
        other = self._coerce(other)
        floors = [f for f in (self._floor, other._floor) if f is not None]
        if not floors:
            return self == other
        cut = max(floors)
        mine = {e: v for e, v in self._coeffs.items() if e >= cut}
        theirs = {e: v for e, v in other._coeffs.items() if e >= cut}
        return mine == theirs

    # ------------------------------------------------------------------
    # series-in-o accessors

    def ord_o(self) -> int:
        """Least power of o with a nonzero coefficient (the valuation)."""
        if self.is_zero:
            raise MathDomainError("ord is undefined for the zero element")
        self._guard_series_in_o()
        if not self._coeffs:
            raise PrecisionExhaustedError("no known nonzero coefficient")
        return -self.top

    def standard_part(self) -> Fraction:
        """Coefficient at exponent 0 of a series in o."""
        self._guard_series_in_o()
        return self._coeffs.get(0, Fraction(0))

    def infinitesimal_part(self) -> "OmegaNumber":
        """The value minus its standard part; floor is preserved."""
        return self - OmegaNumber.single(0, self.standard_part())

    def moment(self, k: int) -> "OmegaNumber":
        """The single term of order k in o, as an exact value."""
        _as_int(k, "moment order", 0)
        self._guard_series_in_o()
        if self._floor is not None and -k < self._floor:
            raise PrecisionExhaustedError(
                f"moment of order {k} is below the floor {self._floor}"
            )
        value = self._coeffs.get(-k, Fraction(0))
        return ZERO if value == 0 else OmegaNumber.single(-k, value)

    def truncate(self, n: int) -> "OmegaNumber":
        """Drop every exponent below -n, yielding an exact finite value.

        The input must actually be known down to exponent -n; otherwise
        the omitted coefficients could be anything and the result would
        fabricate zeros.
        """
        _as_int(n, "truncation order", 0)
        if self._floor is not None and self._floor > -n:
            raise PrecisionExhaustedError(
                f"cannot truncate at order {n}: floor is {self._floor}"
            )
        return OmegaNumber._build(
            {e: v for e, v in self._coeffs.items() if e >= -n}, None
        )

    # ------------------------------------------------------------------
    # field operations

    def invert(self, depth: "int | None" = None) -> "OmegaNumber":
        """Multiplicative inverse.

        For a leading term a*S**N the inverse is S**-N / a times
        (1 + u)**-1 for the normalized tail u, whose coefficients come from
        J.C.P. Miller's recurrence (here b_n = -sum of u_k * b_{n-k}) in
        O(depth * terms) rational operations.  A truncated input known
        down to exponent f yields an inverse exact down to f - 2N; an
        exact input with a non-terminating inverse is carried to ``depth``
        infinitesimal orders below the leading term.
        """
        if self.is_zero:
            raise DivisionByZeroError("division by zero")
        return self.pow_alpha(Fraction(-1), depth)

    def pow_alpha(self, alpha, depth: "int | None" = None) -> "OmegaNumber":
        """Rational power: lead**alpha times (1 + u)**alpha for the
        normalized tail u, by J.C.P. Miller's recurrence in O(depth * terms)
        rational operations (see ``_binomial_series``).

        Requires alpha * top to be an integer (no series has a fractional
        leading exponent) and, for non-integer alpha, a positive leading
        coefficient with an exact rational root.
        """
        alpha = as_rational(alpha)
        depth = resolve_depth(depth)
        if self.is_zero:
            raise MathDomainError("power of the zero element")
        if self.is_truncated_zero:
            raise PrecisionExhaustedError(
                "cannot take powers of a value with no known nonzero coefficient"
            )
        n_top = self.top
        lead = self._coeffs[n_top]
        result_top = alpha * n_top
        if result_top.denominator != 1:
            raise FractionalLeadingExponentError(
                f"power {alpha} of a value with leading exponent {n_top} "
                "would need a fractional exponent"
            )
        lead_pow = rational_pow(lead, alpha)
        tail = self * OmegaNumber.single(-n_top, Fraction(1) / lead) - ONE
        series = _binomial_series(tail, alpha, depth)
        return series * OmegaNumber.single(int(result_top), lead_pow)

    # ------------------------------------------------------------------
    # rendering / serialization

    def __str__(self):
        if not self._coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self._coeffs, reverse=True):
                v = self._coeffs[e]
                symbol = _exponent_symbol(e)
                magnitude = abs(v)
                if symbol is None:
                    text = format_rational(magnitude)
                elif magnitude == 1:
                    text = symbol
                else:
                    text = f"{format_rational(magnitude)}*{symbol}"
                if not parts:
                    parts.append(text if v > 0 else f"-{text}")
                else:
                    parts.append(f"+ {text}" if v > 0 else f"- {text}")
            body = " ".join(parts)
        if self._floor is not None:
            return f"{body} [floor={self._floor}]"
        return body

    def __repr__(self):
        return f"OmegaNumber({self})"

    def to_json(self) -> dict:
        """Dict form: exponents as string keys, rationals as num/den."""
        data: dict = {"kind": "omega", "zero": self.is_zero}
        if self._coeffs:
            data["top"] = self.top
        data["coeffs"] = {
            str(e): format_rational_json(self._coeffs[e])
            for e in sorted(self._coeffs, reverse=True)
        }
        data["floor"] = "exact" if self._floor is None else self._floor
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "OmegaNumber":
        if data.get("kind") != "omega":
            raise ValueError("not a serialized series value")
        floor = data.get("floor", "exact")
        entries = [(as_rational(e), v) for e, v in data.get("coeffs", {}).items()]
        if any(e.denominator != 1 for e, _ in entries):
            raise ValueError("exponents must be integers")
        return cls([(int(e), v) for e, v in entries], None if floor == "exact" else floor)


def _exponent_symbol(e: int):
    if e == 0:
        return None
    if e == 1:
        return "S"
    if e == -1:
        return "o"
    if e > 1:
        return f"S^{e}"
    return f"o^{-e}"


def _binomial_series(u: OmegaNumber, alpha: Fraction, depth: int) -> OmegaNumber:
    """(1 + u)**alpha for an infinitesimal tail u, by J.C.P. Miller's recurrence.

    With u = sum of u_k * o**k (k >= 1), the coefficient b_n of o**n obeys
    b_0 = 1 and n * b_n = sum of ((alpha + 1) * k - n) * u_k * b_{n-k} over
    k = 1..n (Knuth, TAOCP vol. 2, section 4.7).  Order n costs one step per known
    nonzero u_k with k <= n, so the series to ``count`` orders costs
    O(count * terms) rational operations.  Since b_n reads only u_1..u_n
    and n never passes the result's floor, a truncated tail is never read
    below its own floor.
    """
    if not u.is_infinitesimal:
        raise MathDomainError("binomial series requires an infinitesimal tail")
    if u.is_zero:
        return ONE
    if u._floor is None:
        floor_g = -depth
        terminating = alpha.denominator == 1 and alpha >= 0
    else:
        floor_g = max(u._floor, -depth)
        terminating = False
    count = -floor_g
    if terminating and alpha <= count:
        # (1 + u)**alpha is a polynomial of degree alpha * (lowest order of u).
        count = int(alpha) * -min(u._coeffs)
        floor_g = None
    terms = sorted((-e, v) for e, v in u._coeffs.items())
    scale = alpha + 1
    b = [Fraction(1)]
    for n in range(1, count + 1):
        acc = Fraction(0)
        for k, v in terms:
            if k > n:
                break
            if b[n - k]:
                acc += (scale * k - n) * v * b[n - k]
        b.append(acc / n)
    return OmegaNumber._build({-n: c for n, c in enumerate(b)}, floor_g)


#: Exact constants: zero, one, the infinite unit S and the infinitesimal o.
ZERO = OmegaNumber._build({}, None)
ONE = OmegaNumber.single(0, 1)
S = OmegaNumber.single(1, 1)
o = OmegaNumber.single(-1, 1)


def omega(value: RationalLike) -> OmegaNumber:
    """Exact standard value from an int, Fraction or "num/den" string."""
    return OmegaNumber.from_rational(value)


def expand_rational(
    numerator: Sequence[RationalLike],
    denominator: Sequence[RationalLike],
    depth: "int | None" = None,
) -> OmegaNumber:
    """Expand a quotient of polynomials in o into a single series.

    Coefficient lists are ascending in powers of o.  A denominator with
    valuation k > 0 contributes a factor S**k, so the result may have an
    infinite part.  Terminating divisions come back exact; everything
    else is carried to ``depth`` orders.
    """
    depth = resolve_depth(depth)
    den = [as_rational(c) for c in denominator]
    num = [as_rational(c) for c in numerator]
    shift = next((i for i, c in enumerate(den) if c != 0), None)
    if shift is None:
        raise DivisionByZeroError("zero denominator polynomial")
    den = den[shift:]
    steps = depth + shift
    length = max(len(num), steps + len(den) + 1)
    remainder = num + [Fraction(0)] * (length - len(num))
    quotient = []
    for j in range(steps + 1):
        q = remainder[j] / den[0]
        quotient.append(q)
        if q != 0:
            for i, d in enumerate(den):
                remainder[j + i] -= q * d
        if not any(remainder):
            entries = {shift - i: c for i, c in enumerate(quotient) if c != 0}
            return OmegaNumber._build(entries, None)
    entries = {shift - i: c for i, c in enumerate(quotient) if c != 0}
    return OmegaNumber._build(entries, -depth)


def cauchy_limit(
    seq: Callable[[int], OmegaNumber],
    window: int,
    max_index: int,
    depth: "int | None" = None,
) -> OmegaNumber:
    """Limit of a coefficientwise-stabilizing sequence.

    Only the last ``window`` indices of the budget decide the limit, so
    ``seq`` is called on those alone.  Every exponent down to the limit's
    floor must hold one coefficient in all of them; the limit collects
    those coefficients.  Its floor is -depth, raised to the highest floor
    among the window's elements, since nothing below that is known in
    all of them.  Failure to stabilize raises NotCauchyError.
    """
    _as_int(window, "window", 1)
    if _as_int(max_index, "max_index") < window - 1:
        raise ValueError("max_index leaves no room for a full window")
    depth = resolve_depth(depth)
    elements = [seq(n) for n in range(max_index - window + 1, max_index + 1)]
    floor = max([-depth] + [x.floor for x in elements if x.floor is not None])
    exponents = {e for element in elements for e in element.support if e >= floor}
    entries: dict = {}
    for e in sorted(exponents, reverse=True):
        # Every element is known at e, and at least one is nonzero there.
        values = {element.coefficient(e) for element in elements}
        if len(values) > 1:
            raise NotCauchyError(
                f"coefficient at exponent {e} did not stabilize for {window} "
                f"consecutive indices within budget {max_index}"
            )
        entries[e] = values.pop()
    return OmegaNumber._build(entries, floor)
