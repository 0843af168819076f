"""Differential tests of the dense polynomial and the infinite integers.

Infinite integers, integration and the polynomial and rational lifts
once each carried their own coefficient-list loops, and an infinite
integer once kept a tuple of coefficients.  The ``reference_``
functions and ``ReferenceAlephNumber`` below are those loops and that
class; the library now goes through ``PolynomialFn``, the series kernel
and the series an ``AlephNumber`` keeps instead, and both must agree
exactly: the same values, text and JSON, or the same exception.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import factorial, lcm

from hypothesis import example, given, settings, strategies as st

from omegafield import (
    ALEPH_ZERO,
    AlephNumber,
    MathDomainError,
    OmegaNumber,
    PolynomialFn,
    compare_aleph,
    oplus,
    otimes,
    polynomial_fn,
    rational_fn,
    riemann,
)
from omegafield.rationals import as_rational, format_rational_json
from omegafield.series import ComparisonResult


def reference_normalize(coeffs) -> list:
    """Exact rationals with trailing zeros stripped; ``[0]`` for zero."""
    values = [as_rational(c) for c in coeffs] or [Fraction(0)]
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    return values


def reference_embed(number):
    """The integer as an exact series value, built from its coefficients."""
    return OmegaNumber(
        [(i, c) for i, c in enumerate(number.coeffs) if c != 0]
    )


class ReferenceAlephNumber:
    """``AlephNumber`` as it was when it kept a tuple of coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence = (0,)):
        values = reference_normalize(coeffs)
        if len(values) == 1:
            if values[0].denominator != 1 or values[0] < 0:
                raise MathDomainError(
                    f"{values[0]} is not a natural number"
                )
        else:
            if values[0].denominator != 1:
                raise MathDomainError(
                    f"constant term {values[0]} must be an integer"
                )
            if values[-1] <= 0:
                raise MathDomainError(
                    f"leading coefficient {values[-1]} must be positive"
                )
        self._coeffs = tuple(values)

    @classmethod
    def from_int(cls, n: int) -> "ReferenceAlephNumber":
        return cls((n,))

    @property
    def coeffs(self) -> tuple:
        """Coefficients, constant term first."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_standard(self) -> bool:
        return self.degree == 0

    def coefficient(self, k: int) -> Fraction:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, int):
            other = ReferenceAlephNumber.from_int(other) if other >= 0 else None
            if other is None:
                return False
        if not isinstance(other, ReferenceAlephNumber):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # A standard integer equals its int, so it hashes as one.
        if self.is_standard:
            return hash(self._coeffs[0])
        return hash(self._coeffs)

    def __str__(self):
        return str(reference_embed(self))

    def __repr__(self):
        return f"AlephNumber({self})"

    def to_json(self) -> dict:
        return {
            "kind": "aleph",
            "coeffs": [format_rational_json(c) for c in self._coeffs],
        }

    @classmethod
    def from_json(cls, data) -> "ReferenceAlephNumber":
        if data.get("kind") != "aleph":
            raise ValueError("not a serialized infinite integer")
        return cls([Fraction(c) for c in data["coeffs"]])


def reference_polynomial_oracle(coeffs):
    """The closed-form derivative oracle of ``polynomial_fn``."""
    values = [as_rational(c) for c in coeffs] or [Fraction(0)]
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    deg = len(values) - 1

    def oracle(k: int, t: Fraction) -> Fraction:
        total = Fraction(0)
        for i in range(k, deg + 1):
            stepdown = values[i] * Fraction(
                factorial(i), factorial(i - k)
            )
            total += stepdown * t ** (i - k)
        return total

    return oracle


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_derive(a):
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _poly_eval(a, t):
    total = Fraction(0)
    for c in reversed(a):
        total = total * t + c
    return total


def _pad(a, b):
    size = max(len(a), len(b))
    a = a + [0] * (size - len(a))
    b = b + [0] * (size - len(b))
    return zip(a, b)


def reference_rational_oracle(num, den):
    """The quotient-rule oracle and domain of ``rational_fn``.

    The recurrence N_(k+1) = N_k' * Q - (k+1) * N_k * Q' runs on the
    integer polynomials N_0 = P = a*p and Q = b*q, and then
    f^(k)(t) = (b/a) * N_k(t) / Q(t)**(k+1).
    """
    p = [as_rational(c) for c in num] or [Fraction(0)]
    q = [as_rational(c) for c in den] or [Fraction(0)]
    a = lcm(*(c.denominator for c in p))
    b = lcm(*(c.denominator for c in q))
    q = [int(c * b) for c in q]
    q_prime = _poly_derive(q)
    numerators = [[int(c * a) for c in p]]

    def numerator(k: int):
        while len(numerators) <= k:
            index = len(numerators) - 1
            n_k = numerators[index]
            nxt = [
                x - y
                for x, y in _pad(
                    _poly_mul(_poly_derive(n_k), q),
                    _poly_mul([(index + 1) * c for c in n_k], q_prime),
                )
            ]
            numerators.append(nxt)
        return numerators[k]

    def oracle(k: int, t: Fraction) -> Fraction:
        q_val = _poly_eval(q, t)
        return Fraction(b, a) * _poly_eval(numerator(k), t) / q_val ** (k + 1)

    return oracle, lambda t: _poly_eval(q, t) != 0


def reference_riemann(f, t):
    t = as_rational(t)
    total = Fraction(0)
    for j, a in enumerate(f.coeffs):
        total += a * t ** (j + 1) / (j + 1)
    return total


def reference_oplus(left, right):
    size = max(len(left.coeffs), len(right.coeffs))
    return AlephNumber(
        [left.coefficient(i) + right.coefficient(i) for i in range(size)]
    )


def reference_otimes(left, right):
    if left == ALEPH_ZERO or right == ALEPH_ZERO:
        return ALEPH_ZERO
    out = [Fraction(0)] * (left.degree + right.degree + 1)
    for i, a in enumerate(left.coeffs):
        for j, b in enumerate(right.coeffs):
            out[i + j] += a * b
    return AlephNumber(out)


def reference_compare_aleph(left, right):
    size = max(len(left.coeffs), len(right.coeffs))
    for i in range(size - 1, -1, -1):
        a, b = left.coefficient(i), right.coefficient(i)
        if a != b:
            return ComparisonResult.GT if a > b else ComparisonResult.LT
    return ComparisonResult.EQ


def outcome(compute):
    try:
        value = compute()
    except ZeroDivisionError as exc:
        return type(exc)
    return type(value), value


differential = settings(max_examples=100, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# Trailing zeros exercise the normalisation.
coefficient_lists = st.lists(rationals | st.just(Fraction(0)), max_size=9)
short_lists = st.lists(rationals | st.just(Fraction(0)), max_size=5)
points = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def alephs(draw):
    """Admissible infinite integer: a natural, or an integer constant term,
    any interior coefficients and a positive leading coefficient."""
    degree = draw(st.integers(0, 3))
    if degree == 0:
        return AlephNumber((draw(st.integers(0, 4)),))
    constant = draw(st.integers(-3, 3))
    middle = st.sampled_from([0, 1, Fraction(1, 2)])
    interior = [draw(middle) for _ in range(degree - 1)]
    lead = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
    return AlephNumber([constant, *interior, lead])


@differential
@given(coeffs=coefficient_lists, k=st.integers(0, 11), t=points)
@example(coeffs=[], k=0, t=Fraction(2))
@example(coeffs=[1, 2, 3, 0, 0], k=3, t=Fraction(-1, 2))
def test_polynomial_oracle_matches_closed_form(coeffs, k, t):
    assert outcome(lambda: polynomial_fn(coeffs).oracle(k, t)) == outcome(
        lambda: reference_polynomial_oracle(coeffs)(k, t)
    )


@differential
@given(
    num=coefficient_lists,
    den=coefficient_lists.filter(any),
    ks=st.lists(st.integers(0, 24), min_size=1, max_size=4),
    t=points,
)
@example(num=[1], den=[-1, 1], ks=[0, 2], t=Fraction(1))  # pole at t
@example(num=[0, 0, 1], den=[1, 0, 1, 0], ks=[5, 1], t=Fraction(1, 2))
def test_rational_oracle_matches_quotient_rule(num, den, ks, t):
    f = rational_fn(num, den)
    oracle, domain = reference_rational_oracle(num, den)
    assert f.in_domain(t) == domain(t)
    for k in ks:
        assert outcome(lambda: f.oracle(k, t)) == outcome(lambda: oracle(k, t))


@settings(differential, max_examples=40)
@given(num=short_lists, den=short_lists.filter(any), s=points, t=points)
@example(num=[1], den=[-1, 1], s=Fraction(1, 2), t=Fraction(1))  # pole at t
def test_rational_oracle_memo_across_points(num, den, s, t):
    # The lift keeps one point's expansion: switching points, and asking
    # for orders above and then below what it holds, must not show.
    f = rational_fn(num, den)
    oracle, _ = reference_rational_oracle(num, den)
    for point in (s, t, s):
        for k in (0, 3, 1, 9, 24, 2, 17, 0):
            assert outcome(lambda: f.oracle(k, point)) == outcome(
                lambda: oracle(k, point)
            )


@differential
@given(coeffs=coefficient_lists, t=points)
def test_riemann_matches_power_sum(coeffs, t):
    f = PolynomialFn(coeffs)
    assert outcome(lambda: riemann(f, t)) == outcome(lambda: reference_riemann(f, t))


@differential
@given(left=alephs(), right=alephs())
@example(left=ALEPH_ZERO, right=AlephNumber((-2, 1)))
@example(left=AlephNumber((3, 1)), right=AlephNumber((3, 1)))
@example(left=AlephNumber((1, 0, 1)), right=AlephNumber((1, Fraction(1, 2), 1)))
def test_aleph_operations_match_coefficient_loops(left, right):
    for new, old in ((oplus, reference_oplus), (otimes, reference_otimes)):
        value, expected = new(left, right), old(left, right)
        assert value.coeffs == expected.coeffs
        assert (str(value), value.to_json()) == (str(expected), expected.to_json())
    assert compare_aleph(left, right) is reference_compare_aleph(left, right)


def built(cls, coeffs):
    """The number, or the type and text of the exception building it."""
    try:
        return cls(coeffs)
    except (MathDomainError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Entries that make admissible and inadmissible lists alike: naturals,
# negative and large integers, fractions and (trailing) zeros.
aleph_entries = (
    rationals
    | st.integers(-3, 3)
    | st.integers(10**18, 10**20)
    | st.just(Fraction(0))
)
aleph_lists = st.lists(aleph_entries, max_size=5)
ints = st.integers(-3, 3) | st.integers(10**18, 10**20) | st.integers(-(10**20), -(10**18))


@settings(differential, max_examples=300)
@given(coeffs=aleph_lists, ks=st.lists(st.integers(-2, 6), max_size=4))
@example(coeffs=[], ks=[0])
@example(coeffs=[Fraction(1, 2)], ks=[])  # not a natural number
@example(coeffs=[-1], ks=[])
@example(coeffs=[Fraction(1, 2), 1], ks=[])  # constant term not an integer
@example(coeffs=[1, 2, -1, 0], ks=[])  # leading coefficient not positive
@example(coeffs=[3, Fraction(1, 2), 1], ks=[2, 3, -1])
def test_series_backed_aleph_matches_tuple_reference(coeffs, ks):
    new, old = built(AlephNumber, coeffs), built(ReferenceAlephNumber, coeffs)
    if isinstance(old, tuple):
        assert new == old
        return
    assert (str(new), repr(new)) == (str(old), repr(old))
    assert (new.coeffs, new.degree, new.is_standard) == (old.coeffs, old.degree, old.is_standard)
    assert [new.coefficient(k) for k in ks] == [old.coefficient(k) for k in ks]
    assert new.to_json() == old.to_json()
    assert AlephNumber.from_json(old.to_json()) == new
    if old.is_standard:
        assert hash(new) == hash(old) == hash(int(old.coefficient(0)))


@settings(differential, max_examples=300)
@given(left=aleph_lists, right=aleph_lists, n=ints)
@example(left=[0], right=[], n=0)
@example(left=[10**19], right=[10**19], n=10**19)
@example(left=[2, 1], right=[2, 1, 0], n=2)
@example(left=[5], right=[5, 0, 0], n=-5)
def test_series_backed_aleph_equality_matches_tuple_reference(left, right, n):
    new = [built(AlephNumber, c) for c in (left, right)]
    old = [built(ReferenceAlephNumber, c) for c in (left, right)]
    if any(isinstance(x, tuple) for x in old):
        return
    assert (new[0] == new[1]) == (old[0] == old[1])
    for a, b in zip(new, old):
        assert (a == n, n == a, a != n) == (b == n, n == b, b != n)
        assert (a == Fraction(n)) is False
    if new[0] == new[1]:
        assert hash(new[0]) == hash(new[1])
