"""Differential tests of the shared dense-polynomial routines.

Infinite integers, integration and the polynomial and rational lifts
once each carried their own coefficient-list loops.  The ``reference_``
functions below are those loops; the library now goes through
``omegafield._poly`` and the series kernel instead, and both must agree
exactly: the same values, text and JSON, or the same exception.
"""

from fractions import Fraction
from math import factorial

from hypothesis import example, given, settings, strategies as st

from omegafield import (
    ALEPH_ZERO,
    AlephNumber,
    PolynomialFn,
    compare_aleph,
    oplus,
    otimes,
    polynomial_fn,
    rational_fn,
    riemann,
)
from omegafield.rationals import as_rational
from omegafield.series import ComparisonResult


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
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_derive(a):
    return [i * c for i, c in enumerate(a)][1:] or [Fraction(0)]


def _poly_eval(a, t):
    total = Fraction(0)
    for c in reversed(a):
        total = total * t + c
    return total


def _pad(a, b):
    size = max(len(a), len(b))
    a = a + [Fraction(0)] * (size - len(a))
    b = b + [Fraction(0)] * (size - len(b))
    return zip(a, b)


def reference_rational_oracle(num, den):
    """The quotient-rule oracle and domain of ``rational_fn``."""
    p = [as_rational(c) for c in num] or [Fraction(0)]
    q = [as_rational(c) for c in den] or [Fraction(0)]
    q_prime = _poly_derive(q)
    numerators = [p]

    def numerator(k: int):
        while len(numerators) <= k:
            index = len(numerators) - 1
            n_k = numerators[index]
            nxt = [
                a - b
                for a, b in _pad(
                    _poly_mul(_poly_derive(n_k), q),
                    _poly_mul([(index + 1) * c for c in n_k], q_prime),
                )
            ]
            numerators.append(nxt)
        return numerators[k]

    def oracle(k: int, t: Fraction) -> Fraction:
        q_val = _poly_eval(q, t)
        return _poly_eval(numerator(k), t) / q_val ** (k + 1)

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
