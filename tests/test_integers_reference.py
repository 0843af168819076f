"""Differential tests of the floor of a quotient of series values.

``integer_truncation`` and ``archimedean_witness`` once read their
candidate off the quotient twice and settled it against the quotient
alone, with a separate exact-only branch for quotients that are exactly
an infinite integer.  The ``reference_`` functions below are that code;
the library now settles the candidate by comparing the numerator with
the candidate times the denominator.  Wherever the reference answers
the library gives the same integer, text and JSON.  Wherever the
reference raises, the library raises the same exception or answers with
an integer L whose bracket L*a <= |b| < (L + 1)*a ``compare`` decides.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from omegafield import (
    ALEPH_ZERO,
    AlephNumber,
    IndistinguishableError,
    MathDomainError,
    OmegaError,
    OmegaNumber,
    PrecisionExhaustedError,
    ZERO,
    archimedean_witness,
    embed,
    integer_truncation,
    o,
    predecessor,
    successor,
)
from omegafield.integers import _coefficient_list
from omegafield.series import ComparisonResult


def reference_integer_truncation(value: OmegaNumber) -> AlephNumber:
    """The integer L with embed(L) <= value < embed(L) + 1.

    Keeps the positive-degree coefficients, floors the constant term and
    drops the infinitesimal tail; when the dropped tail is negative and
    the constant was already an integer the candidate overshoots by one
    and is decremented.  Requires value >= 0 with its sign and
    non-negative-exponent coefficients known.
    """
    candidate = reference_truncation_candidate(value)
    try:
        relation = value.compare(embed(candidate))
    except IndistinguishableError as exc:
        raise PrecisionExhaustedError(
            "fractional remainder is not resolvable at this precision"
        ) from exc
    if relation is ComparisonResult.LT:
        candidate = predecessor(candidate)
    return candidate


def reference_truncation_candidate(value: OmegaNumber) -> AlephNumber:
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


def reference_archimedean_witness(a: OmegaNumber, b: OmegaNumber) -> AlephNumber:
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
        candidate = reference_truncation_candidate(quotient)
        if embed(candidate) * a == abs(b):
            return candidate
    return reference_integer_truncation(quotient)


def outcome(compute):
    try:
        return compute()
    except OmegaError as exc:
        return type(exc)


def same_integer(got, expected):
    assert got == expected
    assert str(got) == str(expected)
    assert got.to_json() == expected.to_json()


def decided_bracket(witness, a, b):
    # L*a <= |b| < (L + 1)*a, each side decided by compare.
    b = abs(b)
    assert (embed(witness) * a).compare(b) is not ComparisonResult.GT
    assert (embed(successor(witness)) * a).compare(b) is ComparisonResult.GT


differential = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Sampled from a list, one draw each: drawing is most of these tests' time.
rationals = st.sampled_from([Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 7)])


@st.composite
def values(draw, lo=-4, hi=3, truncated=st.booleans()):
    """A nonzero value with support inside [lo, hi], exact or truncated
    at most four orders below its last term."""
    exponents = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4, unique=True))
    floor = min(exponents) - draw(st.integers(0, 4)) if draw(truncated) else None
    return OmegaNumber([(e, draw(rationals)) for e in exponents], floor)


@st.composite
def alephs(draw):
    degree = draw(st.integers(0, 3))
    if degree == 0:
        return AlephNumber((draw(st.integers(0, 6)),))
    interior = [draw(st.sampled_from([0, 1, Fraction(1, 2), -2])) for _ in range(degree - 1)]
    lead = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
    return AlephNumber([draw(st.integers(-3, 3)), *interior, lead])


@st.composite
def near_integer_pairs(draw):
    """An exact a > 0 and b = a*(L +- c*o^m), or a*L +- c*o^m, for m from
    12 to 24: the quotient lies within o^m of the integer L.  b is exact
    or truncated at most four orders below its last term."""
    a = abs(draw(values(truncated=st.just(False))))
    whole = embed(draw(alephs()))
    nudge = draw(rationals) * o ** draw(st.integers(12, 24))
    b = a * (whole + nudge) if draw(st.booleans()) else a * whole + nudge
    if draw(st.booleans()):
        b = OmegaNumber({e: b.coefficient(e) for e in b.support},
                        min(b.support) - draw(st.integers(0, 4)))
    return a, b


def check_witness(a, b):
    expected = outcome(lambda: reference_archimedean_witness(a, b))
    got = outcome(lambda: archimedean_witness(a, b))
    if isinstance(expected, AlephNumber):
        same_integer(got, expected)
    elif got is not expected:
        decided_bracket(got, a, b)


@settings(differential, max_examples=70)
@given(a=values(), b=values() | st.just(ZERO))
def test_witness_matches_reference(a, b):
    check_witness(abs(a), b)


@differential
@given(pair=near_integer_pairs(), negate=st.booleans())
# Each quotient differs from an integer only below the working depth:
# the reference refuses the first three and settles the last exactly.
@example(pair=(1 + o, (1 + o) * (2 + o**20)), negate=False)
@example(pair=(1 + o, (1 + o) * (2 - o**20)), negate=True)
@example(pair=(1 + o, (1 + o) * embed(AlephNumber((5, 1))) + o**30), negate=False)
@example(pair=(o + o * o, embed(AlephNumber((-1, 1))) - 2 * o), negate=False)
def test_witness_near_an_integer(pair, negate):
    a, b = pair
    check_witness(a, -b if negate else b)


@differential
@given(value=values(lo=-4, hi=3), negate=st.booleans())
def test_truncation_matches_reference(value, negate):
    value = -value if negate else abs(value)
    expected = outcome(lambda: reference_integer_truncation(value))
    got = outcome(lambda: integer_truncation(value))
    if isinstance(expected, AlephNumber):
        same_integer(got, expected)
    else:
        assert got is expected
