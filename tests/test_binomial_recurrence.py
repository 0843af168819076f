"""Differential test of the power-series recurrence behind invert/pow_alpha.

``reference_binomial_series`` is the earlier implementation, which built
u**k by one truncated series product per order.  Both must give
structurally identical results: the same text, floor and JSON, or the
same exception.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from omegafield import ONE, OmegaNumber, binomial_general, series
from omegafield.errors import MathDomainError, OmegaError

ALPHAS = [Fraction(a) for a in ("-2", "-1", "-1/3", "0", "1/2", "3/2", "2", "5", "40")]
LEADS = [Fraction(a) for a in ("1", "4", "9/4", "8", "64", "1/64", "2", "-1", "-8")]


def reference_binomial_series(u, alpha, depth):
    """sum of C(alpha, k) * u**k for an infinitesimal tail u."""
    if not u.is_infinitesimal:
        raise MathDomainError("binomial series requires an infinitesimal tail")
    if u.is_zero:
        return ONE
    if u.floor is None:
        floor_g = -depth
        terminating = alpha.denominator == 1 and alpha >= 0
    else:
        floor_g = max(u.floor, -depth)
        terminating = False
    count = -floor_g
    if terminating and alpha <= count:
        count = int(alpha)
        floor_g = None
    total = ONE
    u_power = ONE
    for k in range(1, count + 1):
        u_power = (u_power * u)._refloor(floor_g)
        coeff = binomial_general(alpha, k)
        if coeff != 0:
            total = total + u_power * OmegaNumber.single(0, coeff)
    return total._refloor(floor_g)


def outcome(compute):
    try:
        value = compute()
    except OmegaError as exc:
        return type(exc), str(exc)
    return str(value), value.floor, value.to_json()


def both(compute):
    fast = outcome(compute)
    with mock.patch.object(series, "_binomial_series", reference_binomial_series):
        slow = outcome(compute)
    return fast, slow


rationals = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)
)


@st.composite
def values(draw):
    """Exact or truncated value: a lead at ``top`` and up to five terms below."""
    top = draw(st.integers(-2, 2))
    lower = draw(st.lists(st.integers(1, 12), max_size=5, unique=True))
    floor = draw(st.none() | st.integers(top - 14, top))
    entries = [(top, draw(st.sampled_from(LEADS)))]
    entries += [(top - k, draw(rationals)) for k in lower]
    return OmegaNumber([(e, v) for e, v in entries if floor is None or e >= floor], floor)


differential = settings(max_examples=100, deadline=None, derandomize=True, database=None)

FIVE_TERMS = OmegaNumber([(0, 1), (-1, 2), (-2, -3), (-4, Fraction(1, 2)), (-7, 5)])


@differential
@given(x=values(), alpha=st.sampled_from(ALPHAS), depth=st.integers(0, 30))
@example(x=FIVE_TERMS, alpha=Fraction(1, 2), depth=2)  # depth below the term count
@example(x=FIVE_TERMS, alpha=Fraction(40), depth=10)  # integer alpha above the depth
@example(x=FIVE_TERMS, alpha=Fraction(5), depth=30)  # terminating polynomial
@example(x=OmegaNumber([(0, 1)], floor=-3), alpha=Fraction(-1, 3), depth=8)  # no tail
def test_pow_alpha_matches_repeated_products(x, alpha, depth):
    fast, slow = both(lambda: x.pow_alpha(alpha, depth))
    assert fast == slow


@differential
@given(x=values(), y=values(), depth=st.integers(0, 30))
@example(x=FIVE_TERMS, y=ONE, depth=3)
def test_invert_matches_repeated_products(x, y, depth):
    # The product makes floors that only _mul_floor produces.
    fast, slow = both(lambda: (x * y).invert(depth))
    assert fast == slow
