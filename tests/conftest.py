import contextlib
import random
import sys
from fractions import Fraction

import pytest

from omegafield import OmegaNumber


def random_rational(rng, max_num=9, max_den=6, nonzero=False):
    num = rng.randint(-max_num, max_num)
    while nonzero and num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_omega(rng, lo=-3, hi=3, max_terms=4):
    """Random exact nonzero value with support inside [lo, hi]."""
    count = rng.randint(1, min(max_terms, hi - lo + 1))
    exponents = rng.sample(range(lo, hi + 1), count)
    return OmegaNumber(
        [(e, random_rational(rng, nonzero=True)) for e in exponents]
    )


def random_infinitesimal(rng, lo=-5, hi=-1, max_terms=3):
    return random_omega(rng, lo=lo, hi=hi, max_terms=max_terms)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def int_str_digits():
    """``with int_str_digits(n):`` sets the interpreter's int/str digit
    limit to n (0 lifts it) for the block and restores it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")

    @contextlib.contextmanager
    def limit(digits):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(previous)

    return limit
