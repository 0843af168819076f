from fractions import Fraction

import pytest

from omegafield import (
    MathDomainError,
    OmegaNumber,
    PolynomialFn,
    R1Point,
    S,
    ZERO,
    difference_equation_check,
    discrete_integral,
    faulhaber,
    ns_continuity_check,
    omega,
    riemann,
)
from conftest import random_rational


def random_integrand(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    coeffs = [random_rational(rng) for _ in range(degree + 1)]
    return PolynomialFn(coeffs)


def random_upper(rng):
    t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return R1Point(t, rng.randint(-8, 8))


class TestFaulhaber:
    def test_power_zero(self):
        assert faulhaber(0).coeffs == (0, 1)

    def test_power_one(self):
        assert faulhaber(1).coeffs == (0, Fraction(-1, 2), Fraction(1, 2))

    def test_power_two(self):
        assert faulhaber(2).coeffs == (
            0,
            Fraction(1, 6),
            Fraction(-1, 2),
            Fraction(1, 3),
        )

    def test_leading_coefficient_and_degree(self):
        for j in range(9):
            poly = faulhaber(j)
            assert poly.degree == j + 1
            assert poly.coeffs[-1] == Fraction(1, j + 1)
            assert poly.coeffs[0] == 0

    def test_direct_summation_oracle(self):
        for j in range(7):
            poly = faulhaber(j)
            for length in range(51):
                assert poly(length) == sum(
                    Fraction(n) ** j for n in range(length)
                )

    def test_degree_bound(self):
        with pytest.raises(MathDomainError):
            faulhaber(13)


class TestDiscreteIntegral:
    def test_identity_integrand(self):
        value = discrete_integral(PolynomialFn([0, 1]), R1Point(Fraction(1), 0))
        assert value == OmegaNumber([(0, Fraction(1, 2)), (-1, Fraction(-1, 2))])

    def test_constant_integrand(self):
        value = discrete_integral(PolynomialFn([1]), R1Point(Fraction(2), 0))
        assert value == omega(2)

    def test_square_integrand(self):
        value = discrete_integral(PolynomialFn([0, 0, 1]), R1Point(Fraction(1), 0))
        assert value == OmegaNumber(
            [(0, Fraction(1, 3)), (-1, Fraction(-1, 2)), (-2, Fraction(1, 6))]
        )

    def test_empty_sum_returns_constant(self):
        value = discrete_integral(
            PolynomialFn([0, 1]), R1Point(Fraction(0), 0), Fraction(5)
        )
        assert value == omega(5)

    def test_negative_upper_rejected(self):
        with pytest.raises(MathDomainError):
            discrete_integral(PolynomialFn([1]), R1Point(Fraction(0), -2))

    def test_result_always_exact(self, rng):
        for _ in range(20):
            value = discrete_integral(random_integrand(rng), random_upper(rng))
            assert value.is_exact


class TestStandardPart:
    def test_monomials_at_sample_points(self):
        for j in range(7):
            f = PolynomialFn([0] * j + [1])
            for t in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5)):
                value = discrete_integral(f, R1Point(t, 0))
                assert value.standard_part() == t ** (j + 1) / (j + 1)
                assert value.standard_part() == riemann(f, t)

    def test_integration_constant_enters_standard_part(self):
        f = PolynomialFn([0, 1])
        value = discrete_integral(f, R1Point(Fraction(2), 5), Fraction(1, 3))
        assert value.standard_part() == Fraction(1, 3) + riemann(f, 2)

    def test_lattice_offset_is_infinitesimal(self, rng):
        for _ in range(20):
            f = random_integrand(rng)
            t = Fraction(rng.randint(1, 5))
            base = discrete_integral(f, R1Point(t, 0))
            moved = discrete_integral(f, R1Point(t, rng.randint(1, 9)))
            assert (moved - base).is_infinitesimal


class TestRiemann:
    def test_examples(self):
        assert riemann(PolynomialFn([0, 1]), 1) == Fraction(1, 2)
        assert riemann(PolynomialFn([0, 0, 1]), 2) == Fraction(8, 3)
        assert riemann(PolynomialFn([-1, 0, 3]), 1) == 0


class TestDifferenceEquation:
    def test_identity_at_one(self):
        assert difference_equation_check(PolynomialFn([0, 1]), R1Point(Fraction(1), 0))

    def test_constant_everywhere(self, rng):
        for _ in range(10):
            assert difference_equation_check(
                PolynomialFn([random_rational(rng)]), random_upper(rng)
            )

    def test_square_off_lattice(self):
        assert difference_equation_check(
            PolynomialFn([0, 0, 1]), R1Point(Fraction(1), 2)
        )

    def test_randomized(self, rng):
        for _ in range(50):
            f = random_integrand(rng)
            assert difference_equation_check(f, random_upper(rng), random_rational(rng))


class TestNsContinuity:
    def test_identity_integrand(self):
        assert ns_continuity_check(PolynomialFn([0, 1]), R1Point(Fraction(1), 0), 3)

    def test_constant_single_step(self, rng):
        c = random_rational(rng)
        assert ns_continuity_check(PolynomialFn([c]), random_upper(rng), 1)

    def test_fifth_power(self):
        assert ns_continuity_check(
            PolynomialFn([0, 0, 0, 0, 0, 1]), R1Point(Fraction(2), 0), 2
        )

    def test_step_difference_value(self):
        f = PolynomialFn([0, 1])
        x1 = R1Point(Fraction(1), 0)
        delta = discrete_integral(f, x1.shifted(3)) - discrete_integral(f, x1)
        assert delta == OmegaNumber([(-1, 3), (-2, 3)])

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            ns_continuity_check(PolynomialFn([1]), R1Point(Fraction(1), 0), 0)


class TestSurrogateSum:
    def test_concrete_unit_matches(self, rng):
        # Substituting a concrete integer M for the infinite unit turns
        # the closed form into an ordinary finite sum with step 1/M.
        M = 100
        for _ in range(10):
            f = random_integrand(rng, max_degree=4)
            t = Fraction(rng.randint(1, 3))
            k = rng.randint(-5, 9)
            g0 = random_rational(rng)
            value = discrete_integral(f, R1Point(t, k), g0)
            substituted = sum(
                value.coefficient(e) * Fraction(M) ** e for e in value.support
            )
            count = int(t * M) + k
            direct = g0 + sum(
                f(Fraction(n, M)) * Fraction(1, M) for n in range(count)
            )
            assert substituted == direct


class TestPolynomialFn:
    def test_degree_bound_enforced(self):
        # The polynomial builds; the lattice sum refuses its degree.
        f = PolynomialFn([0] * 13 + [1])
        assert f.degree == 13
        with pytest.raises(MathDomainError, match=r"^degree 13 exceeds the bound 12$"):
            discrete_integral(f, R1Point(Fraction(1), 0))

    def test_series_evaluation_matches_rational(self, rng):
        for _ in range(20):
            f = random_integrand(rng, max_degree=5)
            t = random_rational(rng)
            assert f.eval_series(omega(t)) == omega(f(t))

    def test_constant_at_a_series_is_a_series(self):
        value = PolynomialFn([5]).eval_series(S)
        assert isinstance(value, OmegaNumber)
        assert value == omega(5)
