import functools
import re
from fractions import Fraction

import pytest

from omegafield import (
    ComparisonResult,
    D_to_d_table,
    DivisionByZeroError,
    FractionalLeadingExponentError,
    IndistinguishableError,
    IrrationalLeadingCoefficientError,
    MathDomainError,
    NegativeBaseError,
    NotCauchyError,
    ONE,
    OmegaNumber,
    PolynomialFn,
    PrecisionExhaustedError,
    R1Point,
    S,
    SIGMA,
    ZERO,
    bernoulli,
    binomial_general,
    cauchy_limit,
    d_to_D_table,
    derivative,
    difference,
    difference_iterated,
    differential,
    evaluate,
    exp_fn,
    expand_rational,
    faulhaber,
    k_coeff,
    lift_eval,
    ns_continuity_check,
    ns_diff_check,
    o,
    omega,
    oplus_inductive,
    otimes_inductive,
    parse,
    polynomial_fn,
    stirling1_unsigned,
    stirling2,
    x_coeff,
)
from conftest import random_infinitesimal, random_omega, random_rational

LT, EQ, GT = ComparisonResult.LT, ComparisonResult.EQ, ComparisonResult.GT


class TestConstruction:
    def test_one_plus_o(self):
        x = OmegaNumber([(0, 1), (-1, 1)])
        assert x == ONE + o
        assert x.top == 0
        assert x.is_exact

    def test_empty_is_zero(self):
        x = OmegaNumber([])
        assert x.is_zero
        assert x == ZERO

    def test_zero_entry_dropped(self):
        x = OmegaNumber([(2, 3), (0, 0)])
        assert x.top == 2
        assert x.support == (2,)

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(ValueError):
            OmegaNumber([(0, 1), (0, 2)])

    def test_entry_below_floor_rejected(self):
        with pytest.raises(ValueError):
            OmegaNumber([(-3, 1)], floor=-2)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            OmegaNumber([(0, 0.5)])


class TestRingOperations:
    def test_difference_of_squares(self):
        assert (ONE + o) * (ONE - o) == ONE - OmegaNumber.single(-2, 1)

    def test_sigma_times_o_is_one(self):
        assert S * o == ONE

    def test_cancellation(self):
        assert (ONE + o) + (-ONE) == o

    def test_int_coercion(self):
        assert 1 + o == ONE + o
        assert (ONE + o) - 1 == o
        assert 2 * o == OmegaNumber.single(-1, 2)

    def test_add_floor_is_max_of_floors(self):
        x = OmegaNumber([(0, 1)], floor=-2)
        y = OmegaNumber([(0, 1)], floor=-5)
        assert (x + y).floor == -2

    def test_mul_floor_rule(self):
        # Known parts [floor, top]: the tail of one factor times the
        # known part of the other bounds the result's floor.
        x = OmegaNumber([(1, 1), (-2, 1)], floor=-2)  # S + o^2
        y = OmegaNumber([(0, 1), (-1, 1)], floor=-1)  # 1 + o
        assert (x * y).floor == max(-2 + 0, -1 + 1)

    def test_mul_exact_by_truncated(self):
        x = OmegaNumber([(0, 2)])  # exact
        y = OmegaNumber([(0, 1), (-1, 1)], floor=-1)
        assert (x * y).floor == -1

    def test_exact_zero_annihilates_truncated(self):
        y = OmegaNumber([(0, 1)], floor=-3)
        assert ZERO * y == ZERO

    def test_truncated_zero_times_value(self):
        hidden = OmegaNumber([], floor=-3)
        result = hidden * (S + 1)
        assert result.is_truncated_zero
        assert result.floor == -3 + 1

    def test_integer_power_exact(self):
        assert (ONE + o) ** 2 == ONE + 2 * o + OmegaNumber.single(-2, 1)
        assert (ONE + o) ** 0 == ONE

    def test_negative_power(self):
        x = (ONE + o) ** -1
        assert x.coefficient(0) == 1
        assert x.coefficient(-1) == -1


class TestCompare:
    def test_o_below_every_positive_rational(self):
        assert o.compare(Fraction(1, 1000000)) is LT

    def test_sigma_above_every_rational(self):
        assert S.compare(10**9) is GT

    def test_equal_exact(self):
        x = ONE + o
        assert x.compare(x) is EQ

    def test_truncated_agreement_is_not_equality(self):
        x = OmegaNumber([(0, 1)], floor=-4)
        with pytest.raises(IndistinguishableError):
            x.compare(ONE)

    def test_differs_above_floor_is_decidable(self):
        x = OmegaNumber([(0, 1), (-1, 1)], floor=-4)
        assert x.compare(ONE) is GT

    def test_order_dunders(self):
        assert o < 1
        assert S > 10**6
        assert ONE <= ONE

    def test_abs_and_sign(self):
        assert abs(-o) == o
        assert (S - 10**9).sign() == 1
        assert ZERO.sign() == 0
        with pytest.raises(IndistinguishableError):
            OmegaNumber([], floor=-2).sign()


class TestAccessors:
    def test_ord(self):
        x = OmegaNumber.single(-2, 1) + OmegaNumber.single(-3, 1)
        assert x.ord_o() == 2

    def test_ord_errors(self):
        with pytest.raises(MathDomainError):
            ZERO.ord_o()
        with pytest.raises(MathDomainError):
            S.ord_o()
        with pytest.raises(PrecisionExhaustedError):
            OmegaNumber([], floor=-2).ord_o()

    def test_standard_part(self):
        assert (omega(3) + 2 * o).standard_part() == 3
        with pytest.raises(MathDomainError):
            S.standard_part()

    def test_infinitesimal_part(self):
        x = omega(3) + 2 * o
        assert x.infinitesimal_part() == 2 * o

    def test_moment(self):
        x = omega(3) + 2 * o + OmegaNumber.single(-2, 5)
        assert x.moment(2) == OmegaNumber.single(-2, 5)
        assert x.moment(1) == 2 * o
        assert x.moment(5) == ZERO

    def test_moment_below_floor(self):
        x = OmegaNumber([(0, 1)], floor=-1)
        with pytest.raises(PrecisionExhaustedError):
            x.moment(2)

    def test_is_infinitesimal(self):
        assert o.is_infinitesimal
        assert ZERO.is_infinitesimal
        assert not (ONE + o).is_infinitesimal
        assert not S.is_infinitesimal


class TestTruncate:
    def test_geometric_series(self):
        x = expand_rational([1], [1, -1], 12)
        expected = ONE + o + OmegaNumber.single(-2, 1)
        assert x.truncate(2) == expected

    def test_identity_on_narrow_support(self):
        x = S + 1 + o
        assert x.truncate(1) == x
        assert x.truncate(8) == x

    def test_keeps_infinite_part(self):
        x = S + 1 + OmegaNumber.single(-3, 1)
        assert x.truncate(1) == S + 1

    def test_beyond_known_precision_raises(self):
        x = OmegaNumber([(0, 1), (-1, 1)], floor=-1)
        with pytest.raises(PrecisionExhaustedError):
            x.truncate(3)

    def test_difference_bounded_by_truncation_order(self, rng):
        for _ in range(40):
            x = random_omega(rng, lo=-6, hi=2)
            for n in (0, 1, 3):
                d = x - x.truncate(n)
                assert all(e < -n for e in d.support)
                bound = OmegaNumber.single(-n, 1)
                assert abs(d).compare(bound) in (LT, EQ)


class TestInvert:
    def test_one_plus_o(self):
        x = (ONE + o).invert(4)
        expected = OmegaNumber(
            [(0, 1), (-1, -1), (-2, 1), (-3, -1), (-4, 1)], floor=-4
        )
        assert x == expected

    def test_sigma(self):
        assert S.invert() == o
        assert o.invert() == S

    def test_two_plus_o(self):
        # Multiply-back oracle: the first three coefficients of any
        # candidate inverse must satisfy (2 + o) * y = 1.
        y = (omega(2) + o).invert(3)
        assert ((omega(2) + o) * y).agrees_with(ONE)
        assert y.coefficient(0) == Fraction(1, 2)
        assert y.coefficient(-1) == Fraction(-1, 4)
        assert y.coefficient(-2) == Fraction(1, 8)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            ZERO.invert()

    def test_truncated_zero_raises_precision(self):
        with pytest.raises(PrecisionExhaustedError):
            OmegaNumber([], floor=-5).invert()

    def test_inverse_of_infinite_value(self):
        x = (3 * S + 1).invert(3)
        assert x.top == -1
        assert ((3 * S + 1) * x).agrees_with(ONE)

    def test_truncated_input_floor(self):
        # Known on [floor, top] = [-2, 1]: the inverse is exact down to
        # floor - 2*top = -4.
        x = OmegaNumber([(1, 1), (0, 1)], floor=-2)
        assert x.invert().floor == -4

    def test_truediv(self):
        assert (ONE / (ONE + o)).coefficient(-1) == -1

    def test_negative_depth_rejected(self):
        # A floor of +3 would silently drop the standard part: 0 [floor=3].
        with pytest.raises(MathDomainError, match="depth must be non-negative"):
            (ONE + o).invert(-3)


class TestPowAlpha:
    def test_square_root_series(self):
        x = (ONE + o).pow_alpha(Fraction(1, 2), 4)
        assert [x.coefficient(-k) for k in range(5)] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
            Fraction(-5, 128),
        ]

    def test_integer_power_is_exact(self):
        assert (ONE + o).pow_alpha(2) == (ONE + o) ** 2

    def test_sqrt_of_o_rejected(self):
        with pytest.raises(FractionalLeadingExponentError):
            o.pow_alpha(Fraction(1, 2))

    def test_sqrt_of_even_infinite_power(self):
        x = (OmegaNumber.single(2, 1) + S).pow_alpha(Fraction(1, 2), 3)
        assert x.top == 1
        assert (x * x).agrees_with(OmegaNumber.single(2, 1) + S)

    def test_negative_base_rejected(self):
        with pytest.raises(NegativeBaseError):
            (omega(-1) + o).pow_alpha(Fraction(1, 2))

    def test_irrational_leading_rejected(self):
        with pytest.raises(IrrationalLeadingCoefficientError):
            (omega(2) + o).pow_alpha(Fraction(1, 2))

    def test_square_root_squares_back(self):
        x = (omega(4) + o).pow_alpha(Fraction(1, 2), 8)
        assert (x * x).agrees_with(omega(4) + o)

    def test_zero_rejected(self):
        with pytest.raises(MathDomainError):
            ZERO.pow_alpha(Fraction(1, 2))


class TestExpandRational:
    def test_geometric(self):
        x = expand_rational([1], [1, -1], 5)
        assert x == OmegaNumber([(-k, 1) for k in range(6)], floor=-5)

    def test_exact_division(self):
        assert expand_rational([1, 1], [0, 1]) == S + 1

    def test_matches_invert(self):
        assert expand_rational([1], [2, 1], 7) == (omega(2) + o).invert(7)

    def test_polynomial_quotient_terminates(self):
        # (1 - o^2) / (1 + o) = 1 - o, detected as exact.
        x = expand_rational([1, 0, -1], [1, 1], 10)
        assert x == ONE - o
        assert x.is_exact

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroError):
            expand_rational([1], [0, 0])

    def test_infinitesimal_denominator_power(self):
        x = expand_rational([1], [0, 0, 1], 4)
        assert x == OmegaNumber.single(2, 1)

    def test_negative_depth_rejected(self):
        # A floor of +2 would silently drop the standard part: 0 [floor=2].
        with pytest.raises(MathDomainError, match="depth must be non-negative"):
            expand_rational([1], [1, 1], -2)


class TestCauchyLimit:
    def test_partial_sums_of_geometric(self):
        limit = cauchy_limit(
            lambda n: OmegaNumber([(-k, 1) for k in range(n + 1)]),
            window=3,
            max_index=25,
            depth=16,
        )
        assert limit == expand_rational([1], [1, -1], 16)

    def test_truncations_of_square_root(self):
        series = (ONE + o).pow_alpha(Fraction(1, 2), 24)
        limit = cauchy_limit(
            lambda n: series.truncate(min(n, 24)),
            window=3,
            max_index=24,
            depth=12,
        )
        assert limit.agrees_with(series)
        assert limit.floor == -12

    def test_constant_sequence(self):
        limit = cauchy_limit(lambda n: ONE + o, window=2, max_index=6, depth=4)
        assert limit.agrees_with(ONE + o)

    def test_non_stabilizing_raises_budget_error(self):
        with pytest.raises(NotCauchyError):
            cauchy_limit(
                lambda n: OmegaNumber.single(-1, (-1) ** n),
                window=2,
                max_index=30,
                depth=4,
            )

    def test_window_validation(self):
        with pytest.raises(ValueError):
            cauchy_limit(lambda n: ONE, window=0, max_index=5, depth=2)

    def test_floor_never_below_the_elements(self):
        # A floor of -16 would claim eleven zeros that nothing computed.
        limit = cauchy_limit(
            lambda n: OmegaNumber([(0, 1)], floor=-5),
            window=2,
            max_index=5,
            depth=16,
        )
        assert limit == OmegaNumber([(0, 1)], floor=-5)

    def test_floor_follows_the_final_window(self):
        # Only the last ``window`` elements vouch for the limit: an early
        # exact element does not lower its floor, and a coefficient that
        # element has below that floor is not checked.
        elements = [ONE + OmegaNumber.single(-9, 1)] + [
            OmegaNumber([(0, 1), (-1, 2)], floor=-4 - n) for n in range(1, 6)
        ]
        limit = cauchy_limit(elements.__getitem__, window=3, max_index=5, depth=16)
        assert limit == OmegaNumber([(0, 1), (-1, 2)], floor=-7)

    def test_evaluates_only_the_final_window(self):
        calls = []

        def seq(n):
            calls.append(n)
            return ONE + o

        cauchy_limit(seq, window=3, max_index=9, depth=4)
        assert calls == [7, 8, 9]


class TestHash:
    def test_standard_value_hashes_as_its_rational(self):
        assert 1 in {ONE}
        assert 0 in {ZERO}
        assert Fraction(-2, 3) in {omega("-2/3")}
        assert len({ONE, 1, Fraction(1)}) == 1

    def test_equal_values_hash_alike(self):
        x = OmegaNumber([(0, 1), (-2, 3)], floor=-4)
        assert hash(x) == hash(OmegaNumber([(-2, 3), (0, 1)], floor=-4))


class TestAlgebraicInvariants:
    def test_integral_domain_valuation(self, rng):
        for _ in range(100):
            x = random_omega(rng, lo=-4, hi=0)
            y = random_omega(rng, lo=-4, hi=0)
            product = x * y
            assert not product.is_zero
            assert product.ord_o() == x.ord_o() + y.ord_o()

    def test_order_total_and_antisymmetric(self, rng):
        mirror = {LT: GT, GT: LT, EQ: EQ}
        for _ in range(150):
            x = random_omega(rng)
            y = random_omega(rng)
            assert y.compare(x) is mirror[x.compare(y)]

    def test_order_transitive(self, rng):
        key = functools.cmp_to_key(
            lambda a, b: {LT: -1, EQ: 0, GT: 1}[a.compare(b)]
        )
        for _ in range(200):
            x, y, z = sorted((random_omega(rng) for _ in range(3)), key=key)
            assert x.compare(y) is not GT
            assert y.compare(z) is not GT
            assert x.compare(z) is not GT

    def test_translation_compatibility(self, rng):
        for _ in range(150):
            x, y, z = (random_omega(rng) for _ in range(3))
            if x.compare(y) is LT:
                assert (x + z).compare(y + z) is LT

    def test_positive_product(self, rng):
        for _ in range(150):
            x = abs(random_omega(rng))
            y = abs(random_omega(rng))
            assert (x * y).compare(ZERO) is GT


class TestTopologyWitnesses:
    def test_product_small_from_small_factors(self, rng):
        # For a target o^m, factors below o^ceil((m+1)/2) suffice.
        for m in range(1, 11):
            eps = OmegaNumber.single(-m, 1)
            h = (m + 2) // 2
            eta = OmegaNumber.single(-h, 1)
            for _ in range(10):
                x = eta * random_small(rng)
                y = eta * random_small(rng)
                assert abs(x).compare(eta) is LT
                assert abs(y).compare(eta) is LT
                assert abs(x * y).compare(eps) is LT

    def test_scaling_by_fixed_value(self, rng):
        # eta = eps / |x0| works whenever x0 has a nonzero standard part.
        for m in range(1, 7):
            eps = OmegaNumber.single(-m, 1)
            for _ in range(10):
                x0 = random_omega(rng, lo=-3, hi=0)
                if x0.standard_part() == 0:
                    x0 = x0 + 1
                eta = eps * abs(x0).invert(m + 12)
                x = eta * random_small(rng)
                assert abs(x0 * x).compare(eps) is LT

    def test_inversion_continuity(self, rng):
        # eta = min(eps * x0^2 / 2, |x0| / 2) keeps inverses eps-close,
        # including around infinitesimal centers.
        centers = [omega(2) + o, o, OmegaNumber.single(-2, 3), ONE - o]
        for m in range(1, 5):
            eps = OmegaNumber.single(-m, 1)
            for x0 in centers:
                depth = m + 6 * abs(min(x0.support)) + 16
                half = Fraction(1, 2)
                first, second = eps * x0 * x0 * half, abs(x0) * half
                eta = first if first.compare(second) is LT else second
                x = x0 + eta * random_small(rng)
                difference = x.invert(depth) - x0.invert(depth)
                assert abs(difference).compare(eps) is LT


def random_small(rng):
    """Exact value with absolute value strictly below one."""
    head = Fraction(rng.randint(-4, 4), 5)
    tail = random_infinitesimal(rng, lo=-3, hi=-1)
    value = OmegaNumber.single(0, head) + tail
    if abs(value).compare(ONE) is not LT:
        return OmegaNumber.single(0, head)
    return value


class TestContinuityReconstruction:
    def test_digit_by_digit_recovery(self):
        # A cut of sample points around a known value determines its
        # truncations digit by digit: scale the gap back up and separate
        # the standard parts.
        a = OmegaNumber(
            [(0, 1), (-1, Fraction(1, 2)), (-2, Fraction(-2, 3)),
             (-4, 5), (-6, Fraction(7, 11)), (-7, 1)]
        )
        left = [a - OmegaNumber.single(-j, 1) for j in range(1, 9)]
        right = [a + OmegaNumber.single(-j, 1) for j in range(1, 9)]
        partial = ZERO
        for k in range(7):
            left_digits = []
            right_digits = []
            for sample, bucket in ((left, left_digits), (right, right_digits)):
                for x in sample:
                    d = x - partial
                    if d.is_zero or d.top <= -k:
                        bucket.append(d.coefficient(-k))
            digit = max(left_digits)
            assert digit == min(right_digits)
            if digit:
                partial = partial + OmegaNumber.single(-k, digit)
        assert partial == a.truncate(6)


class TestRendering:
    def test_canonical_text(self):
        x = OmegaNumber(
            [(2, 3), (0, Fraction(1, 2)), (-4, Fraction(-5, 128))], floor=-6
        )
        assert str(x) == "3*S^2 + 1/2 - 5/128*o^4 [floor=-6]"

    def test_exact_text_has_no_floor_tag(self):
        assert str(ONE + o) == "1 + o"
        assert str(ZERO) == "0"
        assert str(-o) == "-o"

    def test_unit_coefficients(self):
        assert str(S + 1) == "S + 1"
        assert str(OmegaNumber.single(3, 1)) == "S^3"


class TestJson:
    def test_documented_schema(self):
        x = OmegaNumber(
            [(2, 3), (0, Fraction(1, 2)), (-4, Fraction(-5, 128))], floor=-6
        )
        assert x.to_json() == {
            "kind": "omega",
            "zero": False,
            "top": 2,
            "coeffs": {"2": "3/1", "0": "1/2", "-4": "-5/128"},
            "floor": -6,
        }

    def test_exact_floor_marker(self):
        assert (ONE + o).to_json()["floor"] == "exact"

    def test_round_trip(self, rng):
        for _ in range(25):
            x = random_omega(rng, lo=-5, hi=3)
            assert OmegaNumber.from_json(x.to_json()) == x
        truncated = OmegaNumber([(0, 1)], floor=-4)
        assert OmegaNumber.from_json(truncated.to_json()) == truncated
        assert OmegaNumber.from_json(ZERO.to_json()) == ZERO


# One call per entry point that takes a working depth, each at ``depth``.
_DEPTH_ENTRY_POINTS = {
    "cauchy_limit": lambda depth: cauchy_limit(lambda n: ONE + o, 2, 3, depth),
    "expand_rational": lambda depth: expand_rational([1], [1, -1], depth),
    "invert": lambda depth: (ONE + o).invert(depth),
    "lift_eval": lambda depth: lift_eval(polynomial_fn([1, 1]), ONE + o, depth),
    "ns_diff_check": lambda depth: ns_diff_check(polynomial_fn([0, 0, 1]), 1, o, depth),
    "evaluate": lambda depth: evaluate(parse("1 + o"), depth),
}


@pytest.mark.parametrize("entry", sorted(_DEPTH_ENTRY_POINTS))
def test_depth_must_be_an_int(entry):
    call = _DEPTH_ENTRY_POINTS[entry]
    call(4)
    with pytest.raises(TypeError, match="depth must be an int or None"):
        call(2.5)


@pytest.mark.parametrize("entry", sorted(_DEPTH_ENTRY_POINTS))
def test_depth_refuses_a_bool(entry):
    # A bool is an int to isinstance; ONE.invert(True) once answered 1.
    with pytest.raises(TypeError, match="depth must be an int or None"):
        _DEPTH_ENTRY_POINTS[entry](True)


# One call per integer argument that sets an order, index, count, exponent
# or floor, at ``n``; each accepts 2.  The second field is a value below the
# least the argument accepts (None when every int is accepted), the third
# the message of the ValueError it raises.
_INTEGER_ENTRY_POINTS = {
    "OmegaNumber floor": (lambda n: OmegaNumber([(5, 1)], n), None, None),
    "OmegaNumber exponent": (lambda n: OmegaNumber({n: 1}), None, None),
    "single": (lambda n: OmegaNumber.single(n, 1), None, None),
    "from_json floor": (
        lambda n: OmegaNumber.from_json({"kind": "omega", "coeffs": {"5": "1/1"}, "floor": n}),
        None,
        None,
    ),
    "coefficient": (lambda n: ONE.coefficient(n), None, None),
    "known_coefficient": (lambda n: (ONE + o).known_coefficient(n), None, None),
    "moment": (lambda n: (ONE + o).moment(n), -1, "moment order must be non-negative"),
    "truncate": (lambda n: (ONE + o).truncate(n), -1, "truncation order must be non-negative"),
    "cauchy_limit window": (
        lambda n: cauchy_limit(lambda i: ONE + o, n, 3), 0, "window must be at least 1"
    ),
    "cauchy_limit max_index": (lambda n: cauchy_limit(lambda i: ONE + o, 1, n), None, None),
    "derivative_at": (
        lambda n: polynomial_fn([1, 1]).derivative_at(n, Fraction(0)),
        -1,
        "derivative order must be non-negative",
    ),
    "derivative": (lambda n: derivative(exp_fn(), n), -1, "derivative order must be non-negative"),
    "difference": (
        lambda n: difference(polynomial_fn([0, 1]), ONE, n),
        -1,
        "difference order must be non-negative",
    ),
    "difference_iterated": (
        lambda n: difference_iterated(polynomial_fn([0, 1]), ONE, n),
        -1,
        "difference order must be non-negative",
    ),
    "differential": (
        lambda n: differential(polynomial_fn([0, 1]), ONE, n),
        -1,
        "differential order must be non-negative",
    ),
    "binomial_general": (lambda n: binomial_general(3, n), -1, "k must be non-negative"),
    "bernoulli": (lambda n: bernoulli(n), -1, "m must be non-negative"),
    "x_coeff p": (lambda n: x_coeff(n, 3), -1, "indices must be non-negative"),
    "x_coeff n": (lambda n: x_coeff(3, n), -1, "indices must be non-negative"),
    "k_coeff m": (lambda n: k_coeff(n, 1), -1, "indices must be non-negative"),
    "k_coeff j": (lambda n: k_coeff(3, n), -1, "indices must be non-negative"),
    "stirling2 n": (lambda n: stirling2(n, 1), -1, "indices must be non-negative"),
    "stirling2 p": (lambda n: stirling2(3, n), -1, "indices must be non-negative"),
    "stirling1_unsigned p": (lambda n: stirling1_unsigned(n, 1), -1, "indices must be non-negative"),
    "stirling1_unsigned n": (lambda n: stirling1_unsigned(3, n), -1, "indices must be non-negative"),
    "d_to_D_table": (lambda n: d_to_D_table(n), 0, "max_order must be at least 1"),
    "D_to_d_table": (lambda n: D_to_d_table(n), 0, "max_order must be at least 1"),
    "R1Point k": (lambda n: R1Point(1, n), None, None),
    "oplus_inductive": (lambda n: oplus_inductive(SIGMA, n), -1, "steps must be non-negative"),
    "otimes_inductive": (lambda n: otimes_inductive(SIGMA, n), -1, "factor must be non-negative"),
    "faulhaber": (lambda n: faulhaber(n), -1, "power must be non-negative"),
    "AlephNumber coefficient": (lambda n: SIGMA.coefficient(n), None, None),
    "ns_continuity_check": (
        lambda n: ns_continuity_check(PolynomialFn([0, 1]), R1Point(1, 0), n),
        0,
        "step count must be at least 1",
    ),
}


@pytest.mark.parametrize("value", [1.5, Fraction(3, 2), "2", True], ids=repr)
@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_integer_argument_must_be_an_int(entry, value):
    call = _INTEGER_ENTRY_POINTS[entry][0]
    call(2)
    with pytest.raises(TypeError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize(
    "entry", sorted(e for e, spec in _INTEGER_ENTRY_POINTS.items() if spec[1] is not None)
)
def test_integer_argument_below_its_least(entry):
    call, below, message = _INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(below)
