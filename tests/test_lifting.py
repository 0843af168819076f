import time
from decimal import Decimal, Overflow, Underflow, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from omegafield import (
    CoeffTable,
    D_to_d_table,
    LiftedFunction,
    MathDomainError,
    ONE,
    OmegaNumber,
    PrecisionExhaustedError,
    S,
    ZERO,
    cos_fn,
    d_to_D_table,
    derivative,
    difference,
    difference_iterated,
    differential,
    exp_fn,
    lift_eval,
    log_fn,
    ns_diff_check,
    o,
    omega,
    polynomial_fn,
    power_fn,
    rational_fn,
    sin_fn,
)
from omegafield.errors import OmegaError
from omegafield.lifting import (
    DECIMAL_DIGITS,
    _decimal_quotient,
    _decimal_sin_cos,
    _reduce_mod_2pi,
    _to_decimal,
)
from omegafield.rationals import as_rational, rational_pow
from conftest import random_infinitesimal, random_rational


def random_polynomial(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    coeffs = [random_rational(rng) for _ in range(degree)]
    coeffs.append(random_rational(rng, nonzero=True))
    return polynomial_fn(coeffs)


class TestLiftEval:
    def test_square_polynomial(self):
        f = polynomial_fn([0, 0, 1])
        value = lift_eval(f, ONE + o, 5)
        assert value == ONE + 2 * o + OmegaNumber.single(-2, 1)
        assert value.is_exact

    def test_square_root(self):
        f = power_fn(Fraction(1, 2))
        value = lift_eval(f, ONE + o, 4)
        assert [value.coefficient(-k) for k in range(5)] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
            Fraction(-5, 128),
        ]

    def test_reciprocal(self):
        f = rational_fn([1], [0, 1])
        value = lift_eval(f, ONE + o, 3)
        assert value == OmegaNumber(
            [(0, 1), (-1, -1), (-2, 1), (-3, -1)], floor=-3
        )

    def test_matches_power_minus_one(self):
        f = rational_fn([1], [0, 1])
        g = power_fn(-1)
        x = omega(Fraction(3, 2)) + 2 * o
        assert lift_eval(f, x, 6) == lift_eval(g, x, 6)

    def test_domain_violation(self):
        f = rational_fn([1], [0, 1])
        with pytest.raises(MathDomainError):
            lift_eval(f, o, 4)  # standard part 0 is a pole

    def test_infinite_argument_rejected(self):
        f = polynomial_fn([0, 1])
        with pytest.raises(MathDomainError):
            lift_eval(f, S, 4)

    def test_negative_depth_rejected(self):
        # A floor of +2 would silently drop the standard part.
        with pytest.raises(MathDomainError, match="depth must be non-negative"):
            lift_eval(polynomial_fn([1, 1]), ONE + o, -2)

    def test_truncated_argument_floor_propagates(self):
        f = polynomial_fn([0, 0, 1])
        x = ONE + OmegaNumber([(-1, 1)], floor=-2)
        value = lift_eval(f, x, 8)
        assert value.floor == -2
        assert value.coefficient(-1) == 2

    def test_polynomial_identity_random(self, rng):
        for _ in range(25):
            f = random_polynomial(rng, max_degree=4)
            x = omega(random_rational(rng)) + random_infinitesimal(rng)
            direct = ZERO
            for j, c in enumerate(f_coeffs(f)):
                direct = direct + OmegaNumber.single(0, c) * x**j
            assert lift_eval(f, x, 24) == direct


def f_coeffs(f):
    # Recover polynomial coefficients from the oracle at t = 0.
    import math

    return [
        f.derivative_at(k, Fraction(0)) / math.factorial(k)
        for k in range(f.degree + 1)
    ]


class TestDerivative:
    def test_cube(self):
        f = polynomial_fn([0, 0, 0, 1])
        assert derivative(f, 1).derivative_at(0, Fraction(2)) == 12

    def test_identity_at_zero_order(self):
        f = polynomial_fn([1, 2, 3])
        assert derivative(f, 0) is f

    def test_exponential_fixed_point(self):
        f = exp_fn()
        for q in (1, 3, 7):
            assert derivative(f, q).derivative_at(0, Fraction(0)) == 1

    def test_lift_of_derivative_is_derivative_of_lift(self, rng):
        # Compare against the coefficientwise derivative of the lifted
        # series in the step variable.
        f = polynomial_fn([1, -2, 0, 5])
        t = Fraction(2, 3)
        base = omega(t)
        for q in (1, 2):
            lifted = lift_eval(derivative(f, q), base + o, 10)
            assert lifted.coefficient(0) == derivative(f, q).derivative_at(0, t)


class TestDifference:
    def test_first_difference_of_square(self, rng):
        f = polynomial_fn([0, 0, 1])
        for _ in range(10):
            t = random_rational(rng)
            value = difference(f, omega(t), 1, 8)
            assert value == OmegaNumber([(-1, 2 * t), (-2, 1)])

    def test_annihilates_low_degree(self, rng):
        for p in range(1, 6):
            f = random_polynomial(rng, max_degree=p - 1)
            x = omega(random_rational(rng))
            assert difference(f, x, p, 12) == ZERO

    def test_cube_at_zero(self):
        f = polynomial_fn([0, 0, 0, 1])
        assert difference(f, ZERO, 3, 8) == OmegaNumber.single(-3, 6)

    def test_order_at_least_p(self, rng):
        for _ in range(20):
            f = random_polynomial(rng)
            p = rng.randint(1, 4)
            if f.degree < p:
                continue
            value = difference(f, omega(random_rational(rng)), p, 16)
            if not value.is_zero:
                assert value.ord_o() >= p

    def test_iterated_matches_closed_form(self, rng):
        for _ in range(20):
            f = random_polynomial(rng)
            p = rng.randint(1, 5)
            x = omega(random_rational(rng)) + random_infinitesimal(rng, lo=-2)
            assert difference_iterated(f, x, p, 14) == difference(f, x, p, 14)


class TestDifferential:
    def test_first_order(self, rng):
        f = polynomial_fn([0, 0, 1])
        t = random_rational(rng)
        assert differential(f, omega(t), 1, 8) == OmegaNumber.single(-1, 2 * t)

    def test_third_order_cube(self):
        f = polynomial_fn([0, 0, 0, 1])
        assert differential(f, ONE, 3, 8) == OmegaNumber.single(-3, 6)

    def test_zero_order_is_lift(self, rng):
        f = random_polynomial(rng)
        x = omega(random_rational(rng)) + random_infinitesimal(rng)
        assert differential(f, x, 0, 10) == lift_eval(f, x, 10)


class TestTables:
    def test_forward_rows(self):
        table = d_to_D_table(4)
        assert table.row(1) == (1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
        assert table.row(2) == (1, 1, Fraction(7, 12))
        assert table.row(3) == (1, Fraction(3, 2))
        assert table.row(4) == (1,)

    def test_backward_rows(self):
        table = D_to_d_table(4)
        assert table.row(1) == (
            1,
            Fraction(-1, 2),
            Fraction(1, 3),
            Fraction(-1, 4),
        )
        assert table.row(2) == (1, -1, Fraction(11, 12))
        assert table.row(3) == (1, Fraction(-3, 2))

    def test_single_order(self):
        assert d_to_D_table(1).rows == ((Fraction(1),),)

    def test_round_trip_identity(self):
        cutoff = 8
        forward = d_to_D_table(cutoff)
        backward = D_to_d_table(cutoff)
        for i in range(1, cutoff + 1):
            for j in range(1, cutoff + 1):
                total = sum(
                    backward.entry(i, p) * forward.entry(p, j)
                    for p in range(1, cutoff + 1)
                )
                assert total == (1 if i == j else 0)

    def test_expansion_identity(self, rng):
        # The order-p difference expands over higher differentials with
        # the forward-table weights, exactly, for polynomials.
        for _ in range(15):
            f = random_polynomial(rng)
            t = omega(random_rational(rng))
            table = d_to_D_table(max(f.degree, 1))
            for p in range(1, f.degree + 1):
                expected = ZERO
                for n in range(p, f.degree + 1):
                    expected = expected + OmegaNumber.single(
                        0, table.entry(p, n)
                    ) * differential(f, t, n, 16)
                assert difference(f, t, p, 16) == expected

    def test_inverse_identity(self, rng):
        # Differentials expand over differences with the backward table.
        for _ in range(15):
            f = random_polynomial(rng)
            t = omega(random_rational(rng))
            table = D_to_d_table(max(f.degree, 1))
            for n in range(1, f.degree + 1):
                expected = ZERO
                for p in range(n, f.degree + 1):
                    expected = expected + OmegaNumber.single(
                        0, table.entry(n, p)
                    ) * difference(f, t, p, 16)
                assert differential(f, t, n, 16) == expected

    def test_json_round_trip(self):
        table = D_to_d_table(5)
        data = table.to_json()
        assert data["kind"] == "coeff_table"
        assert data["direction"] == "D_to_d"
        assert data["cutoff"] == 5
        assert CoeffTable.from_json(data) == table


class TestLiftedFunctionValue:
    """LiftedFunction behaves as the frozen dataclass it was, and the
    built-in constructors give the same labels."""

    def test_repr(self):
        text = repr(LiftedFunction(abs))
        assert text.startswith(
            "LiftedFunction(oracle=<built-in function abs>, "
            "domain=<function LiftedFunction.<lambda> at "
        )
        assert text.endswith(">, degree=None, label='f')")

    def test_equal_values_hash_alike(self):
        f = LiftedFunction(abs)
        assert f == LiftedFunction(oracle=abs)
        assert hash(f) == hash(LiftedFunction(oracle=abs))
        assert f != LiftedFunction(abs, label="g")
        assert f.in_domain(Fraction(-7)) and f.degree is None

    def test_fields_are_read_only(self):
        f = polynomial_fn([1, 2])
        with pytest.raises(AttributeError):
            f.label = "g"
        assert f.label == "poly(1,2)"

    def test_labels(self):
        poly = polynomial_fn([1, 2, 3])
        assert (derivative(poly, 2).label, derivative(poly, 2).degree) == ("poly(1,2,3)^(2)", 0)
        assert derivative(poly, 0) is poly
        assert (power_fn(3).label, power_fn(3).degree) == ("t^3", 3)
        assert power_fn(Fraction(1, 2)).label == "t^1/2"
        assert power_fn(-2).label == "t^-2"
        assert cos_fn().label == "cos"
        assert derivative(cos_fn()).label == "cos^(1)"
        assert derivative(exp_fn(), 3).label == "exp^(3)"
        assert rational_fn([1], [1, 1]).label == "rational"

    def test_cos_keeps_the_shifted_sine_oracle(self):
        assert cos_fn().oracle(0, Fraction(0)) == 1
        assert cos_fn().oracle(1, Fraction(0)) == 0


class TestTaylorShift:
    def test_shift_identity_exact(self, rng):
        import math

        depth = 8
        for _ in range(25):
            f = random_polynomial(rng)
            u = random_infinitesimal(rng, lo=-3)
            v = random_infinitesimal(rng, lo=-3)
            x = omega(random_rational(rng)) + u
            left = lift_eval(f, x + v, depth)
            right = ZERO
            for q in range(depth + 1):
                term = lift_eval(derivative(f, q), x, depth)
                right = right + term * v**q * OmegaNumber.single(
                    0, Fraction(1, math.factorial(q))
                )
            assert left.agrees_with(right)


class TestNsDiffCheck:
    def test_square(self):
        f = polynomial_fn([0, 0, 1])
        assert ns_diff_check(f, Fraction(1), o)

    def test_cube_with_higher_step(self):
        f = polynomial_fn([0, 0, 0, 1])
        assert ns_diff_check(f, Fraction(2), OmegaNumber.single(-2, 1))

    def test_linear_zero_remainder(self):
        f = polynomial_fn([3, 2])
        h = OmegaNumber([(-1, 3), (-2, 1)])
        assert ns_diff_check(f, Fraction(1), h)

    def test_non_infinitesimal_step_rejected(self):
        f = polynomial_fn([0, 1])
        with pytest.raises(MathDomainError):
            ns_diff_check(f, Fraction(0), ONE)


class TestTranscendental:
    def test_exp_at_infinitesimal(self):
        value = lift_eval(exp_fn(), o, 4)
        assert [value.coefficient(-k) for k in range(5)] == [
            Fraction(1),
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(1, 24),
        ]

    def test_exp_standard_value_50_digits(self):
        # Frozen leading digits of e.
        reference = Fraction(
            "2.7182818284590452353602874713526624977572470937"
        )
        value = lift_eval(exp_fn(), ONE, 0).standard_part()
        assert abs(value - reference) < Fraction(1, 10**45)

    def test_log_series_exact_tail(self):
        value = lift_eval(log_fn(), ONE + o, 5)
        assert value == OmegaNumber(
            [
                (-1, 1),
                (-2, Fraction(-1, 2)),
                (-3, Fraction(1, 3)),
                (-4, Fraction(-1, 4)),
                (-5, Fraction(1, 5)),
            ],
            floor=-5,
        )

    def test_log_domain(self):
        with pytest.raises(MathDomainError):
            lift_eval(log_fn(), omega(-1) + o, 3)

    @pytest.mark.parametrize("t", [10**7, -(10**7)])
    def test_exp_outside_the_decimal_range_raises(self, t):
        with pytest.raises(PrecisionExhaustedError, match=f"exp at {t} leaves"):
            lift_eval(exp_fn(), omega(t), 1)

    @pytest.mark.parametrize(
        "f, t, power",
        [
            (exp_fn(), Fraction(10**1000100), "10^1000100"),
            (exp_fn(), Fraction(-(10**1000100)), "-10^1000100"),
            (log_fn(), Fraction(1, 10**1000100), "10^-1000100"),
        ],
        ids=("exp-huge", "exp-huge-negative", "log-tiny"),
    )
    def test_point_beyond_the_decimal_range_raises_at_once(self, f, t, power):
        # Converting the million-digit point, or printing it, takes seconds.
        start = time.perf_counter()
        with pytest.raises(PrecisionExhaustedError) as caught:
            f.derivative_at(0, t)
        assert time.perf_counter() - start < 2
        assert str(caught.value) == (
            f"{f.label} at about {power} leaves the decimal exponent range"
        )

    def test_point_with_a_million_digits_converts_quickly(self):
        start = time.perf_counter()
        value = exp_fn().derivative_at(0, Fraction(1, 10**1000000))
        assert time.perf_counter() - start < 2
        assert value == 1  # e^(10^-1000000) to 50 digits

    @pytest.mark.parametrize(
        "f, t, text",
        [
            # Passes the range check's slack, then underflows on conversion.
            (log_fn(), Fraction(1, 10**1000059), "about 10^-1000059"),
            (exp_fn(), Fraction(10**50), "about 10^50"),
            (exp_fn(), Fraction(-(10**60), 7), "about -10^59"),
            (exp_fn(), Fraction(10**49), str(10**49)),
        ],
        ids=("log-near-the-edge", "exp-51-digits", "exp-negative", "exp-50-digits"),
    )
    def test_long_point_leaving_the_range_is_named_by_its_power_of_ten(self, f, t, text):
        start = time.perf_counter()
        with pytest.raises(PrecisionExhaustedError) as caught:
            f.derivative_at(0, t)
        assert time.perf_counter() - start < 2
        assert str(caught.value) == f"{f.label} at {text} leaves the decimal exponent range"

    @pytest.mark.parametrize("f", [sin_fn(), cos_fn()], ids=("sin", "cos"))
    @pytest.mark.parametrize(
        "t, power",
        [(Fraction(10**20000), "10^20000"), (Fraction(-(10**10000)), "-10^10000")],
        ids=("huge", "first-refused"),
    )
    def test_sin_cos_refuse_more_than_10000_integer_digits(self, f, t, power):
        start = time.perf_counter()
        with pytest.raises(PrecisionExhaustedError) as caught:
            f.derivative_at(0, t)
        assert time.perf_counter() - start < 1
        assert str(caught.value) == (
            f"{f.label} at about {power} has more than 10000 integer digits"
            " to reduce modulo 2*pi"
        )

    def test_sin_cos_at_zero(self):
        sine = lift_eval(sin_fn(), o, 5)
        assert sine.coefficient(-1) == 1
        assert sine.coefficient(-3) == Fraction(-1, 6)
        assert sine.coefficient(-5) == Fraction(1, 120)
        cosine = lift_eval(cos_fn(), o, 4)
        assert cosine.coefficient(0) == 1
        assert cosine.coefficient(-2) == Fraction(-1, 2)
        assert cosine.coefficient(-4) == Fraction(1, 24)

    def test_pythagorean_identity_to_depth(self):
        x = omega(Fraction(1, 3)) + o
        sine = lift_eval(sin_fn(), x, 6)
        cosine = lift_eval(cos_fn(), x, 6)
        total = sine * sine + cosine * cosine
        assert abs(total.coefficient(0) - 1) < Fraction(1, 10**45)
        for k in range(1, 7):
            assert abs(total.coefficient(-k)) < Fraction(1, 10**40)

    @pytest.mark.parametrize(
        "t",
        [Fraction(355, 113), Fraction(30), Fraction(-100), Fraction(200), Fraction(1000)],
        ids=str,
    )
    def test_sin_cos_match_mpmath_beyond_pi(self, t):
        mpmath = pytest.importorskip("mpmath")
        start = time.perf_counter()
        values = {"sin": sin_fn().derivative_at(0, t), "cos": cos_fn().derivative_at(0, t)}
        assert time.perf_counter() - start < 0.5
        with mpmath.workdps(90):
            point = mpmath.mpf(t.numerator) / t.denominator
            for name, value in values.items():
                reference = getattr(mpmath, name)(point)
                approx = mpmath.mpf(value.numerator) / value.denominator
                assert abs((approx - reference) / reference) < mpmath.mpf(10) ** -48, name


# ----------------------------------------------------------------------
# references for deleted oracle code
#
# ``cos_fn`` once had its own derivative cycle, ``power_fn`` its own
# falling-factorial loop and ``_decimal_sin_cos`` one Taylor loop each for
# sin and cos; all are kept here verbatim, and the library must return the
# same value or raise the same exception type.


def reference_cos_oracle(k: int, t: Fraction) -> Fraction:
    sin_t, cos_t = map(Fraction, _decimal_sin_cos(t))
    return (cos_t, -sin_t, -cos_t, sin_t)[k % 4]


def reference_decimal_sin_cos(t: Fraction):
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 12
        x = _to_decimal(t) if abs(t) <= 3 else _reduce_mod_2pi(t)
        xx = x * x

        i, last, sin_acc, fact, num, sign = 1, 0, x, 1, x, 1
        while sin_acc != last:
            last = sin_acc
            i += 2
            fact *= i * (i - 1)
            num *= xx
            sign *= -1
            sin_acc += num / fact * sign

        i, last, cos_acc, fact, num, sign = 0, 0, Decimal(1), 1, 1, 1
        while cos_acc != last:
            last = cos_acc
            i += 2
            fact *= i * (i - 1)
            num *= xx
            sign *= -1
            cos_acc += num / fact * sign

        ctx.prec = DECIMAL_DIGITS
        return +sin_acc, +cos_acc


def reference_power_oracle(alpha):
    alpha = as_rational(alpha)

    def oracle(k: int, t: Fraction) -> Fraction:
        falling = Fraction(1)
        for i in range(k):
            falling *= alpha - i
        if falling == 0:
            return Fraction(0)
        exponent = alpha - k
        return falling * rational_pow(t, exponent)

    return oracle


def outcome(compute):
    try:
        return compute()
    except (OmegaError, ZeroDivisionError) as exc:
        return type(exc)


reference = settings(max_examples=100, deadline=None, derandomize=True, database=None)
exponents = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# Twelfth powers have exact roots for every exponent denominator above.
power_points = st.builds(
    pow, st.builds(Fraction, st.integers(-4, 6), st.integers(1, 3)), st.sampled_from([1, 12])
)


@reference
@given(k=st.integers(0, 10), t=st.builds(Fraction, st.integers(-60, 60), st.integers(1, 7)))
@example(k=3, t=Fraction(0))
@example(k=10, t=Fraction(200, 7))
def test_cos_is_shifted_sin(k, t):
    assert cos_fn().derivative_at(k, t) == reference_cos_oracle(k, t)


@reference
@given(t=st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)))
@example(t=Fraction(3))  # the last point summed without reduction
@example(t=Fraction(0))
def test_sin_cos_digits_match_the_two_loop_sum(t):
    assert str(_decimal_sin_cos(t)) == str(reference_decimal_sin_cos(t))


@reference
@given(alpha=exponents, k=st.integers(0, 10), t=power_points)
@example(alpha=Fraction(2), k=5, t=Fraction(3))  # polynomial path, past the degree
@example(alpha=Fraction(-1), k=2, t=Fraction(0))  # pole
@example(alpha=Fraction(1, 2), k=4, t=Fraction(2))  # irrational root
def test_power_oracle_matches_falling_factorial(alpha, k, t):
    f = power_fn(alpha)
    assert outcome(lambda: f.derivative_at(k, t)) == outcome(
        lambda: reference_power_oracle(alpha)(k, t)
    )


def decimal_outcome(compute):
    try:
        return compute()
    except (Overflow, Underflow) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    num=st.integers(-(10**70), 10**70),
    den=st.integers(1, 10**70),
    shift=st.integers(-1100, 1100),
    prec=st.sampled_from([28, 60, 62, 75, 200]),
    trap=st.booleans(),
)
@example(num=1, den=2, shift=0, prec=60, trap=True)  # exact
@example(num=-25, den=10, shift=0, prec=1, trap=True)  # a tie, rounded to even
@example(num=0, den=7, shift=-1000, prec=60, trap=True)
@example(num=1, den=1, shift=-1058, prec=60, trap=True)  # subnormal but exact
@example(num=1, den=3, shift=-1058, prec=60, trap=True)  # subnormal and inexact
@example(num=9, den=1, shift=999, prec=60, trap=True)  # overflows
def test_decimal_quotient_matches_decimal_division(num, den, shift, prec, trap):
    # Near the edges of a context whose exponent range is 10^+-999, where
    # dividing the converted integers is still cheap.
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = prec, 999, -999
        ctx.traps[Underflow] = trap
        expected = decimal_outcome(lambda: Decimal(num) / Decimal(den))
        assert decimal_outcome(lambda: _decimal_quotient(num, den)) == expected


def test_exp_at_zero_and_log_at_one_are_exact():
    assert [exp_fn().derivative_at(k, Fraction(0)) for k in range(3)] == [1, 1, 1]
    assert log_fn().derivative_at(0, Fraction(1)) == 0
