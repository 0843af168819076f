from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from omegafield import (
    ALEPH_ONE,
    ALEPH_ZERO,
    AlephNumber,
    ComparisonResult,
    MathDomainError,
    ONE,
    OmegaNumber,
    PrecisionExhaustedError,
    R1Interval,
    R1Point,
    S,
    SIGMA,
    ZERO,
    archimedean_witness,
    compare_aleph,
    count_interval,
    embed,
    integer_truncation,
    o,
    omega,
    oplus,
    oplus_inductive,
    otimes,
    otimes_inductive,
    phi,
    predecessor,
    psi,
    successor,
)
from conftest import random_omega, random_rational

LT, EQ, GT = ComparisonResult.LT, ComparisonResult.EQ, ComparisonResult.GT


def random_lattice_point(rng):
    if rng.random() < 0.2:
        return R1Point(Fraction(0), rng.randint(0, 12))
    t = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    return R1Point(t, rng.randint(-10, 10))


def random_aleph(rng, max_degree=3):
    degree = rng.randint(0, max_degree)
    if degree == 0:
        return AlephNumber((rng.randint(0, 30),))
    coeffs = [Fraction(rng.randint(-9, 9))]
    coeffs += [random_rational(rng) for _ in range(degree - 1)]
    coeffs += [Fraction(rng.randint(1, 9), rng.randint(1, 4))]
    return AlephNumber(coeffs)


class TestMembership:
    def test_natural_layer(self):
        assert AlephNumber((5,)).degree == 0
        with pytest.raises(MathDomainError):
            AlephNumber((-1,))
        with pytest.raises(MathDomainError):
            AlephNumber((Fraction(1, 2),))

    def test_higher_degree(self):
        AlephNumber((-3, Fraction(1, 2), 2))  # interior rationals allowed
        with pytest.raises(MathDomainError):
            AlephNumber((Fraction(1, 2), 1))  # fractional constant
        with pytest.raises(MathDomainError):
            AlephNumber((0, -1))  # negative leading

    def test_trailing_zeros_normalized(self):
        assert AlephNumber((3, 0, 0)) == AlephNumber((3,))


class TestCountInterval:
    def test_o_to_five_o(self):
        interval = R1Interval(R1Point(Fraction(0), 1), R1Point(Fraction(0), 5))
        assert count_interval(interval) == AlephNumber((5,))

    def test_o_to_one_is_sigma(self):
        interval = R1Interval(R1Point(Fraction(0), 1), R1Point(Fraction(1), 0))
        assert count_interval(interval) == SIGMA

    def test_singleton(self):
        point = R1Point(Fraction(7, 2), -3)
        assert count_interval(R1Interval(point, point)) == ALEPH_ONE

    def test_right_open_drops_final_point(self):
        lo = R1Point(Fraction(0), 0)
        hi = R1Point(Fraction(2), 3)
        closed = count_interval(R1Interval(lo, hi))
        half_open = count_interval(R1Interval(lo, hi, closed=False))
        assert closed == successor(half_open)

    def test_depends_only_on_difference(self, rng):
        for _ in range(30):
            a = random_lattice_point(rng)
            shift = random_lattice_point(rng)
            b = a + RandomSpan(rng).span
            assert count_interval(R1Interval(a, b)) == count_interval(
                R1Interval(a + shift, b + shift)
            )

    def test_empty_interval(self):
        point = R1Point(Fraction(1), 0)
        with pytest.raises(MathDomainError):
            count_interval(R1Interval(point, point, closed=False))

    def test_endpoints_out_of_order(self):
        with pytest.raises(MathDomainError):
            R1Interval(R1Point(Fraction(2), 0), R1Point(Fraction(1), 0))


class TestLatticeValueObjects:
    """R1Point and R1Interval behave as the frozen dataclasses they were:
    same repr, value equality and hash, immutable, validated on creation."""

    def test_point_repr(self):
        assert repr(R1Point(Fraction(1, 2), 3)) == "R1Point(t=Fraction(1, 2), k=3)"
        assert repr(R1Point(t=2, k=-1)) == "R1Point(t=Fraction(2, 1), k=-1)"

    def test_interval_repr(self):
        interval = R1Interval(R1Point(0, 0), R1Point(Fraction(1, 2), 3), closed=False)
        assert repr(interval) == (
            "R1Interval(lo=R1Point(t=Fraction(0, 1), k=0), "
            "hi=R1Point(t=Fraction(1, 2), k=3), closed=False)"
        )
        assert R1Interval(R1Point(0, 0), R1Point(0, 0)).closed is True

    def test_equal_values_hash_alike(self):
        point = R1Point(Fraction(2, 4), 3)
        assert point == R1Point(Fraction(1, 2), 3)
        assert hash(point) == hash(R1Point(Fraction(1, 2), 3))
        assert point != R1Point(Fraction(1, 2), 4)
        interval = R1Interval(R1Point(0, 1), point)
        assert interval == R1Interval(R1Point(0, 1), point, True)
        assert hash(interval) == hash(R1Interval(R1Point(0, 1), point, True))
        assert interval != R1Interval(R1Point(0, 1), point, False)

    def test_fields_are_read_only(self):
        point = R1Point(1, 2)
        interval = R1Interval(point, point)
        for obj, name in ((point, "t"), (point, "k"), (interval, "closed")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
        assert point == R1Point(1, 2) and interval.closed is True

    def test_validation(self):
        with pytest.raises(TypeError, match="o-multiplier must be an integer"):
            R1Point(1, 1.5)
        with pytest.raises(MathDomainError, match="out of order"):
            R1Interval(lo=R1Point(0, 1), hi=R1Point(0, 0))

    def test_points_order_by_standard_part_then_multiplier(self):
        points = [R1Point(1, 3), R1Point(Fraction(1, 2), 9), R1Point(1, -2)]
        assert sorted(points) == [
            R1Point(Fraction(1, 2), 9), R1Point(1, -2), R1Point(1, 3),
        ]
        assert R1Point(1, 2) <= R1Point(1, 2) < R1Point(1, 3)
        assert R1Point(2, 0) > R1Point(1, 9) and R1Point(2, 0) >= R1Point(2, 0)


class RandomSpan:
    """Non-negative lattice difference used to build interval pairs."""

    def __init__(self, rng):
        if rng.random() < 0.3:
            self.span = R1Point(Fraction(0), rng.randint(0, 9))
        else:
            self.span = R1Point(
                Fraction(rng.randint(1, 5), rng.randint(1, 4)),
                rng.randint(-6, 6),
            )


class TestBijection:
    def test_phi_closed_form(self):
        assert phi(R1Point(Fraction(2), 3)) == AlephNumber((3, 2))

    def test_phi_of_pure_lattice(self):
        assert phi(R1Point(Fraction(0), 5)) == AlephNumber((5,))
        assert phi(R1Point(0, 3)).coeffs == (Fraction(3),)

    def test_phi_surrogate_count(self):
        # Desk-scale surrogate: replace the infinite unit by a concrete
        # integer M, the step by 1/M, and count the progression directly.
        for M in (10, 40):
            for t, k in ((Fraction(2), 3), (Fraction(3, 2), -4), (Fraction(1), 0)):
                steps = int(t * M) + k  # number of points in (0, t + k/M]
                image = phi(R1Point(t, k))
                substituted = sum(
                    image.coefficient(i) * M**i for i in range(image.degree + 1)
                )
                assert substituted == steps

    def test_phi_rejects_negative(self):
        with pytest.raises(MathDomainError):
            phi(R1Point(Fraction(0), -1))
        with pytest.raises(MathDomainError):
            phi(R1Point(Fraction(-1), 5))

    def test_psi_rejects_high_degree(self):
        with pytest.raises(MathDomainError):
            psi(AlephNumber((0, 0, 1)))

    def test_round_trips(self, rng):
        for _ in range(200):
            point = random_lattice_point(rng)
            assert psi(phi(point)) == point
        for _ in range(200):
            if rng.random() < 0.2:
                number = AlephNumber((rng.randint(0, 20),))
            else:
                number = AlephNumber(
                    (rng.randint(-10, 10), Fraction(rng.randint(1, 9), rng.randint(1, 5)))
                )
            assert phi(psi(number)) == number

    def test_semigroup_transfer(self, rng):
        for _ in range(50):
            a = random_lattice_point(rng)
            b = random_lattice_point(rng)
            assert phi(a + b) == oplus(phi(a), phi(b))


class TestSuccessor:
    def test_zero_and_sigma(self):
        assert successor(ALEPH_ZERO) == ALEPH_ONE
        assert successor(SIGMA) == AlephNumber((1, 1))

    def test_predecessor(self):
        assert predecessor(SIGMA) == AlephNumber((-1, 1))
        assert predecessor(ALEPH_ONE) == ALEPH_ZERO
        with pytest.raises(MathDomainError):
            predecessor(ALEPH_ZERO)

    def test_unit_precision(self, rng):
        for _ in range(100):
            number = random_aleph(rng)
            assert successor(number) != number
            assert compare_aleph(successor(number), number) is GT
            assert predecessor(successor(number)) == number


class TestArithmetic:
    def test_oplus_otimes_basic(self):
        assert oplus(SIGMA, SIGMA) == AlephNumber((0, 2))
        assert otimes(SIGMA, SIGMA) == AlephNumber((0, 0, 1))
        half_sigma_plus_one = AlephNumber((1, Fraction(1, 2)))
        assert otimes(half_sigma_plus_one, AlephNumber((2,))) == AlephNumber((2, 1))

    def test_closure(self, rng):
        for _ in range(100):
            a, b = random_aleph(rng), random_aleph(rng)
            oplus(a, b)
            otimes(a, b)  # constructors validate membership

    def test_inductive_addition(self, rng):
        assert oplus_inductive(SIGMA, 0) == SIGMA
        for _ in range(30):
            number = random_aleph(rng)
            m = rng.randint(0, 20)
            assert oplus_inductive(number, m) == oplus(
                number, AlephNumber((m,))
            )

    def test_inductive_multiplication(self, rng):
        assert otimes_inductive(SIGMA, 1) == SIGMA
        assert otimes_inductive(AlephNumber((1, 1)), 3) == AlephNumber((3, 3))
        for _ in range(30):
            number = random_aleph(rng)
            m = rng.randint(0, 20)
            assert otimes_inductive(number, m) == otimes(
                number, AlephNumber((m,))
            )


class TestOrderAndEmbedding:
    def test_sigma_exceeds_standard_integers(self):
        assert compare_aleph(SIGMA, AlephNumber((10**100,))) is GT

    def test_reflexive(self, rng):
        for _ in range(20):
            number = random_aleph(rng)
            assert compare_aleph(number, number) is EQ

    def test_embedding_is_homomorphism(self, rng):
        assert embed(AlephNumber((1, 1))) == S + 1
        assert embed(SIGMA) * o == ONE
        for _ in range(50):
            a, b = random_aleph(rng), random_aleph(rng)
            assert embed(oplus(a, b)) == embed(a) + embed(b)
            assert embed(otimes(a, b)) == embed(a) * embed(b)

    def test_order_embedding(self, rng):
        table = {LT: LT, EQ: EQ, GT: GT}
        for _ in range(80):
            a, b = random_aleph(rng), random_aleph(rng)
            assert embed(a).compare(embed(b)) is table[compare_aleph(a, b)]


class TestIntegerTruncation:
    def test_fractional_constant(self):
        value = 3 * S + omega(Fraction(5, 2)) + o
        result = integer_truncation(value)
        assert result == AlephNumber((2, 3))
        assert embed(result).compare(value) is LT
        assert value.compare(embed(successor(result))) is LT

    def test_standard_floor(self):
        assert integer_truncation(omega(Fraction(7, 2))) == AlephNumber((3,))

    def test_sigma_fixed(self):
        assert integer_truncation(S) == SIGMA

    def test_negative_tail_correction(self):
        value = 3 * S + omega(2) - o
        assert integer_truncation(value) == AlephNumber((1, 3))

    def test_bracketing(self, rng):
        for _ in range(100):
            value = abs(random_omega(rng, lo=-3, hi=3))
            result = integer_truncation(value)
            assert embed(result).compare(value) is not GT
            assert value.compare(embed(successor(result))) is LT

    def test_negative_rejected(self):
        with pytest.raises(MathDomainError):
            integer_truncation(omega(-1))

    def test_unknown_constant_rejected(self):
        with pytest.raises(PrecisionExhaustedError):
            integer_truncation(OmegaNumber([(1, 1)], floor=1))

    def test_unresolvable_remainder(self):
        value = S + 1 + OmegaNumber([], floor=-6)
        with pytest.raises(PrecisionExhaustedError):
            integer_truncation(value)


class TestArchimedeanWitness:
    def test_infinitesimal_denominator(self):
        witness = archimedean_witness(o, ONE)
        assert witness == SIGMA
        assert (embed(successor(witness)) * o).compare(ONE) is GT

    def test_standard_case(self):
        witness = archimedean_witness(omega(2), omega(7))
        assert witness == AlephNumber((3,))

    def test_infinite_numerator(self):
        assert archimedean_witness(ONE, S) == SIGMA

    def test_zero_numerator(self):
        assert archimedean_witness(omega(3), ZERO) == ALEPH_ZERO

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(MathDomainError):
            archimedean_witness(ZERO, ONE)
        with pytest.raises(MathDomainError):
            archimedean_witness(-o, ONE)

    def test_exact_infinite_integer_quotient(self):
        # |b| / a = S^2 - 2S exactly; the truncated quotient agrees with
        # it on every known coefficient, so truncation alone cannot
        # settle it.
        a = o + o * o
        b = S - 1 - 2 * o
        witness = archimedean_witness(a, b)
        assert witness == AlephNumber((0, -2, 1))
        assert embed(witness) * a == abs(b)
        assert (embed(successor(witness)) * a).compare(abs(b)) is GT

    def test_randomized_domination(self, rng):
        for _ in range(100):
            a = abs(random_omega(rng, lo=-3, hi=3))
            b = random_omega(rng, lo=-3, hi=3)
            witness = archimedean_witness(a, b)
            assert (embed(successor(witness)) * a).compare(abs(b)) is GT


# Sampled from a list, one draw each: drawing is most of these tests' time.
rationals = st.sampled_from([Fraction(n, d) for n in range(-9, 10) if n for d in range(1, 7)])


@st.composite
def exact_values(draw, lo=-8, hi=8):
    """An exact nonzero value with support inside [lo, hi]."""
    exponents = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4, unique=True))
    return OmegaNumber([(e, draw(rationals)) for e in exponents])


@st.composite
def near_multiples(draw, unit):
    """unit*(L + c*o^m) or unit*L + c*o^m for an infinite integer L and m
    from 0 to 24, on either side of the working depth."""
    whole = [draw(st.integers(0, 5)), *draw(st.lists(st.sampled_from([1, 2]), max_size=2))]
    whole = embed(AlephNumber(whole))
    nudge = draw(rationals) * o ** draw(st.integers(0, 24))
    return unit * (whole + nudge) if draw(st.booleans()) else unit * whole + nudge


@st.composite
def witness_pairs(draw):
    a = abs(draw(exact_values()))
    return a, draw(exact_values() | near_multiples(a) | st.just(ZERO))


floor_property = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestFloorProperty:
    """The floor contract on generated exact inputs."""

    @floor_property
    @given(value=exact_values() | near_multiples(ONE) | st.just(ZERO))
    def test_truncation_within_one_unit(self, value):
        value = abs(value)
        result = embed(integer_truncation(value))
        assert result.compare(value) is not GT
        assert value.compare(result + 1) is LT

    # While b.top - a.top <= 16 the inverse of a, carried 16 orders below
    # its leading term, still reaches the constant term of |b| / a; past
    # that span a refusal is the correct answer.
    @floor_property
    @given(pair=witness_pairs())
    def test_witness_decides_within_the_working_depth(self, pair):
        a, b = pair
        assume(b.is_zero or b.top - a.top <= 16)
        witness = embed(archimedean_witness(a, b))
        assert (witness * a).compare(abs(b)) is not GT
        assert ((witness + 1) * a).compare(abs(b)) is GT


class TestAlephHash:
    def test_standard_integer_hashes_as_its_int(self):
        assert 3 in {AlephNumber.from_int(3)}
        assert len({ALEPH_ZERO, 0}) == 1

    def test_infinite_integer_hashes_by_coefficients(self):
        assert SIGMA in {AlephNumber((0, 1))}


class TestAlephJson:
    def test_schema(self):
        number = AlephNumber((3, Fraction(1, 2)))
        assert number.to_json() == {"kind": "aleph", "coeffs": ["3/1", "1/2"]}

    def test_round_trip(self, rng):
        for _ in range(25):
            number = random_aleph(rng)
            assert AlephNumber.from_json(number.to_json()) == number
