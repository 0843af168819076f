import sys
from fractions import Fraction

import pytest

from omegafield import (
    ONE,
    AlephNumber,
    CoeffTable,
    DivisionByZeroError,
    IrrationalLeadingCoefficientError,
    NegativeBaseError,
    OmegaNumber,
    PrecisionExhaustedError,
    as_rational,
    omega,
    rational_pow,
)
from omegafield.rationals import format_rational, format_rational_json


class TestCoercion:
    def test_accepts_int_fraction_string(self):
        assert as_rational(3) == 3
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        assert as_rational("-5/128") == Fraction(-5, 128)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
            as_rational(value)

    def test_accepts_decimals(self):
        assert as_rational("-1.25") == Fraction(-5, 4)
        assert as_rational(" 3/6 ") == Fraction(1, 2)

    # Only strings refused before conversion: converting one would build
    # an integer of a billion digits.
    @pytest.mark.parametrize("text", ["1e999999999", "1E999999999", "2.5e-999999999", "1/1e9"])
    def test_refuses_exponent_notation_at_once(self, text):
        with pytest.raises(ValueError, match="^exponent notation is not an exact rational"):
            as_rational(text)

    # Fraction itself would read these as one half, a thousand and three.
    @pytest.mark.parametrize("text", ["\u0661/\u0662", "1_000", "\u0663"])
    def test_refuses_non_ascii_and_underscores(self, text):
        with pytest.raises(ValueError, match="^not a plain ASCII rational"):
            as_rational(text)

    @pytest.mark.parametrize(
        "text, value",
        [("7", 7), ("-3/4", Fraction(-3, 4)), ("1.5", Fraction(3, 2)),
         (".5", Fraction(1, 2)), (" 1/2 ", Fraction(1, 2)),
         ("\u30001/2\u3000", Fraction(1, 2))],
    )
    def test_reads_ascii_inside_any_whitespace(self, text, value):
        assert as_rational(text) == value


#: Each reader of a rational from outside, applied to one coefficient.
READERS = {
    "omega": omega,
    "OmegaNumber.from_json": lambda c: OmegaNumber.from_json(
        {"kind": "omega", "coeffs": {"0": c}, "floor": "exact"}),
    "AlephNumber.from_json": lambda c: AlephNumber.from_json(
        {"kind": "aleph", "coeffs": [c]}),
    "CoeffTable.from_json": lambda c: CoeffTable.from_json(
        {"kind": "coeff_table", "direction": "d_to_D", "cutoff": 1, "rows": [[c]]}),
}


class TestReaders:
    """Every reader takes its rationals through ``as_rational``."""

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_refuses_exponent_notation_at_once(self, read):
        with pytest.raises(ValueError, match="^exponent notation is not an exact rational"):
            read("1e999999999")

    @pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_refuses_floats_and_bools(self, read, value):
        with pytest.raises(TypeError, match="^expected an exact rational, got "):
            read(value)

    @pytest.mark.parametrize(
        "read, data, error",
        [
            (OmegaNumber.from_json, {"kind": "omega", "coeffs": {"\u0663": "1/1"}}, ValueError),
            (OmegaNumber.from_json, {"kind": "omega", "coeffs": {"1_0": "2"}}, ValueError),
            (OmegaNumber.from_json, {"kind": "omega", "coeffs": {"1/2": "1"}}, ValueError),
            (CoeffTable.from_json,
             {"kind": "coeff_table", "direction": "d_to_D", "cutoff": 2.7, "rows": [[1]]},
             TypeError),
        ],
        ids=["non-ascii-exponent", "underscore-exponent", "fractional-exponent", "float-cutoff"],
    )
    def test_integers_in_json_are_strict(self, read, data, error):
        # int() would read "\u0663" as 3, "1_0" as 10 and 2.7 as 2.
        with pytest.raises(error):
            read(data)

    def test_integers_in_json_read_as_written(self):
        value = OmegaNumber.from_json({"kind": "omega", "coeffs": {"3": "1/1", "-10": "2"}})
        assert value == OmegaNumber([(3, 1), (-10, 2)])

    def test_integer_power_refuses_a_bool(self):
        with pytest.raises(TypeError, match="^use pow_alpha for non-integer exponents$"):
            ONE ** True


class TestFormatting:
    def test_plain(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-5, 128)) == "-5/128"

    def test_json_always_carries_denominator(self):
        assert format_rational_json(Fraction(3)) == "3/1"

    def test_past_the_digit_limit(self, int_str_digits):
        values = [
            Fraction(10**640),
            Fraction(10**1280 - 1),
            Fraction(-(7**2000)),
            Fraction(3**5000 + 10**700, 11**1000),
            Fraction(12345 * 10**1300 + 1),
        ]
        with int_str_digits(0):
            expected = [(str(q), f"{q.numerator}/{q.denominator}") for q in values]
        with int_str_digits(640):  # the smallest limit Python allows
            rendered = [(format_rational(q), format_rational_json(q)) for q in values]
            assert sys.get_int_max_str_digits() == 640  # left as it was
        assert rendered == expected


class TestRationalPow:
    def test_integer_exponents(self):
        assert rational_pow(Fraction(-2), Fraction(3)) == -8
        assert rational_pow(Fraction(2, 3), Fraction(-2)) == Fraction(9, 4)

    def test_exact_roots(self):
        assert rational_pow(Fraction(4), Fraction(1, 2)) == 2
        assert rational_pow(Fraction(8, 27), Fraction(1, 3)) == Fraction(2, 3)
        assert rational_pow(Fraction(32), Fraction(3, 5)) == 8

    def test_irrational_root_rejected(self):
        with pytest.raises(IrrationalLeadingCoefficientError):
            rational_pow(Fraction(2), Fraction(1, 2))

    def test_negative_base_rejected_for_fractional_exponent(self):
        with pytest.raises(NegativeBaseError):
            rational_pow(Fraction(-8), Fraction(1, 3))

    def test_zero_base(self):
        assert rational_pow(Fraction(0), Fraction(1, 2)) == 0
        with pytest.raises(DivisionByZeroError):
            rational_pow(Fraction(0), Fraction(-1, 2))

    def test_huge_root_index_rejected_at_once(self):
        # Newton's method would first build a 10**12-bit integer.
        with pytest.raises(IrrationalLeadingCoefficientError):
            rational_pow(Fraction(2), Fraction(1, 10**12))
        with pytest.raises(IrrationalLeadingCoefficientError):
            rational_pow(Fraction(1, 3), Fraction(1, 10**12))

    def test_power_beyond_the_size_limit_refused_at_once(self):
        # 4^(99999999999/2) would have about 2*10^11 bits.
        with pytest.raises(
            PrecisionExhaustedError,
            match="^power 99999999999/2 of a 3-bit base has more than 3321928 bits$",
        ):
            rational_pow(Fraction(4), Fraction(99999999999, 2))
        with pytest.raises(PrecisionExhaustedError):
            rational_pow(Fraction(1, 4), Fraction(-(10**7)))
        with pytest.raises(PrecisionExhaustedError):
            rational_pow(Fraction(2), Fraction(3321929))
        assert rational_pow(Fraction(2), Fraction(3321928)) == 2**3321928
        assert rational_pow(Fraction(4), Fraction(30001, 2)) == 2**30001

    def test_power_that_cannot_grow_the_base_passes_the_limit(self):
        # Only |p| > q can grow a base: 1/x and x keep a base past the limit.
        big = Fraction(2**3321930, 3)
        assert rational_pow(big, Fraction(-1)) == 1 / big
        assert rational_pow(big, Fraction(1)) == big
        assert (1 / omega(big)).standard_part() == 1 / big

    def test_large_perfect_powers(self):
        base = Fraction(12345**6, 7**12)
        assert rational_pow(base, Fraction(1, 6)) == Fraction(12345, 49)
