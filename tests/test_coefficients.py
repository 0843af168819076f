import math
import time
from fractions import Fraction

import pytest

from omegafield import (
    CoeffTable,
    D_to_d_table,
    bernoulli,
    binomial_general,
    d_to_D_table,
    k_coeff,
    stirling1_unsigned,
    stirling2,
    x_coeff,
)


class TestBinomialGeneral:
    def test_half_choose_two(self):
        assert binomial_general(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_ordinary_binomial(self):
        assert binomial_general(5, 2) == 10
        for n in range(8):
            for k in range(n + 1):
                assert binomial_general(n, k) == math.comb(n, k)

    def test_negative_one(self):
        # (-1)(-2)(-3)/6: the alternating signs of the geometric series.
        assert binomial_general(-1, 3) == -1
        for k in range(10):
            assert binomial_general(-1, k) == (-1) ** k

    def test_k_zero(self):
        assert binomial_general(Fraction(7, 3), 0) == 1

    def test_pascal_identity_random(self, rng):
        for _ in range(50):
            alpha = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            k = rng.randint(1, 20)
            assert binomial_general(alpha, k) == binomial_general(
                alpha - 1, k
            ) + binomial_general(alpha - 1, k - 1)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_recurrence(self):
        for m in range(1, 21):
            total = sum(
                math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1)
            )
            assert total == 0


class TestXCoeff:
    def test_vanishes_below_diagonal(self):
        assert x_coeff(3, 1) == 0
        for p in range(1, 8):
            for n in range(p):
                assert x_coeff(p, n) == 0

    def test_diagonal_is_factorial(self):
        assert x_coeff(3, 3) == 6
        for p in range(8):
            assert x_coeff(p, p) == math.factorial(p)

    def test_printed_value(self):
        # 14/4! = 7/12, the weight of the order-4 differential in D^2.
        assert x_coeff(2, 4) == 14

    def test_zero_power_convention(self):
        assert x_coeff(0, 0) == 1
        assert x_coeff(1, 0) == 0

    def test_below_the_diagonal_answers_at_once(self):
        # Summing the p + 1 terms takes about 0.5 s at p = 3000.
        start = time.perf_counter()
        assert x_coeff(3000, 3) == 0
        assert time.perf_counter() - start < 0.1
        # p is still checked before n.
        with pytest.raises(ValueError, match="indices must be non-negative"):
            x_coeff(-1, 0.5)

    def test_matches_stirling_oracle(self):
        for p in range(13):
            for n in range(13):
                assert x_coeff(p, n) == math.factorial(p) * stirling2(n, p)


class TestKCoeff:
    def test_sum_of_pair_products(self):
        # e_2(1,2,3) = 2 + 3 + 6
        assert k_coeff(3, 2) == 11

    def test_full_product_is_factorial(self):
        assert k_coeff(3, 3) == 6
        for m in range(8):
            assert k_coeff(m, m) == math.factorial(m)

    def test_empty_product(self):
        assert k_coeff(4, 0) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            k_coeff(2, 3)

    def test_matches_stirling_oracle(self):
        for p in range(1, 13):
            for n in range(1, p + 1):
                assert k_coeff(p - 1, p - n) == stirling1_unsigned(p, n)


class TestStirling:
    def test_second_kind_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25

    def test_first_kind_values(self):
        assert stirling1_unsigned(4, 2) == 11
        assert stirling1_unsigned(5, 2) == 50

    def test_diagonals(self):
        for n in range(10):
            assert stirling2(n, n) == 1
            assert stirling1_unsigned(n, n) == 1

    def test_long_rows_need_no_recursion(self):
        assert stirling2(1500, 2) == 2**1499 - 1
        assert stirling1_unsigned(1500, 1) == math.factorial(1499)

    def test_float_index_is_not_served_from_an_integer_entry(self):
        assert stirling2(4, 2) == 7
        with pytest.raises(TypeError, match="indices must be an integer"):
            stirling2(4.0, 2)
        assert stirling1_unsigned(4, 2) == 11
        with pytest.raises(TypeError, match="indices must be an integer"):
            stirling1_unsigned(4.0, 2)

    def test_row_sums(self):
        # Unsigned first-kind rows sum to factorials.
        for p in range(1, 9):
            assert sum(
                stirling1_unsigned(p, n) for n in range(p + 1)
            ) == math.factorial(p)


class TestCoeffTableValue:
    """CoeffTable behaves as the frozen dataclass it was."""

    def test_repr(self):
        assert repr(d_to_D_table(2)) == (
            "CoeffTable(direction='d_to_D', cutoff=2, "
            "rows=((Fraction(1, 1), Fraction(1, 2)), (Fraction(1, 1),)))"
        )
        assert repr(D_to_d_table(2)) == (
            "CoeffTable(direction='D_to_d', cutoff=2, "
            "rows=((Fraction(1, 1), Fraction(-1, 2)), (Fraction(1, 1),)))"
        )

    def test_equal_values_hash_alike(self):
        table = D_to_d_table(3)
        same = CoeffTable("D_to_d", 3, tuple(tuple(row) for row in table.rows))
        assert table == same and hash(table) == hash(same)
        assert table != d_to_D_table(3)

    def test_fields_are_read_only(self):
        table = d_to_D_table(2)
        with pytest.raises(AttributeError):
            table.cutoff = 3
        assert table.cutoff == 2

    def test_json_round_trip(self):
        for table in (d_to_D_table(6), D_to_d_table(6)):
            assert CoeffTable.from_json(table.to_json()) == table

    def test_entry_below_the_diagonal_and_out_of_range(self):
        table = d_to_D_table(3)
        assert table.entry(3, 1) == 0
        with pytest.raises(IndexError, match="row order 4 outside 1..3"):
            table.entry(4, 4)
