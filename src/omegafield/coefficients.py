"""Combinatorial coefficient families used across the library.

Everything here is computed in exact integer or rational arithmetic:
generalized binomial coefficients, Bernoulli numbers, the alternating
finite-difference sums ``x_coeff``, the symmetric-product sums
``k_coeff``, the two Stirling triangles kept as independent oracles
for them, and the two conversion tables between the differential
families of ``lifting``, which are built from ``x_coeff`` and
``k_coeff`` alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import _EXPORTS
from .rationals import _as_int, as_rational, format_rational_json

__all__ = _EXPORTS["coefficients"]


def binomial_general(alpha, k: int) -> Fraction:
    """Generalized binomial coefficient alpha(alpha-1)...(alpha-k+1)/k!.

    Defined for any rational alpha; for integer alpha >= k it agrees with
    the ordinary binomial coefficient.
    """
    _as_int(k, "k", 0)
    alpha = as_rational(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number with the B_1 = -1/2 sign convention.

    That convention makes sum(n**j for n in range(L)) a clean polynomial
    in L (see ``integration.faulhaber``).  Values are produced by the
    recurrence sum(C(m+1, k) * B_k for k in 0..m) = 0.
    """
    if _as_int(m, "m", 0) == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += math.comb(m + 1, k) * bernoulli(k)
    return -acc / (m + 1)


def x_coeff(p: int, n: int) -> int:
    """Alternating sum over k of (-1)^(p-k) * C(p,k) * k^n, with 0^0 = 1.

    Vanishes for n < p and equals p! on the diagonal n = p.
    """
    _as_int(p, "indices", 0)
    if _as_int(n, "indices", 0) < p:
        return 0
    total = 0
    for k in range(p + 1):
        power = 1 if n == 0 else k**n
        total += (-1) ** (p - k) * math.comb(p, k) * power
    return total


def k_coeff(m: int, j: int) -> int:
    """Sum of all products of j distinct factors taken from 1..m.

    The elementary symmetric polynomial e_j(1, ..., m); the empty product
    gives k_coeff(m, 0) = 1 and the full one k_coeff(m, m) = m!.
    """
    _as_int(m, "indices", 0)
    if _as_int(j, "indices", 0) > m:
        raise ValueError(f"k_coeff undefined for j={j} > m={m}")
    # Row of prod_{i=1..m} (1 + i*t), built coefficient by coefficient.
    row = [1] + [0] * j
    for i in range(1, m + 1):
        for d in range(min(i, j), 0, -1):
            row[d] += i * row[d - 1]
    return row[j]


def stirling2(n: int, p: int) -> int:
    """Stirling number of the second kind, by the triangular recurrence."""
    _as_int(n, "indices", 0)
    _as_int(p, "indices", 0)
    row = [1] + [0] * p  # S(0, d) for d = 0..p; one row per step of n
    for _ in range(n):
        row = [0] + [d * row[d] + row[d - 1] for d in range(1, p + 1)]
    return row[p]


def stirling1_unsigned(p: int, n: int) -> int:
    """Unsigned Stirling number of the first kind, by its recurrence."""
    _as_int(p, "indices", 0)
    _as_int(n, "indices", 0)
    row = [1] + [0] * n  # c(0, d) for d = 0..n; one row per step of p
    for i in range(p):
        row = [0] + [i * row[d] + row[d - 1] for d in range(1, n + 1)]
    return row[n]


# ----------------------------------------------------------------------
# conversion tables between the two differential families


class CoeffTable(namedtuple("CoeffTable", "direction cutoff rows")):
    """Triangular table converting one differential family to the other.

    ``direction`` is "d_to_D" or "D_to_d".  Row index 0 holds order 1;
    each row lists the exact coefficients from the diagonal column up to
    the cutoff order.
    """

    __slots__ = ()

    def entry(self, row_order: int, col_order: int) -> Fraction:
        """Coefficient at (row_order, col_order); zero below the diagonal."""
        if not 1 <= row_order <= self.cutoff:
            raise IndexError(f"row order {row_order} outside 1..{self.cutoff}")
        if not 1 <= col_order <= self.cutoff:
            raise IndexError(f"column order {col_order} outside 1..{self.cutoff}")
        if col_order < row_order:
            return Fraction(0)
        return self.rows[row_order - 1][col_order - row_order]

    def row(self, row_order: int) -> tuple:
        return self.rows[row_order - 1]

    def to_json(self) -> dict:
        return {
            "kind": "coeff_table",
            "direction": self.direction,
            "cutoff": self.cutoff,
            "rows": [
                [format_rational_json(c) for c in row] for row in self.rows
            ],
        }

    @classmethod
    def from_json(cls, data) -> "CoeffTable":
        if data.get("kind") != "coeff_table":
            raise ValueError("not a serialized coefficient table")
        return cls(
            direction=data["direction"],
            cutoff=_as_int(data["cutoff"], "cutoff", 1),
            rows=tuple(
                tuple(map(as_rational, row)) for row in data["rows"]
            ),
        )


def d_to_D_table(max_order: int) -> CoeffTable:
    """Difference operators in terms of Leibniz differentials.

    Row p holds the weights of the order-n differentials (n from p to the
    cutoff) in the order-p difference: the alternating sums divided by n!.
    """
    _as_int(max_order, "max_order", 1)
    rows = tuple(
        tuple(
            Fraction(x_coeff(p, n), math.factorial(n))
            for n in range(p, max_order + 1)
        )
        for p in range(1, max_order + 1)
    )
    return CoeffTable("d_to_D", max_order, rows)


def D_to_d_table(max_order: int) -> CoeffTable:
    """Leibniz differentials in terms of difference operators.

    Row n holds the weights of the order-p differences (p from n to the
    cutoff) in the order-n differential: n! (-1)**(p-n) K(p-1, p-n) / p!,
    with a unit diagonal (the empty product).
    """
    _as_int(max_order, "max_order", 1)
    rows = tuple(
        tuple(
            Fraction(
                math.factorial(n) * (-1) ** (p - n) * k_coeff(p - 1, p - n),
                math.factorial(p),
            )
            for p in range(n, max_order + 1)
        )
        for n in range(1, max_order + 1)
    )
    return CoeffTable("D_to_d", max_order, rows)
