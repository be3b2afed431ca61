"""Integer-combinatorics and special-function primitives shared by all engines.

Binomial coefficients carry an explicit edge convention, because the
combinatorial formulas implemented by the pmf engines disagree about what
``C(a, b)`` should mean when ``a`` is negative. Making the convention a named
argument turns that ambiguity into something the test suite can settle
empirically. Everything in this module is pure and exact: integer arguments
produce integers, :class:`~fractions.Fraction` arguments stay exact, floats
and complex values work as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class BinomConvention(Enum):
    """Edge convention for ``binom(a, b)`` outside ``0 <= b <= a``.

    ZERO_ON_NEGATIVE_TOP returns 0 whenever ``a < 0``, ``b < 0`` or ``b > a``.
    EXTEND_NEGATIVE_TOP additionally defines ``C(a, b) = (-1)^b C(b-a-1, b)``
    for ``a < 0, b >= 0`` (the usual polynomial extension of the upper index).
    """

    ZERO_ON_NEGATIVE_TOP = "zero-on-negative-top"
    EXTEND_NEGATIVE_TOP = "extend-negative-top"


def binom(a: int, b: int,
          convention: BinomConvention = BinomConvention.ZERO_ON_NEGATIVE_TOP) -> int:
    """Binomial coefficient ``C(a, b)`` as an exact integer, total over Z x Z."""
    if b < 0:
        return 0
    if a < 0:
        if convention is BinomConvention.ZERO_ON_NEGATIVE_TOP:
            return 0
        sign = -1 if b & 1 else 1
        return sign * math.comb(b - a - 1, b)
    if b > a:
        return 0
    return math.comb(a, b)


def homogeneous_horner(coeffs, x: int, d: int) -> int:
    """Exact ``sum_j coeffs[j] x^j d^(J-j)`` with ``J = len(coeffs) - 1``.

    This is the integer numerator of ``sum_j coeffs[j] (x/d)^j`` over the
    common denominator ``d^J``, so an alternating rational sum is evaluated
    with plain integer additions and rounded by a single division. The
    homogeneous Horner step ``acc = acc*d + coeffs[j]*x^j`` multiplies the
    growing accumulator and power only by the fixed ``d`` and ``x`` or by one
    coefficient; no rational is built per term. An empty list sums to 0.
    """
    acc = 0
    xp = 1
    for c in coeffs:
        acc = acc * d + c * xp if c else acc * d
        xp *= x
    return acc


def falling(a, j: int):
    """Falling factorial ``a (a-1) ... (a-j+1)``; equals 1 when ``j == 0``."""
    if j < 0:
        raise ValueError("falling factorial needs j >= 0")
    out = 1
    for i in range(j):
        out *= a - i
    return out


def rising(a, j: int):
    """Rising factorial (Pochhammer) ``a (a+1) ... (a+j-1)``; 1 when ``j == 0``."""
    if j < 0:
        raise ValueError("rising factorial needs j >= 0")
    out = 1
    for i in range(j):
        out *= a + i
    return out


class NonTerminatingSeries(ValueError):
    """Neither upper parameter of the 2F1 is a nonpositive integer."""


class ZeroDenominatorPochhammer(ValueError):
    """The lower-parameter Pochhammer vanishes before the series terminates."""


@dataclass(frozen=True)
class Hyp2F1Spec:
    """A terminating Gauss hypergeometric series 2F1(a, b; c; z).

    At least one of ``a, b`` must be a nonpositive integer so the series
    terminates; the construction rejects arguments whose lower-parameter
    Pochhammer ``(c)_i`` would vanish before the terminating index.
    """

    a: int
    b: int
    c: int
    z: object

    def __post_init__(self) -> None:
        m = self.termination_index
        # (c)_i = c (c+1) ... (c+i-1) vanishes for some i <= m iff 1-m <= c <= 0.
        if 1 - m <= self.c <= 0:
            raise ZeroDenominatorPochhammer(
                f"(c)_i vanishes at i={1 - self.c} <= {m} for c={self.c}")

    @property
    def termination_index(self) -> int:
        stops = [-x for x in (self.a, self.b) if x <= 0]
        if not stops:
            raise NonTerminatingSeries(
                f"2F1({self.a}, {self.b}; {self.c}; z) does not terminate")
        return min(stops)


def hyp2f1_terminating(spec: Hyp2F1Spec):
    """Evaluate the terminating series by left-to-right product accumulation.

    Each term is obtained from the previous by one multiply/divide, so the
    evaluation is exact for rational ``z`` and overflow-free for float or
    complex ``z``.
    """
    a, b, c, z = spec.a, spec.b, spec.c, spec.z
    total = 1
    term = 1
    for i in range(spec.termination_index):
        term = term * (a + i) * (b + i) * z / ((c + i) * (i + 1))
        total = total + term
    return total


def hyp2f1(a: int, b: int, c: int, z):
    """Convenience wrapper: validate and evaluate 2F1(a, b; c; z)."""
    return hyp2f1_terminating(Hyp2F1Spec(a, b, c, z))


def eulerian_number(i: int, j: int) -> int:
    """Entry ``A(i, j)`` of the Eulerian-number triangle, by alternating sum.

    ``A(i, j) = sum_s (-1)^s C(i+1, s) (j+1-s)^i`` for ``0 <= j <= i-1``;
    entries outside the triangle are 0, and ``A(0, 0) = 1`` by convention.
    """
    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return 1 if j == 0 else 0
    if j < 0 or j > i - 1:
        return 0
    total = 0
    for s in range(j + 1):
        term = math.comb(i + 1, s) * (j + 1 - s) ** i
        total += -term if s & 1 else term
    return total


@dataclass(frozen=True)
class EulerianTable:
    """Triangle of Eulerian numbers up to a fixed order.

    Row ``i >= 1`` holds ``A(i, 0) .. A(i, i-1)``; row 0 is the constant 1.
    Built from the additive recurrence
    ``A(i, j) = (j+1) A(i-1, j) + (i-j) A(i-1, j-1)``, which the tests check
    against the independent alternating-sum construction.
    """

    max_order: int
    rows: tuple

    @classmethod
    def build(cls, max_order: int) -> "EulerianTable":
        if max_order < 0:
            raise ValueError("max_order must be nonnegative")
        rows = [(1,)]
        for i in range(1, max_order + 1):
            prev = rows[i - 1] if i > 1 else (1,)
            row = []
            for j in range(i):
                left = prev[j] if j < len(prev) else 0
                up = prev[j - 1] if 0 <= j - 1 < len(prev) else 0
                row.append((j + 1) * left + (i - j) * up)
            rows.append(tuple(row))
        return cls(max_order=max_order, rows=tuple(rows))

    def number(self, i: int, j: int) -> int:
        if i > self.max_order:
            raise ValueError(f"order {i} exceeds table max_order {self.max_order}")
        row = self.rows[i]
        if i == 0:
            return 1 if j == 0 else 0
        return row[j] if 0 <= j < len(row) else 0


def eulerian_poly(i: int, t, table: EulerianTable | None = None):
    """Evaluate the Eulerian polynomial ``A_i(t) = sum_j A(i, j) t^j``.

    ``A_0(t) = 1``. With ``table`` given, orders beyond ``table.max_order``
    raise; without a table the triangle entries come from the alternating-sum
    formula directly.
    """
    if i == 0:
        return 1
    if table is not None:
        if i > table.max_order:
            raise ValueError(f"order {i} exceeds table max_order {table.max_order}")
        coeffs = table.rows[i]
    else:
        coeffs = [eulerian_number(i, j) for j in range(i)]
    total = 0
    tp = 1
    for a_ij in coeffs:
        total = total + a_ij * tp
        tp = tp * t
    return total


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple:
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for j in range(1, n + 1):
        row[j] = j * (prev[j] if j < len(prev) else 0) + prev[j - 1]
    return tuple(row)


def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind ``S(n, j)``; 0 outside ``0<=j<=n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if j < 0 or j > n:
        return 0
    return _stirling2_row(n)[j]
