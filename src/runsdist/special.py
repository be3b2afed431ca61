"""Integer-combinatorics and special-function primitives shared by all engines.

Binomial coefficients follow the zero-on-negative-top convention: ``C(a, b)``
is 0 whenever ``a < 0``, ``b < 0`` or ``b > a``. The combinatorial formulas of
the pmf engines disagree about negative upper arguments, and this is the
choice the enumeration oracle validates. The terminating Gauss
hypergeometric series rejects arguments whose series would not terminate or
would divide by zero. :func:`homogeneous_horner` is the one integer kernel
behind every exact alternating pmf sum. Everything in this module is pure and
exact: integer arguments produce integers, :class:`~fractions.Fraction`
arguments stay exact, floats and complex values work as well.
"""

from __future__ import annotations

import math
from functools import lru_cache


def binom(a: int, b: int) -> int:
    """Binomial coefficient ``C(a, b)`` as an exact integer, total over Z x Z.

    Zero outside ``0 <= b <= a``, negative ``a`` included.
    """
    if b < 0 or a < 0 or b > a:
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


def hyp2f1(a: int, b: int, c: int, z):
    """The terminating Gauss hypergeometric series 2F1(a, b; c; z).

    At least one of ``a, b`` must be a nonpositive integer so the series
    terminates (:class:`NonTerminatingSeries` otherwise), and the
    lower-parameter Pochhammer ``(c)_i`` must not vanish before the
    terminating index (:class:`ZeroDenominatorPochhammer` otherwise). Each
    term is obtained from the previous by one multiply/divide, so the
    evaluation is exact for rational ``z`` and overflow-free for float or
    complex ``z``.
    """
    stops = [-x for x in (a, b) if x <= 0]
    if not stops:
        raise NonTerminatingSeries(f"2F1({a}, {b}; {c}; z) does not terminate")
    m = min(stops)
    # (c)_i = c (c+1) ... (c+i-1) vanishes for some i <= m iff 1-m <= c <= 0.
    if 1 - m <= c <= 0:
        raise ZeroDenominatorPochhammer(f"(c)_i vanishes at i={1 - c} <= {m} for c={c}")
    total = 1
    term = 1
    for i in range(m):
        term = term * (a + i) * (b + i) * z / ((c + i) * (i + 1))
        total = total + term
    return total


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


def eulerian_poly(i: int, t):
    """Evaluate the Eulerian polynomial ``A_i(t) = sum_j A(i, j) t^j``.

    ``A_0(t) = 1``; the triangle entries come from :func:`eulerian_number`.
    """
    if i == 0:
        return 1
    total = 0
    tp = 1
    for j in range(i):
        total = total + eulerian_number(i, j) * tp
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
