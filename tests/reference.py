"""Independent forms of quantities the engines compute another way.

Nothing here is on an engine's or route's path. Most functions restate a
formula the library evaluates differently, so the tests can assert the
identities between the two: the hypergeometric condensations of the moment
coefficients, the truncated run-length moments behind the factorial-moment
recurrence, the nested-binomial inner coefficients of the pgf expansion, the
single-run generating function and recurrence, the additive Eulerian
triangle, and the rising factorial that sums the hypergeometric series term
by term. The factorial and raw moment coefficients by scheme are the
routes' own, finalized one order at a time for the tests to read. Only the
tests use these forms, so they live beside them and are not part of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from runsdist.core import TYPE1, IndexScheme, PmfTable, RunParams, Scalar
from runsdist.moments import (_coeff_factorial_cut, _coeff_factorial_full, _coeff_raw_cut,
                              _coeff_raw_full, _exact_pq)
from runsdist.special import binom, falling, hyp2f1


def coeff_C(params: RunParams, j: int) -> Scalar:
    """Cut-scheme factorial coefficient; vanishes for ``j > k``."""
    if j < 1:
        raise ValueError("coefficient order must be >= 1")
    return params.finalize(_coeff_factorial_cut(params, j))


def coeff_F(params: RunParams, j: int) -> Scalar:
    """Full-scheme factorial coefficient; nonzero at every order."""
    if j < 1:
        raise ValueError("coefficient order must be >= 1")
    return params.finalize(_coeff_factorial_full(params, j))


def coeff_C_hyp(params: RunParams, j: int) -> Scalar:
    """Hypergeometric condensation of :func:`coeff_C`."""
    p, q = _exact_pq(params)
    k = params.k
    inner = p ** (j - 1) - (binom(k, j - 1) * p ** k * q ** (j - 1)
                            * hyp2f1(1 - j, 1, k - j + 2, -p / q))
    return params.finalize(math.factorial(j) / (q ** j * p ** k) * inner - falling(k, j))


def coeff_F_hyp(params: RunParams, j: int) -> Scalar:
    """Hypergeometric condensation of :func:`coeff_F`."""
    p, q = _exact_pq(params)
    k = params.k
    sign = -1 if (j - 1) & 1 else 1
    inner = -p ** (k + j - 1) + (sign * binom(k + j - 2, j - 1) * q ** (j - 1)
                                 * hyp2f1(1 - j, 1, 2 - j - k, -p / q))
    return params.finalize(math.factorial(j) / (q ** j * p ** k) * inner)


def coeff_raw(params: RunParams, j: int,
              scheme: IndexScheme = IndexScheme.CUT) -> Scalar:
    """Raw-moment coefficient, built from Eulerian polynomials."""
    if j < 1:
        raise ValueError("coefficient order must be >= 1")
    fn = _coeff_raw_cut if scheme is IndexScheme.CUT else _coeff_raw_full
    return params.finalize(fn(params, j))


def rising(a, j: int):
    """Rising factorial (Pochhammer) ``a (a+1) ... (a+j-1)``; 1 when ``j == 0``."""
    if j < 0:
        raise ValueError("rising factorial needs j >= 0")
    out = 1
    for i in range(j):
        out *= a + i
    return out


def mu_factorial_truncated(params: RunParams, j: int) -> Scalar:
    """Factorial moment of the truncated run-length variable on ``[1, k]``.

    This is the primitive the factorial-moment recurrence is built from; it
    equals ``C_j p^k / (1 - p^k)`` and vanishes for ``j > k``.
    """
    p, _ = _exact_pq(params)
    k = params.k
    return params.finalize(_coeff_factorial_cut(params, j) * p ** k / (1 - p ** k))


def pgf_expansion_inner_reference(params: RunParams, j: int) -> Scalar:
    """The nested-binomial coefficient ``T_j`` of the ``pgf-expansion`` engine's double sum.

    ``T_j = sum_i C(r+i-1, r-1) (-q p^k)^i C(r+j-ik-1, r+i-1)`` over
    ``i <= j // (k+1)``, term by term. ``T_j`` is the coefficient of ``s^j``
    in ``(1 - s + q p^k s^(k+1))^(-r)``, and the tests assert that it equals
    the power-series division of that expansion.
    """
    p, q = _exact_pq(params)
    k, r = params.k, params.r
    x = -q * p ** k
    return params.finalize(sum(binom(r + i - 1, r - 1) * x ** i
                               * binom(r + j - i * k - 1, r + i - 1)
                               for i in range(j // (k + 1) + 1)))


class PoleAtS(ZeroDivisionError):
    """The generating function was evaluated at a pole."""


def geometric_pgf(params: RunParams, s):
    """Generating function of the single-run (r = 1) waiting time.

    ``p^k s^k (1 - p s) / (1 - s + q p^k s^(k+1))``; total mass gives
    exactly 1 at ``s = 1``. Works for rational, float, or complex ``s``.
    """
    k = params.k
    p, q = params.p, params.q
    den = 1 - s + q * p ** k * s ** (k + 1)
    if den == 0:
        raise PoleAtS(f"generating function has a pole at s={s!r}")
    return p ** k * s ** k * (1 - p * s) / den


def geometric_pmf_recurrence(params: RunParams, n_max: int) -> PmfTable:
    """Single-run pmf by its order-k recurrence (full scheme, r = 1).

    ``f(n) = q f(n-1) + p q f(n-2) + ... + p^(k-1) q f(n-k)`` with
    ``f(k) = p^k`` and zero below.
    """
    if params.r != 1:
        raise ValueError("geometric_pmf_recurrence is the r = 1 case")
    k = params.k
    p, q = params.p, params.q
    if n_max < k:
        raise ValueError(f"n_max must be at least k = {k}")
    w = [p ** j * q for j in range(k)]
    values = [0] * (n_max + 1)
    values[k] = p ** k
    for n in range(k + 1, n_max + 1):
        acc = 0
        for j in range(1, k + 1):
            prev = values[n - j]
            if prev:
                acc += w[j - 1] * prev
        values[n] = acc
    return PmfTable(params, IndexScheme.FULL, TYPE1, k, tuple(values[k:]))


@dataclass(frozen=True)
class EulerianTable:
    """Triangle of Eulerian numbers up to a fixed order.

    Row ``i >= 1`` holds ``A(i, 0) .. A(i, i-1)``; row 0 is the constant 1.
    Built from the additive recurrence
    ``A(i, j) = (j+1) A(i-1, j) + (i-j) A(i-1, j-1)``, which the tests check
    against the alternating-sum construction of
    :func:`~runsdist.special.eulerian_number`.
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
