"""Independent forms of quantities the engines compute another way.

Nothing here is on an engine's or route's path. Most functions restate a
formula the library evaluates differently, so the tests can assert the
identities between the two: the hypergeometric condensations of the moment
coefficients, the truncated run-length moments behind the factorial-moment
recurrence, the nested-binomial inner coefficients of the pgf expansion, the
single-run generating function and recurrence, the additive Eulerian
triangle, the rising factorial that sums the hypergeometric series term
by term, and the Stirling transform and index shift of a moment sequence,
one Fraction or float at a time. The factorial and raw moment coefficients by scheme are the
routes' own, finalized one order at a time for the tests to read, and the
Eulerian numbers and polynomials and the Stirling numbers of the second kind
read single entries off the package's cached rows. The table summation that
holds each order's weights in a list is the earlier form of
``moments_from_table``, which must match it bit for bit. The sequence
scanner and the brute-force Type II run-count distribution read the
oracles' own scan of one sequence. Only the tests use these forms, so they
live beside them and are not part of the package.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from runsdist.core import (TYPE1, IndexScheme, MomentKind, MomentSet, PmfTable, RunParams,
                           Scalar, VariantSpec, convert_index)
from runsdist.moments import (_coeff_factorial_cut, _coeff_factorial_full, _coeff_raw_cut,
                              _coeff_raw_full)
from runsdist.oracle import CountingSemantics, _completions
from runsdist.special import _eulerian_row, _stirling2_row, binom, falling, hyp2f1


def _exact_pq(params: RunParams):
    p = Fraction(params.p)
    return p, 1 - p


def _family(params: RunParams, family, j: int) -> Fraction:
    """Coefficient ``j`` of a route's family, ``Y_j / (c^j a^k)`` for ``p = a/b``, ``c = b - a``."""
    if j < 1:
        raise ValueError("coefficient order must be >= 1")
    p = Fraction(params.p)
    a, c = p.numerator, p.denominator - p.numerator
    return Fraction(family(params, j)[j], c ** j * a ** params.k)


def coeff_C(params: RunParams, j: int) -> Scalar:
    """Cut-scheme factorial coefficient; vanishes for ``j > k``."""
    return params.finalize(_family(params, _coeff_factorial_cut, j))


def coeff_F(params: RunParams, j: int) -> Scalar:
    """Full-scheme factorial coefficient; nonzero at every order."""
    return params.finalize(_family(params, _coeff_factorial_full, j))


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
    fn = _coeff_raw_cut if scheme is IndexScheme.CUT else _coeff_raw_full
    return params.finalize(_family(params, fn, j))


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
    return params.finalize(_family(params, _coeff_factorial_cut, j) * p ** k / (1 - p ** k))


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


def raw_from_factorial(values: tuple) -> tuple:
    """Raw moments of orders ``1 ..`` from factorial ones: ``m_n = sum_j S(n, j) M_(j)``."""
    return tuple(sum(stirling2(n, j) * values[j - 1] for j in range(1, n + 1))
                 for n in range(1, len(values) + 1))


def shift_moments(values: tuple, a: int, factorial: bool) -> tuple:
    """Factorial or raw moments of orders ``1 ..`` of ``X + a`` from those of ``X``:
    ``sum_i C(n, i) M_(n-i) (a)_(i)``, or ``a^i`` in place of ``(a)_(i)`` for raw ones."""
    m = (1, *values)
    power = falling if factorial else pow
    return tuple(sum(binom(n, i) * m[n - i] * power(a, i) for i in range(n + 1))
                 for n in range(1, len(m)))


def moments_from_table_lists(table: PmfTable, order_max: int, kind: MomentKind,
                             scheme: IndexScheme | None = None) -> MomentSet:
    """Raw or factorial moments of a pmf table, each order's weights held in a list.

    The summation the library does one index at a time, kept in its earlier
    list-based form: order ``j``'s weights ``n^j`` or ``(n)_j`` come from
    order ``j - 1``'s list, one multiplication per index. The products and
    the order of the sum are the library's, so the two must agree bit for bit.
    """
    scheme = scheme or table.scheme
    n_min = convert_index(table.n_min, table.scheme, scheme, table.params)
    ns, vs = range(n_min, n_min + len(table.values)), table.values
    weights = [1] * len(ns)
    vals = []
    for j in range(order_max):
        if kind is MomentKind.RAW:
            weights = list(map(mul, weights, ns))
        else:
            weights = [w * (n - j) for w, n in zip(weights, ns)]
        vals.append(sum(map(mul, weights, vs)))
    return MomentSet(kind, scheme, tuple(vals))


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
    against the alternating-sum construction of :func:`eulerian_number`.
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


def eulerian_number(i: int, j: int) -> int:
    """Entry ``A(i, j)`` of the Eulerian-number triangle, by alternating sum.

    ``A(i, j) = sum_s (-1)^s C(i+1, s) (j+1-s)^i`` for ``0 <= j <= i-1``;
    entries outside the triangle are 0, and ``A(0, 0) = 1`` by convention.
    """
    if i < 0:
        raise ValueError("order must be nonnegative")
    if j < 0 or j > max(i - 1, 0):
        return 0
    return _eulerian_row(i)[j]


def eulerian_poly(i: int, t):
    """Evaluate the Eulerian polynomial ``A_i(t) = sum_j A(i, j) t^j``; ``A_0(t) = 1``."""
    total = 0
    tp = 1
    for a in _eulerian_row(i):
        total = total + a * tp
        tp = tp * t
    return total


def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind ``S(n, j)``; 0 outside ``0<=j<=n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if j < 0 or j > n:
        return 0
    return _stirling2_row(n)[j]


def sequence_waiting_time(seq, k: int, r: int,
                          semantics: CountingSemantics) -> int | None:
    """Trial index at which the r-th run of ``seq`` completes, by direct scan.

    ``None`` when ``seq`` ends first. An overlap of ``k`` or more is
    rejected with the oracles' ``ValueError``; their check reads only ``k``.
    """
    variant = semantics.to_variant()
    variant.check_against(RunParams(k, r, 0.5))
    return next(itertools.islice(_completions(seq, k, variant), r - 1, None), None)


def brute_force_run_count_dist(params: RunParams, n: int) -> dict:
    """Exact distribution of the Type II run count over ``n`` trials.

    The count is the number of maximal success blocks of length ``>= k``: a
    Type II scan completes one run in each.
    """
    if not 1 <= n <= 22:
        raise ValueError("brute force is capped at n <= 22")
    p, q = params.p, params.q
    ppow = [p ** i for i in range(n + 1)]
    qpow = [q ** i for i in range(n + 1)]
    type2 = VariantSpec.type_ii()
    dist: dict = defaultdict(int)
    for seq in itertools.product((True, False), repeat=n):
        ns = sum(seq)
        runs = sum(1 for _ in _completions(seq, params.k, type2))
        dist[runs] += ppow[ns] * qpow[n - ns]
    return dict(dist)
