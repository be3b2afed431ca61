"""Interchangeable engines for the waiting-time pmf.

Seven engines cover the nonoverlapping (Type I) family: the order-k linear
recurrence in full indexing and the same table relabelled in cut indexing, an
O(n^2) double combinatorial sum, an O(n) nested sum, its hypergeometric
condensation, a generating-function expansion, and the root-based engine that
lives in :mod:`runsdist.roots`. Two further engines cover the
at-least-one-failure-between-runs (Type II) family, each in two algebraic
forms, plus the matching fixed-length run-count distribution, which is the
Type II series of one run more at a later trial. Each engine is one
:class:`EngineSpec` record in :data:`ENGINES`, and :func:`pmf_table` and the
CLI read only that record.

The alternating sums here cancel catastrophically in double precision (terms
can exceed 1e10 while the result is below 1e-2), so every sum-type engine
evaluates its terms in exact rational arithmetic internally, converting a
float success probability to its exact binary value, and returns the exact
value, correctly rounded in float mode. No rational is built per term: each
engine writes its terms as small integer brackets over powers of the
denominator ``d`` of ``p``. Where neighbouring terms are binomials or
products of binomials, each is stepped from the last by one small exact
ratio instead of being computed afresh. The run-placement binomials
``C(n-jk-1, j-1)`` that start the columns of the nested sum and its
condensation step along ``j`` the same way (see :func:`_column_starts`), so
a deep index costs no big binomial, only O(n)-bit small-factor steps; the
double sum starts each column at the first nonzero bracket with one
``math.comb`` pair (see :func:`_fullsum_values`). The nested sum, its
condensation, the generating-function expansion and the double sum each have
one range evaluator on :func:`_stepped_rows`, and the Type II waiting times
and run counts share one: the first ``k+1`` rows of brackets are computed
directly, and every later row is stepped from the ``k+1`` before it, by
Pascal's rule (see :func:`_pascal_row`) or, for the double sum, by a rule of
its own, so a table adds rows instead of computing binomials per term. A
single index is a table of one computed row, read through the engine's
record.

The nested sum, its condensation, the generating-function expansion and the
Type II forms end in one alternating outer sum in powers of
``y = p^k q <= 1/4``, and the double sum ends in one in powers of ``q/p``.
One finisher, :class:`_OuterSum`, evaluates them all. It sums on one
:class:`~runsdist.special.HornerLadder`, whose powers a table's indices
share, and builds the value by :class:`~runsdist.core.PowerRatio`, which in
exact mode divides by ``gcd(num, d, d^e)`` until it is 1, with no factoring
of ``d``. For a float ``p``, ``d`` is a power of two, and the sums in ``y``
are first rounded by :func:`~runsdist.special.fixed_point_horner`, a fixed-point sum
a few hundred bits past the cancellation that proves which double the exact
value rounds to; only a value too close to call pays for the exact sum,
whose integers grow by the bits of ``d^(k+1)`` per term.

The recurrence has nonnegative terms, so it runs on doubles in float mode. In
exact mode it steps the integer numerators of its values over powers of the
denominator of ``p`` and builds one fraction per entry by
:class:`~runsdist.core.PowerRatio`. Both recurrence engines read one list of
values, so each of their tables is built and checked once.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul, sub
from typing import Callable

from .core import (TYPE1, IndexScheme, NumericFailure, PmfTable, PowerRatio, RunParams, Scalar,
                   TermCounter, VariantSpec, convert_index, support_min)
from .special import HornerLadder, binom, fixed_point_horner


class PmfEngine(Enum):
    """Engine identifiers; the values double as the CLI names."""

    RECURRENCE_PG = "recurrence-pg"
    RECURRENCE_CH = "recurrence-ch"
    FULLSUM_CH = "fullsum-ch"
    NESTED_SUM = "nested-sum"
    HYP_SUM = "hyp-sum"
    PGF_EXPANSION = "pgf-expansion"
    ROOT_BASED = "root-based"
    MUSELLI_ORIGINAL = "muselli-original"
    MUSELLI_ALT = "muselli-alt"
    MUSELLI_COUNTS_ORIGINAL = "muselli-counts-original"
    MUSELLI_COUNTS_ALT = "muselli-counts-alt"


class MuselliForm(Enum):
    ORIGINAL = "original"
    ALT = "alt"


class RecurrenceUnderflow(NumericFailure):
    """The float recurrence's terms ``p^j P_(n-j)`` would fall below the smallest normal double."""


def _recurrence_values(params: RunParams, n_max: int) -> list:
    """Full-scheme pmf values at ``r*k .. n_max`` by the order-k recurrence.

    ``P_rk = p^rk`` and for ``n > rk``
    ``P_n = (q/p)/(n-rk) * sum_j (n - rk + j(r-1)) p^j P_{n-j}``, ``j <= k``.
    All terms are nonnegative, so double precision is stable and float mode
    runs the recurrence as written. Exact mode runs it on the integer
    numerators ``N_n = P_n d^n`` of ``p = a/d``:
    ``N_n = b sum_j (n - rk + j(r-1)) a^(j-1) N_{n-j} / (n-rk)`` with
    ``b = d - a``, where the division is exact, and builds one fraction per
    entry by :class:`~runsdist.core.PowerRatio`, which divides by
    ``gcd(num, d, d^e)`` until it is 1. A float ``p`` whose ``p^((r+1)k)``
    is below the smallest normal double raises :class:`RecurrenceUnderflow`
    first: the terms ``p^j P_(n-j)`` would underflow before ``q/p`` scales
    them back.
    """
    k, r, p = params.k, params.r, params.p
    rk = r * k
    if n_max < rk:
        raise ValueError(f"n_max must be at least r*k = {rk}")
    if not params.exact and p ** ((r + 1) * k) < sys.float_info.min:
        raise RecurrenceUnderflow(f"p^((r+1)k) = {p!r}^{(r + 1) * k} is below the smallest "
                                  "normal double; use nested-sum or an exact p")
    if params.exact:
        a, d = p.as_integer_ratio()
        b = d - a
        apow = [a ** j for j in range(k)]
        nums = [a ** rk]
        ratio = PowerRatio(params)
        values = [ratio(nums[0], rk)]
        for m in range(1, n_max - rk + 1):
            acc = 0
            for j in range(1, min(k, m) + 1):
                acc += (m + j * (r - 1)) * apow[j - 1] * nums[m - j]
            nums.append(b * acc // m)
            values.append(ratio(nums[m], rk + m))
        return values
    q = params.q
    ppow = [p ** j for j in range(k + 1)]
    values = [p ** rk]
    for m in range(1, n_max - rk + 1):
        acc = 0
        for j in range(1, min(k, m) + 1):
            prev = values[m - j]
            if prev:
                acc += (m + j * (r - 1)) * ppow[j] * prev
        values.append((q / p) * acc / m)
    return values


def pmf_recurrence_pg(params: RunParams, n_max: int) -> PmfTable:
    """Full-scheme pmf by the order-k recurrence, table over ``[r*k, n_max]``.

    Float mode runs the recurrence on doubles, exact mode on the integer
    numerators of the values over ``d^n`` for ``p = a/d`` (see
    :func:`_recurrence_values`).
    """
    return PmfTable(params, IndexScheme.FULL, TYPE1, params.r * params.k,
                    tuple(_recurrence_values(params, n_max)))


def _column_starts(m: int, k: int) -> list:
    """``C(top, max(j-1, 0))`` with ``top = m-jk-1`` for the columns ``j = 0 .. m//(k+1)``.

    Past ``j = m//(k+1)`` the top falls below ``j-1`` (``m >= 1``), so that
    binomial and every later one vanish. Columns 0 and 1 start at 1, and
    each later start follows from the one before by the exact small ratio
    ``C(T-k, b+1) = C(T, b) (T-b)_(k+1) / ((b+1) (T)_k)``, falling factorials
    of ``k+1`` and ``k`` factors, so the columns of a deep index cost no big
    binomial.
    """
    last = m // (k + 1)
    starts = [1, 1][:last + 1]  # C(m-1, 0) and C(m-k-1, 0)
    for j in range(2, last + 1):
        top = m - j * k - 1
        # C(top, j-1) from C(top+k, j-2)
        starts.append(starts[-1] * math.perm(top + k - j + 2, k + 1)
                      // ((j - 1) * math.perm(top + k, k)))
    return starts


def _run_weights(r: int, n: int, sign: int = 1) -> list:
    """``sign^i C(r+i-1, r-1)`` for ``i = 0 .. n``, stepped along ``i``."""
    weights = [1]
    for i in range(1, n + 1):
        weights.append(sign * weights[-1] * (r + i - 1) // i)
    return weights


class _OuterSum:
    """``head sum_j weights[j] c_j x^j d^(J-j) / (div den^(base + step J))``, in ``params``' mode.

    Every sum engine ends here: called with the coefficients ``c_0 .. c_J``
    of one index, it returns that index's value. ``den`` is the denominator
    of ``p``, and ``div`` divides the integer numerator exactly. The sum runs
    on one :class:`~runsdist.special.HornerLadder`, so the indices of a table
    share its powers, and :class:`~runsdist.core.PowerRatio` builds the
    value. A float ``p`` has ``den = 2^z``; where ``d = den^step`` and
    ``x/d < 1/2``, as in the sums over powers of ``p^k q <= 1/4``,
    :func:`~runsdist.special.fixed_point_horner` first rounds the value from
    a fixed-point sum a few hundred bits past its cancellation, and only a
    value it cannot call takes the exact sum. Either way the result is the
    exact value, correctly rounded in float mode.
    """

    def __init__(self, params: RunParams, x: int, d: int, weights: list, head: int,
                 base: int, step: int, div: int = 1) -> None:
        self.ratio = PowerRatio(params)
        z = self.ratio.d.bit_length() - 1  # den = 2^z for a float p
        self.fixed = not params.exact and div == 1 and d == 1 << z * step and 2 * x < d
        self.x, self.s, self.t = x, z * step, z * base
        self.weights, self.head, self.base, self.step, self.div = weights, head, base, step, div
        self.ladder = HornerLadder(x, d, weights)

    def __call__(self, coeffs: list) -> Scalar:
        if self.fixed:
            value = fixed_point_horner(list(map(mul, coeffs, self.weights)), self.x, self.s,
                                       self.head, self.t)
            if value is not None:
                return value
        total = self.head * self.ladder(coeffs) // self.div
        return self.ratio(total, self.base + self.step * (len(coeffs) - 1))


def _stepped_rows(k: int, lo: int, hi: int, seed: Callable, step: Callable):
    """Yield ``(n, R_n)`` for ``n = lo .. hi`` (``lo >= 1``) of a table of bracket rows.

    The first ``k+1`` rows come from ``seed(n)``, which evaluates one row on
    its own; every later row comes from ``step(n, rows)`` over the rows
    ``R_(n-1-k) .. R_(n-1)``. A single index is a table of one seeded row.
    A stepped row has ``n >= k+2`` and reads no row below 1, so a rule that
    fails only at ``n <= k+1`` needs no fix-up.
    """
    rows = deque(maxlen=k + 1)
    for n in range(lo, hi + 1):
        rows.append(step(n, rows) if len(rows) > k else seed(n))
        yield n, rows[-1]


def _pascal_row(rows, first: int = 0) -> list:
    """``R_n = [first, R_(n-1)[j] + R_(n-1-k)[j-1] for j >= 1]`` from ``R_(n-1-k) .. R_(n-1)``.

    An entry ``sum_i c_i C(n-jk-1, j-1+i)`` of column ``j`` steps this way
    by Pascal's rule, which fails only where a binomial is ``C(0, 0)``;
    column 0 would step from a column -1, so the caller gives it. ``R_n``
    has one column more than ``R_(n-1-k)``.
    """
    return [first, *map(add, rows[-1][1:] + [0], rows[0])]


def pmf_fullsum_ch(params: RunParams, n: int) -> Scalar:
    """Cut-scheme pmf by the O(n^2) double combinatorial sum, at one index (see :func:`_single`)."""
    return _single(PmfEngine.FULLSUM_CH, params, n)


def _fullsum_values(params: RunParams, lo: int, hi: int) -> list:
    """:func:`pmf_fullsum_ch` at ``lo .. hi`` (``lo >= 0``), its brackets on :func:`_stepped_rows`.

    The inner bracket ``B_n[i] = sum_j (-1)^j C(i, j) C(n-jk-1, i-1)`` is a
    pure integer. By inclusion and exclusion over the parts longer than
    ``k`` it counts the compositions of ``n`` into ``i`` parts of size 1 to
    ``k``, so it is 0 below ``i = ceil(n/k)``. The outer term ``i`` carries
    ``C(r+i-1, r-1) q^i p^(n+rk-i)``, so :class:`_OuterSum` finishes it
    with ``x``, ``d`` the numerators ``qn``, ``pn`` of ``q`` and ``p`` over
    the common denominator ``den^(n+rk)``. A seeded row starts each column
    ``j`` at ``i = max(j, ceil(n/k))`` with one ``math.comb`` pair and steps
    along ``i`` by one small ratio, so its O(n^2/k) terms cost no big
    binomial beyond the column starts. Pascal's rule on ``C(n-jk-1, i-1)``
    and then on ``C(i, j)`` steps a row across ``n``:
    ``B_n[i] = B_(n-1)[i] + B_(n-1)[i-1] - B_(n-1-k)[i-1]`` for ``i >= 1``,
    two additions per entry. The first rule fails only at
    ``n = 1`` and ``n = k+1``, which are seeded. Index 0 is ``p^rk``.
    """
    k, r = params.k, params.r
    pn, den = params.p.as_integer_ratio()
    outer = _OuterSum(params, den - pn, pn, _run_weights(r, hi), pn ** (r * k), r * k, 1)

    def seed(n: int) -> list:
        bracket = [0] * (n + 1)
        low = -(-n // k)  # the first i whose bracket is not 0
        for j in range(n // k + 1):
            top = n - j * k - 1
            first = max(j, low)
            if first > top + 1:  # C(top, i-1) vanishes from i = top + 2 on
                break
            t = math.comb(first, j) * math.comb(top, first - 1)
            if j & 1:
                t = -t
            for i in range(first, top + 2):
                bracket[i] += t
                # C(i+1, j) C(top, i) from C(i, j) C(top, i-1); the quotient is exact
                t = t * ((i + 1) * (top - i + 1)) // ((i + 1 - j) * i)
        return bracket

    def step(n: int, rows) -> list:
        prev, back = rows[-1], rows[0]
        return [0, *map(sub, map(add, prev[1:] + [0], prev), back + [0] * (n - len(back)))]

    values = [outer([1])] if lo == 0 else []
    return values + [outer(row) for _, row in _stepped_rows(k, max(lo, 1), hi, seed, step)]


def _nested_sum(params: RunParams, j_max: int) -> _OuterSum:
    """The outer sum of the nested sum, its condensation and the pgf expansion, ``j <= j_max``.

    Column ``j`` carries ``(-1)^j C(r+j-1, r-1) (p^k q)^j`` times its inner
    bracket, which the callers scale by ``den^r``, and the sum carries
    ``p^rk``; with ``x = pn^k qn`` and ``d = den^(k+1)`` the value is
    ``pn^rk sum_j w_j c_j x^j d^(J-j) / den^(rk + r + (k+1) J)``.
    """
    k, r = params.k, params.r
    pn, den = params.p.as_integer_ratio()
    return _OuterSum(params, pn ** k * (den - pn), den ** (k + 1), _run_weights(r, j_max, -1),
                     pn ** (r * k), r * k + r, k + 1)


def _nested_bracket(cq: list, top: int, j: int, t: int) -> int:
    """The inner bracket ``sum_i cq[i] C(top, j+i-1)`` of column ``j``.

    ``t`` is the column start ``C(top, max(j-1, 0))``. Each binomial follows
    from the one before by one small ratio; the terms whose binomial
    vanishes are skipped.
    """
    first = 0 if j else 1  # the first i whose bottom j+i-1 is >= 0
    last = min(len(cq) - 1, top - j + 1)  # the last i whose bottom is <= top
    b = j + first - 1
    inner = t * cq[first]
    for i in range(first + 1, last + 1):
        t = t * (top - b) // (b + 1)  # C(top, b+1) from C(top, b)
        b += 1
        inner += t * cq[i]
    return inner


def _nested_terms(m: int, k: int, r: int) -> int:
    """The bracket terms :func:`_nested_bracket` sums at cut index ``m >= 1``.

    ``min(r, m)`` in column 0 and ``min(r, m - j(k+1)) + 1`` in each column
    ``j = 1 .. m//(k+1)``.
    """
    return min(r, m) + sum(min(r, m - j * (k + 1)) + 1 for j in range(1, m // (k + 1) + 1))


def pmf_nested_sum(params: RunParams, n: int, scheme: IndexScheme = IndexScheme.CUT,
                   counter: TermCounter | None = None) -> Scalar:
    """Pmf by the O(n) nested sum at one index of either scheme (see :func:`_single`).

    At most ``(r+1) * (1 + floor((m-1)/k))`` bracket terms are touched, where
    ``m`` is the cut-scheme index; terms whose binomial vanishes are skipped
    and only actually-summed terms are counted into ``counter``.
    """
    return _single(PmfEngine.NESTED_SUM, params, n, scheme, counter)


def _nested_values(params: RunParams, lo: int, hi: int,
                   counter: TermCounter | None = None) -> list:
    """:func:`pmf_nested_sum` at cut indices ``lo .. hi`` (``lo >= 0``) on :func:`_stepped_rows`.

    The bracket ``D_m[j] = sum_i C(r,i) q^i C(m-jk-1, j+i-1)``, scaled by
    ``den^r``, is made of the binomials ``C(top, j-1+i)``. A seeded row
    sums each column from its start in :func:`_column_starts`; a stepped
    row takes :func:`_pascal_row`, one addition per entry, and sums column
    0 afresh. Index 0 is ``p^rk``, the bracket ``[den^r]``. ``counter``
    adds the terms :func:`_nested_terms` counts at each index from 1.
    """
    k, r = params.k, params.r
    pn, den = params.p.as_integer_ratio()
    cq = [math.comb(r, i) * (den - pn) ** i * den ** (r - i) for i in range(r + 1)]
    outer = _nested_sum(params, hi // (k + 1))

    def seed(m: int) -> list:
        return [_nested_bracket(cq, m - j * k - 1, j, t)
                for j, t in enumerate(_column_starts(m, k))]

    def step(m: int, rows) -> list:
        return _pascal_row(rows, _nested_bracket(cq, m - 1, 0, 1))

    values = [outer(cq[:1])] if lo == 0 else []
    for m, row in _stepped_rows(k, max(lo, 1), hi, seed, step):
        if counter is not None:
            counter.add(_nested_terms(m, k, r))
        values.append(outer(row))
    return values


def _hyp2f1_scaled(t: int, a: int, b: int, c: int, qpow: list) -> int:
    """``sum_i t_i qpow[i]`` over the terms ``t_i`` of ``t * 2F1(a, b; c; .)``.

    Each term follows from the previous by the 2F1 term ratio
    ``(a+i)(b+i) / ((c+i)(i+1))``. The callers start at a binomial, so every
    ``t_i`` is a product of two binomials and each division is exact.
    """
    total = 0
    for i, qp in enumerate(qpow):
        if not t:
            break
        total += t * qp
        t = t * ((a + i) * (b + i)) // ((c + i) * (i + 1))
    return total


def pmf_hyp(params: RunParams, n: int, scheme: IndexScheme = IndexScheme.CUT) -> Scalar:
    """Pmf by the nested sum's hypergeometric condensation, at one index (see :func:`_single`)."""
    return _single(PmfEngine.HYP_SUM, params, n, scheme)


def _hyp_values(params: RunParams, lo: int, hi: int) -> list:
    """:func:`pmf_hyp` at the cut indices ``lo .. hi`` (``lo >= 0``), its constants computed once.

    The inner bracket collapses to ``C(m-jk-1, j-1) 2F1(jk+j-m, -r; j; q)``;
    the ``j = 0`` term uses the separate form ``q r 2F1(1-m, 1-r; 2; q)``
    because the general one would put 0 in the 2F1 denominator parameter.
    The series run on integers (see :func:`_hyp2f1_scaled`). The column
    starts ``C(m-jk-1, j-1)`` are run binomials, rows that
    :func:`_column_starts` seeds and :func:`_pascal_row` steps (column 0,
    ``C(m-1, -1)``, is 0); each column sums its own 2F1 series, whose
    ``qi[i]`` is ``q^i`` scaled by ``den^r``, and the ``j = 0`` column
    carries ``q^(i+1)``. Index 0 is ``p^rk``.
    """
    k, r = params.k, params.r
    pn, den = params.p.as_integer_ratio()
    qi = [(den - pn) ** i * den ** (r - i) for i in range(r + 1)]
    outer = _nested_sum(params, hi // (k + 1))
    values = [outer(qi[:1])] if lo == 0 else []
    rows = _stepped_rows(k, max(lo, 1), hi, lambda m: [0, *_column_starts(m, k)[1:]],
                         lambda m, rows: _pascal_row(rows))
    for m, starts in rows:
        values.append(outer([_hyp2f1_scaled(r, 1 - m, 1 - r, 2, qi[1:])] + [
            _hyp2f1_scaled(starts[j], j * (k + 1) - m, -r, j, qi) for j in range(1, len(starts))]))
    return values


def pmf_pgf_expansion(params: RunParams, n: int) -> Scalar:
    """Full-scheme pmf as the coefficient of ``s^n`` in the r-th pgf power (see :func:`_single`)."""
    return _single(PmfEngine.PGF_EXPANSION, params, n)


def _pgf_expansion_values(params: RunParams, lo: int, hi: int) -> list:
    """:func:`pmf_pgf_expansion` at ``lo .. hi`` (all ``>= r*k``) on :func:`_stepped_rows`.

    With ``v = n - rk`` the pmf is ``p^rk sum_i (-1)^i C(r,i) p^i T_(v-i)``,
    ``T_j = sum_l (-1)^l C(r+l-1, r-1) (p^k q)^l C(r+j-lk-1, r+l-1)`` the
    coefficients of ``(1 - s + q p^k s^(k+1))^(-r)``. Summed over ``i``
    first, column ``l`` of row ``v`` is ``B_v[l] = sum_i (-1)^i C(r,i) p^i
    C(r+v-i-lk-1, r+l-1)`` over ``i <= v - l(k+1)``, scaled by ``den^r``, and
    the row ends in :func:`_nested_sum`. A seeded row takes one ``math.comb``
    per column and steps every column along ``i`` by one small ratio; a
    stepped row takes :func:`_pascal_row`, which fails only at ``C(0, 0)``,
    in column 0, and sums column 0 afresh from its ``r+1`` small binomials.
    Index ``rk`` is ``p^rk``.
    """
    k, r = params.k, params.r
    rk = r * k
    pn, den = params.p.as_integer_ratio()
    cp = [(-1) ** i * math.comb(r, i) * pn ** i * den ** (r - i) for i in range(r + 1)]
    outer = _nested_sum(params, (hi - rk) // (k + 1))

    def seed(v: int) -> list:
        bottoms = range(r - 1, r + v // (k + 1))  # column l's; its top falls by k per column
        t = list(map(math.comb, range(r + v - 1, -1, -k), bottoms))  # at i = 0
        row = list(map(cp[0].__mul__, t))
        for i in range(1, r + 1):  # C(top-1, bottom) from C(top, bottom), the division exact
            tops = range(r + v - i, 0, -k)
            t = list(map(floordiv, map(mul, t, map(sub, tops, bottoms)), tops))
            row = list(map(add, row, map(cp[i].__mul__, t)))
        return row

    values = [outer(cp[:1])] if lo == rk else []
    rows = _stepped_rows(k, max(lo - rk, 1), hi - rk, seed, lambda v, rows: _pascal_row(
        rows, sum(map(mul, cp, map(math.comb, range(r + v - 1, v - 2, -1), repeat(r - 1))))))
    return values + [outer(row) for _, row in rows]


def _muselli_brackets(params: RunParams, form: MuselliForm, n: int) -> list:
    """The Type II brackets of trial ``n`` at ``m = 0 .. (n+1)//(k+1)``, scaled by ``den``.

    With ``t = n-mk`` they are ``den C(t-1, m-2) + qn C(t-1, m-1)``
    (ORIGINAL) or ``den C(t, m-1) - pn C(t-1, m-1)`` (ALT). The forms agree
    wherever Pascal's rule ``C(t, m-1) = C(t-1, m-1) + C(t-1, m-2)`` holds,
    that is everywhere but ``t = 0``, ``m = 1``, the first support point
    ``n = k``. There ORIGINAL's ``C(-1, -1)`` is read as Pascal's rule reads
    it, ``C(0, 0) - C(-1, 0) = 1``, so both forms give ``den`` and the rows
    of either step by :func:`_pascal_row` alone.
    """
    k = params.k
    pn, den = params.p.as_integer_ratio()
    ts = range(n, n - ((n + 1) // (k + 1) + 1) * k, -k)  # t at m = 0, 1, ...
    if form is MuselliForm.ORIGINAL:  # C(t-1, m-2) is 1 at t-1 = m-2 = -1
        return [den * (binom(t - 1, m - 2) + (t == 0 == m - 1)) + (den - pn) * binom(t - 1, m - 1)
                for m, t in enumerate(ts)]
    return [den * binom(t, m - 1) - pn * binom(t - 1, m - 1) for m, t in enumerate(ts)]


def _muselli_values(params: RunParams, lo: int, hi: int, form: MuselliForm,
                    count: int | None = None) -> list:
    """:func:`pmf_muselli` at ``lo .. hi`` (``lo >= 1``), or with ``count`` :func:`counts_muselli`.

    The Type II series of ``R`` runs at trial ``N`` sums, over the terms
    ``m >= R``, ``(-1)^(m-R) C(m-1, R-1)`` times the bracket ``b_m`` of
    :func:`_muselli_brackets` times ``p^(mk) q^(m-1) / den``. The waiting
    time reads it with ``R = r`` at ``N = n``. The probability of exactly
    ``count`` runs in ``n`` trials is the same series with ``R = count+1``
    at ``N = n+k+1``, divided by ``p^k q``, so it takes the same rows and
    weights. Row ``N`` holds ``b_0 .. b_((N+1)//(k+1))``, rows step on
    :func:`_stepped_rows` by :func:`_pascal_row`, and the series of all
    indices end in one :class:`_OuterSum`: with ``x = pn^k qn``,
    ``d = den^(k+1)``, ``e = R`` (``R-1`` for a count) and ``J + 1`` terms
    it is ``x^e sum_j w_j b_(R+j) x^j d^(J-j) / (qn d^(e+J))``. Dividing by
    ``qn`` is exact: for ``e >= 1`` ``x^e`` carries it, and for ``e = 0``
    the first bracket is ``qn`` itself.
    """
    k = params.k
    if count is None:
        runs, e, shift = params.r, params.r, 0
    else:
        runs, e, shift = count + 1, count, k + 1
    pn, den = params.p.as_integer_ratio()
    qn = den - pn
    x = pn ** k * qn
    head, div = (x ** e // qn, 1) if e else (1, qn)
    weights = _run_weights(runs, max((hi + shift + 1) // (k + 1) - runs, 0), -1)
    outer = _OuterSum(params, x, den ** (k + 1), weights, head, (k + 1) * e, k + 1, div)
    rows = _stepped_rows(k, lo + shift, hi + shift, lambda n: _muselli_brackets(params, form, n),
                         lambda n, rows: _pascal_row(rows))
    return [outer(row[runs:]) if len(row) > runs else params.finalize(Fraction(0))
            for _, row in rows]


def pmf_muselli(params: RunParams, n: int,
                form: MuselliForm = MuselliForm.ALT) -> Scalar:
    """Type II waiting-time pmf (full scheme), in either published form.

    ORIGINAL uses the bracket ``C(n-mk-1, m-2) + q C(n-mk-1, m-1)``; ALT uses
    the rewriting ``C(n-mk, m-1) - p C(n-mk-1, m-1)``, which avoids negative
    upper binomial arguments. A single index is a one-row table of
    :func:`_muselli_values`, the one Type II evaluator.
    """
    if n < 1:
        raise ValueError("Type II pmf needs n >= 1")
    return _muselli_values(params, n, n, form)[0]


def counts_muselli(params: RunParams, n: int, r_count: int,
                   form: MuselliForm = MuselliForm.ALT) -> Scalar:
    """P(exactly ``r_count`` Type II runs of length >= k in ``n`` trials).

    Term ``m`` carries ``C(m, r_count)`` times the bracket of term ``m+1``
    at trial ``n+k+1`` in :func:`_muselli_brackets`: ``den C(n-mk, m-1) +
    qn C(n-mk, m)`` (ORIGINAL) or ``den C(n-mk+1, m) - pn C(n-mk, m)``
    (ALT). That is the Type II series of ``r_count+1`` runs at trial
    ``n+k+1`` divided by ``p^k q``, so a single index is a one-row table of
    :func:`_muselli_values`, the evaluator of the waiting time too.
    ``r_count = 0`` is allowed.
    """
    if n < 1:
        raise ValueError("run-count distribution needs n >= 1")
    if r_count < 0:
        raise ValueError("r_count must be nonnegative")
    return _muselli_values(params, n, n, form, r_count)[0]


class EngineFamily(Enum):
    """What an engine evaluates."""

    TYPE1 = "type1"    # the nonoverlapping waiting time; gap variants by index shift
    TYPE2 = "type2"    # the failure-separated waiting time
    COUNTS = "counts"  # P(exactly r Type II runs in n trials), not a waiting time


@dataclass(frozen=True)
class EngineSpec:
    """One pmf engine: what it evaluates, in which scheme and mode, and how.

    ``evaluate(params, lo, hi, ell, counter)`` returns the engine's values at
    the native indices ``lo..hi`` of ``scheme``, all at or above
    :meth:`first_index`; ``ell`` is the run overlap, which only an engine
    with ``overlap`` reach reads. Evaluators look the engine functions up when
    called, so a module attribute replaced at run time is the one that runs.
    Each sum engine's evaluator calls its one range evaluator on
    :func:`_stepped_rows` (:func:`_fullsum_values`, :func:`_nested_values`,
    :func:`_hyp_values`, :func:`_pgf_expansion_values`, and for the Type II
    and run-count engines :func:`_muselli_values`), which ends in
    :class:`_OuterSum`. :func:`_single` calls the evaluator on one index for
    each single-index Type I function.
    """

    engine: PmfEngine
    scheme: IndexScheme
    family: EngineFamily
    evaluate: Callable
    exact: bool = True
    overlap: bool = False

    @property
    def type1_only(self) -> bool:
        """Evaluates the nonoverlapping family alone, so its support starts at ``r*k``."""
        return self.family is EngineFamily.TYPE1 and not self.overlap

    def first_index(self, params: RunParams, ell: int) -> int:
        """Smallest native index the evaluator takes; the table reads 0 below it.

        For the nonoverlapping family this is the support start of run
        overlap ``ell`` (a gap variant reaches the evaluator as ``ell = 0``
        after its index shift); the other families start at trial 1.
        """
        if self.family is not EngineFamily.TYPE1:
            return 1
        return support_min(params, VariantSpec(overlap=ell) if ell else TYPE1, self.scheme)

    def check(self, params: RunParams, scheme: IndexScheme, variant: VariantSpec,
              n_min: int, n_max: int) -> None:
        """Raise ``ValueError`` for a request that has no meaning for this engine."""
        if n_max < n_min:
            raise ValueError("n_max must be at least n_min")
        name = self.engine.value
        variant.check_against(params)
        if variant.type2 != (self.family is not EngineFamily.TYPE1):
            raise ValueError(f"{name} evaluates the {self.family.value} family, "
                             f"not the {variant.describe()} variant")
        if variant.is_overlap and not self.overlap:
            raise ValueError(f"{name} has no overlapping-run form; use root-based")
        if params.exact and not self.exact:
            raise ValueError(f"{name} is numeric only; use a float p")
        # the cut scheme counts from r*k, the support start of type1 alone
        if scheme is IndexScheme.CUT and (not self.type1_only or not variant.is_type1):
            raise ValueError(f"{name} with the {variant.describe()} variant is "
                             "defined for the full scheme only")
        if self.family is not EngineFamily.TYPE1 and n_min < 1:
            raise ValueError(f"{name} needs n_min >= 1")


def _root_values(params: RunParams, lo: int, hi: int, ell: int,
                 counter: TermCounter | None) -> list:
    """One root solve and coefficient recovery, then the root sum at each index."""
    from . import roots

    coeffs = roots.recover_coefficients(roots.solve_roots(params), ell=ell)
    return [roots.pmf_root_based(coeffs, n, counter=counter) for n in range(lo, hi + 1)]


def _type2(engine: PmfEngine, form: MuselliForm) -> EngineSpec:
    """The Type II waiting-time engine of one Muselli form."""
    return EngineSpec(engine, IndexScheme.FULL, EngineFamily.TYPE2, evaluate=(
        lambda params, lo, hi, ell, counter: _muselli_values(params, lo, hi, form)))


def _counts(engine: PmfEngine, form: MuselliForm) -> EngineSpec:
    """The run-count engine of one Muselli form; ``params.r`` is the run count."""
    return EngineSpec(engine, IndexScheme.FULL, EngineFamily.COUNTS, evaluate=(
        lambda params, lo, hi, ell, counter: _muselli_values(params, lo, hi, form, params.r)))


ENGINES = {spec.engine: spec for spec in (
    EngineSpec(
        PmfEngine.RECURRENCE_PG, IndexScheme.FULL, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            _recurrence_values(params, hi)[lo - params.r * params.k:]),
    # in cut indexing the recurrence reads P_0 = p^rk and
    # P_n = (q/p)/n * sum_j (n + rj - j) p^j P_(n-j), term for term the one
    # recurrence-pg runs, so its values are relabelled
    EngineSpec(
        PmfEngine.RECURRENCE_CH, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            _recurrence_values(params, hi + params.r * params.k)[lo:]),
    EngineSpec(
        PmfEngine.FULLSUM_CH, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter: _fullsum_values(params, lo, hi)),
    EngineSpec(
        PmfEngine.NESTED_SUM, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter: _nested_values(params, lo, hi, counter)),
    EngineSpec(
        PmfEngine.HYP_SUM, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter: _hyp_values(params, lo, hi)),
    EngineSpec(
        PmfEngine.PGF_EXPANSION, IndexScheme.FULL, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter: _pgf_expansion_values(params, lo, hi)),
    EngineSpec(
        PmfEngine.ROOT_BASED, IndexScheme.FULL, EngineFamily.TYPE1, _root_values,
        exact=False, overlap=True),
    _type2(PmfEngine.MUSELLI_ORIGINAL, MuselliForm.ORIGINAL),
    _type2(PmfEngine.MUSELLI_ALT, MuselliForm.ALT),
    _counts(PmfEngine.MUSELLI_COUNTS_ORIGINAL, MuselliForm.ORIGINAL),
    _counts(PmfEngine.MUSELLI_COUNTS_ALT, MuselliForm.ALT),
)}


def _single(engine: PmfEngine, params: RunParams, n: int, scheme: IndexScheme | None = None,
            counter: TermCounter | None = None) -> Scalar:
    """One Type I engine's value at index ``n`` of ``scheme`` (by default its native one).

    The index maps into the engine's native scheme, an index below its first
    reads an exact zero, and any other is its record's evaluator on the
    one-index range; unlike :func:`pmf_table`, nothing checks the request.
    """
    spec = ENGINES[engine]
    m = n if scheme is None else convert_index(n, scheme, spec.scheme, params)
    if m < spec.first_index(params, 0):
        return params.finalize(Fraction(0))
    return spec.evaluate(params, m, m, 0, counter)[0]


def pmf_table(params: RunParams, engine: PmfEngine, n_min: int, n_max: int,
              scheme: IndexScheme = IndexScheme.FULL,
              variant: VariantSpec = TYPE1,
              counter: TermCounter | None = None) -> PmfTable:
    """Evaluate any waiting-time engine over ``[n_min, n_max]``.

    Rejects engine/scheme/variant combinations that have no meaning (see
    :meth:`EngineSpec.check`), maps each index into the engine's native
    scheme after the gap shift of ``variant``, pads exact zeros below the
    engine's first index (the support start of the family it evaluates, for
    the root-based engine that of the requested overlap), and evaluates the
    rest in one call.
    """
    spec = ENGINES[engine]
    if spec.family is EngineFamily.COUNTS:
        raise ValueError(f"{engine.value} is a run-count engine, not a waiting-time pmf")
    spec.check(params, scheme, variant, n_min, n_max)
    shift = (params.r - 1) * variant.gap
    lo, hi = (convert_index(n - shift, scheme, spec.scheme, params) for n in (n_min, n_max))
    ell = max(variant.overlap, 0)
    first = max(lo, spec.first_index(params, ell))
    pad = [Fraction(0) if params.exact else 0.0] * (min(first, hi + 1) - lo)
    vals = spec.evaluate(params, first, hi, ell, counter) if first <= hi else []
    return PmfTable(params, scheme, variant, n_min, tuple(pad + vals))
