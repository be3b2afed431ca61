"""Interchangeable engines for the waiting-time pmf.

Seven engines cover the nonoverlapping (Type I) family: the order-k linear
recurrence in full indexing and the same table relabelled in cut indexing, an
O(n^2) double combinatorial sum, an O(n) nested sum, its hypergeometric
condensation, a generating-function expansion, and the root-based engine that
lives in :mod:`runsdist.roots`. Two further engines cover the
at-least-one-failure-between-runs (Type II) family, each in two algebraic
forms, plus the matching fixed-length run-count distribution. Each engine is
one :class:`EngineSpec` record in :data:`ENGINES`, and :func:`pmf_table` and
the CLI read only that record.

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
``math.comb`` pair (see :func:`pmf_fullsum_ch`). The Type II and
hypergeometric tables step the same binomials across ``n`` by Pascal's rule
(see :func:`_run_binomial_rows`), the nested-sum tables step their inner
brackets on the same ring, and the double-sum tables step theirs by a rule
of their own (see :func:`_fullsum_brackets`), so such a table adds rows
instead of computing binomials per term.

The nested sum, its condensation and the Type II forms end in one
alternating outer sum in powers of ``y = p^k q <= 1/4``, and the double sum
ends in one in powers of ``q/p``. One finisher, :class:`_OuterSum`,
evaluates them all, for a single index and a table alike. It sums on one
:class:`~runsdist.special.HornerLadder`, whose powers a table's indices
share, and builds the value by :class:`~runsdist.core.PowerRatio`, which in
exact mode strips only the primes of ``d`` instead of taking a gcd. For a
float ``p``, ``d`` is a power of two, and the sums in ``y`` are first
rounded by :func:`~runsdist.special.fixed_point_horner`, a fixed-point sum
a few hundred bits past the cancellation that proves which double the exact
value rounds to; only a value too close to call pays for the exact sum,
whose integers grow by the bits of ``d^(k+1)`` per term. The
generating-function expansion sums its inner coefficients on one ladder too
and combines a window of ``r+1`` of them per index.

The recurrence has nonnegative terms, so it runs on doubles in float mode. In
exact mode it steps the integer numerators of its values over powers of the
denominator of ``p`` and builds one fraction per entry by
:class:`~runsdist.core.PowerRatio`. Both recurrence
engines read one list of values, so each of their tables is built and
checked once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from operator import add, mul, sub
from typing import Callable

from .core import (TYPE1, IndexScheme, PmfTable, PowerRatio, RunParams, Scalar, TermCounter,
                   VariantSpec, convert_index, support_min)
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


def _recurrence_values(params: RunParams, n_max: int) -> list:
    """Full-scheme pmf values at ``r*k .. n_max`` by the order-k recurrence.

    ``P_rk = p^rk`` and for ``n > rk``
    ``P_n = (q/p)/(n-rk) * sum_j (n - rk + j(r-1)) p^j P_{n-j}``, ``j <= k``.
    All terms are nonnegative, so double precision is stable and float mode
    runs the recurrence as written. Exact mode runs it on the integer
    numerators ``N_n = P_n d^n`` of ``p = a/d``:
    ``N_n = b sum_j (n - rk + j(r-1)) a^(j-1) N_{n-j} / (n-rk)`` with
    ``b = d - a``, where the division is exact, and builds one fraction per
    entry by :class:`~runsdist.core.PowerRatio`, which strips only the
    primes of ``d``.
    """
    k, r, p = params.k, params.r, params.p
    rk = r * k
    if n_max < rk:
        raise ValueError(f"n_max must be at least r*k = {rk}")
    if params.exact:
        a, d = p.numerator, p.denominator
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
    values = {rk: p ** rk}
    for n in range(rk + 1, n_max + 1):
        acc = 0
        for j in range(1, k + 1):
            prev = values.get(n - j)
            if prev:
                acc += (n - rk + j * (r - 1)) * ppow[j] * prev
        values[n] = (q / p) * acc / (n - rk)
    return [values[n] for n in range(rk, n_max + 1)]


def pmf_recurrence_pg(params: RunParams, n_max: int) -> PmfTable:
    """Full-scheme pmf by the order-k recurrence, table over ``[r*k, n_max]``.

    Float mode runs the recurrence on doubles, exact mode on the integer
    numerators of the values over ``d^n`` for ``p = a/d`` (see
    :func:`_recurrence_values`).
    """
    return PmfTable(params, IndexScheme.FULL, TYPE1, params.r * params.k,
                    tuple(_recurrence_values(params, n_max)))


_COMB_TOP = 100  # below this top one math.comb is quicker than a ratio step


def _column_starts(m: int, k: int) -> list:
    """``C(top, max(j-1, 0))`` with ``top = m-jk-1`` for the columns ``j = 0 .. m//(k+1)``.

    Past ``j = m//(k+1)`` the top falls below ``j-1`` (``m >= 1``), so that
    binomial and every later one vanish. While the top is big each binomial
    follows from the one before by the exact small ratio
    ``C(T-k, b+1) = C(T, b) (T-b)_(k+1) / ((b+1) (T)_k)``, falling factorials
    of ``k+1`` and ``k`` factors, so the columns of a deep index cost no big
    binomial; tops below ``_COMB_TOP`` take one small ``math.comb`` each.
    """
    last = m // (k + 1)
    big = min(last, (m - 1 - _COMB_TOP) // k)  # the last column whose top is big
    if big < 2:  # every column's top is small, or its bottom 0
        return [1, *map(math.comb, range(m - k - 1, m - (last + 1) * k - 1, -k), range(last))]
    starts = [1, 1]  # C(m-1, 0) and C(m-k-1, 0)
    for j in range(2, big + 1):
        top = m - j * k - 1
        # C(top, j-1) from C(top+k, j-2)
        starts.append(starts[-1] * math.perm(top + k - j + 2, k + 1)
                      // ((j - 1) * math.perm(top + k, k)))
    j = big + 1  # the small tops of columns j .. last, in one pass
    starts += map(math.comb, range(m - j * k - 1, m - (last + 1) * k - 1, -k), range(j - 1, last))
    return starts


def _run_weights(r: int, n: int, sign: int = 1) -> list:
    """``sign^i C(r+i-1, r-1)`` for ``i = 0 .. n``, stepped along ``i``."""
    weights = [1]
    for i in range(1, n + 1):
        weights.append(sign * weights[-1] * (r + i - 1) // i)
    return weights


class _OuterSum:
    """``head sum_j weights[j] c_j x^j d^(J-j) / (div den^(base + step J))``, in ``params``' mode.

    The nested, hypergeometric, double and Type II sums end here: called
    with the coefficients ``c_0 .. c_J`` of one index, it returns that
    index's value. ``den`` is the denominator of ``p``, and ``div`` divides
    the integer numerator exactly. The sum runs on one
    :class:`~runsdist.special.HornerLadder`, so the indices of a table share
    its powers, and :class:`~runsdist.core.PowerRatio` builds the value. A
    float ``p`` has ``den = 2^z``; where ``d = den^step`` and ``x/d < 1/2``,
    as in the sums over powers of ``p^k q <= 1/4``,
    :func:`~runsdist.special.fixed_point_horner` first rounds the value from
    a fixed-point sum a few hundred bits past its cancellation, and only a
    value it cannot call takes the exact sum. Either way the result is the
    exact value, correctly rounded in float mode.
    """

    def __init__(self, params: RunParams, x: int, d: int, weights: list, head: int,
                 base: int, step: int, div: int = 1) -> None:
        self.ratio = PowerRatio(params)
        z = self.ratio.twos  # den = 2^z for a float p
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


def pmf_fullsum_ch(params: RunParams, n: int) -> Scalar:
    """Cut-scheme pmf by the O(n^2) double combinatorial sum.

    The inner bracket ``B_n[i] = sum_j (-1)^j C(i, j) C(n-jk-1, i-1)`` is a
    pure integer. By inclusion and exclusion over the parts longer than
    ``k`` it counts the compositions of ``n`` into ``i`` parts of size 1 to
    ``k``, so it is 0 below ``i = ceil(n/k)``. Each column ``j`` therefore
    starts at ``i = max(j, ceil(n/k))`` with one ``math.comb`` pair and steps
    along ``i`` by one small ratio, so the O(n^2/k) terms cost no big
    binomial beyond the column starts. The outer term ``i`` carries
    ``C(r+i-1, r-1) q^i p^(n+rk-i)``, so :class:`_OuterSum` finishes it
    with ``x``, ``d`` the numerators ``qn``, ``pn`` of ``q`` and ``p`` over
    the common denominator ``den^(n+rk)``.
    """
    if n < 0:
        return params.finalize(0)
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    head = pn ** (r * k)
    if n == 0:
        return PowerRatio(params)(head, r * k)
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
    return _OuterSum(params, den - pn, pn, _run_weights(r, n), head, r * k, 1)(bracket)


def _fullsum_brackets(k: int, hi: int):
    """Yield the inner brackets of :func:`pmf_fullsum_ch` at ``n = 1 .. hi``.

    Pascal's rule on ``C(n-jk-1, i-1)`` and then on ``C(i, j)`` gives
    ``B_n[i] = B_(n-1)[i] + B_(n-1)[i-1] - B_(n-1-k)[i-1]`` for ``i >= 1``,
    with ``B_n = 0`` for ``n <= 0``. The first rule fails only where the top
    ``n-jk-1`` and the bottom ``i-1`` are both 0, which adds
    ``[n = 1] - [n = k+1]`` to ``B_n[1]``. So a row costs two additions per
    entry, where a single index takes O(n/k) ratio steps per entry.
    """
    rows = deque([[0]] * (k + 1), maxlen=k + 1)  # B_(n-1-k) .. B_(n-1)
    for n in range(1, hi + 1):
        prev, back = rows[-1], rows[0]
        # B_n[i] for i = 1 .. n from B_(n-1)[i], B_(n-1)[i-1] and B_(n-1-k)[i-1]
        row = [0, *map(sub, map(add, prev[1:] + [0], prev), back + [0] * (n - len(back)))]
        row[1] += (n == 1) - (n == k + 1)
        rows.append(row)
        yield row


def _fullsum_values(params: RunParams, lo: int, hi: int) -> list:
    """:func:`pmf_fullsum_ch` at ``lo .. hi`` (``lo >= 0``), stepped brackets on one outer sum."""
    values = [pmf_fullsum_ch(params, 0)] if lo == 0 else []
    rk = params.r * params.k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    outer = _OuterSum(params, den - pn, pn, _run_weights(params.r, hi), pn ** rk, rk, 1)
    for n, bracket in enumerate(_fullsum_brackets(params.k, hi), start=1):
        if n >= lo:
            values.append(outer(bracket))
    return values


def _nested_sum(params: RunParams, j_max: int) -> _OuterSum:
    """The outer sum of the nested sum and its condensation, over columns ``j <= j_max``.

    Column ``j`` carries ``(-1)^j C(r+j-1, r-1) (p^k q)^j`` times its inner
    bracket, which the callers scale by ``den^r``, and the sum carries
    ``p^rk``; with ``x = pn^k qn`` and ``d = den^(k+1)`` the value is
    ``pn^rk sum_j w_j c_j x^j d^(J-j) / den^(rk + r + (k+1) J)``.
    """
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
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
    """Pmf by the O(n) nested sum; works in either indexing scheme.

    At most ``(r+1) * (1 + floor((m-1)/k))`` bracket terms are touched, where
    ``m`` is the cut-scheme index; terms whose binomial vanishes are skipped
    and only actually-summed terms are counted into ``counter``.
    """
    k, r = params.k, params.r
    rk = r * k
    m = n - rk if scheme is IndexScheme.FULL else n
    if m < 0:
        return params.finalize(0)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    if m == 0:
        return PowerRatio(params)(pn ** rk, rk)
    # C(r, i) q^i scaled by den^r
    cq = [math.comb(r, i) * qn ** i * den ** (r - i) for i in range(r + 1)]
    inner = [_nested_bracket(cq, m - j * k - 1, j, t) for j, t in enumerate(_column_starts(m, k))]
    if counter is not None:
        counter.add(_nested_terms(m, k, r))
    return _nested_sum(params, m // (k + 1))(inner)


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


def _hyp_columns(m: int, k: int, r: int, starts: list, qi: list) -> list:
    """The inner brackets of :func:`pmf_hyp` at cut index ``m``, from the column starts.

    ``qi[i]`` is ``q^i`` scaled by ``den^r``; the ``j = 0`` column carries
    ``q^(i+1)``.
    """
    return [_hyp2f1_scaled(r, 1 - m, 1 - r, 2, qi[1:])] + [
        _hyp2f1_scaled(starts[j], j * (k + 1) - m, -r, j, qi) for j in range(1, m // (k + 1) + 1)]


def pmf_hyp(params: RunParams, n: int, scheme: IndexScheme = IndexScheme.CUT) -> Scalar:
    """Pmf by the hypergeometric condensation of the nested sum.

    The inner bracket collapses to ``C(m-jk-1, j-1) 2F1(jk+j-m, -r; j; q)``;
    the ``j = 0`` term uses the separate form ``q r 2F1(1-m, 1-r; 2; q)``
    because the general one would put 0 in the 2F1 denominator parameter.
    The series run on integers (see :func:`_hyp2f1_scaled`).
    """
    k, r = params.k, params.r
    rk = r * k
    m = n - rk if scheme is IndexScheme.FULL else n
    if m < 0:
        return params.finalize(0)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    if m == 0:
        return PowerRatio(params)(pn ** rk, rk)
    qi = [(den - pn) ** i * den ** (r - i) for i in range(r + 1)]  # q^i scaled by den^r
    return _nested_sum(params, m // (k + 1))(_hyp_columns(m, k, r, _column_starts(m, k), qi))


def _nested_values(params: RunParams, lo: int, hi: int,
                   counter: TermCounter | None = None) -> list:
    """:func:`pmf_nested_sum` at the cut indices ``lo .. hi`` from Pascal-stepped brackets.

    The bracket ``D_m[j] = sum_i C(r,i) q^i C(m-jk-1, j+i-1)``, scaled by
    ``den^r``, is made of the binomials ``C(top, j-1+i)``, so its rows step
    across ``m`` by ``D_(m+1)[j] = D_m[j] + D_(m-k)[j-1]`` (see
    :func:`_run_binomial_rows`), one addition per entry. A table narrower
    than the ``k+1`` rows that seed the ring is evaluated index by index.
    ``counter`` adds the terms :func:`pmf_nested_sum` counts at each index.
    """
    k, r = params.k, params.r
    if hi - lo < k:
        return [pmf_nested_sum(params, n, IndexScheme.CUT, counter) for n in range(lo, hi + 1)]
    values = [pmf_nested_sum(params, 0)] if lo == 0 else []
    lo = max(lo, 1)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    cq = [math.comb(r, i) * (den - pn) ** i * den ** (r - i) for i in range(r + 1)]
    outer = _nested_sum(params, hi // (k + 1))
    rows = _run_binomial_rows(k, lo, hi, hi // (k + 1) + 1, partial(_nested_bracket, cq))
    for m, (_, row, _) in zip(range(lo, hi + 1), rows):
        if counter is not None:
            counter.add(_nested_terms(m, k, r))
        values.append(outer(row[:m // (k + 1) + 1]))
    return values


def _hyp_values(params: RunParams, lo: int, hi: int) -> list:
    """:func:`pmf_hyp` at the cut indices ``lo .. hi``, its constants computed once.

    The column starts ``C(m-jk-1, j-1)`` are the rows of
    :func:`_run_binomial_rows`; each column sums its own 2F1 series. A table
    narrower than the ``k+1`` rows that seed them is evaluated index by
    index.
    """
    k, r = params.k, params.r
    if hi - lo < k:
        return [pmf_hyp(params, n) for n in range(lo, hi + 1)]
    values = [pmf_hyp(params, 0)] if lo == 0 else []
    lo = max(lo, 1)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qi = [(den - pn) ** i * den ** (r - i) for i in range(r + 1)]  # q^i scaled by den^r
    outer = _nested_sum(params, hi // (k + 1))
    rows = _run_binomial_rows(k, lo, hi, hi // (k + 1) + 1)
    for m, (_, starts, _) in zip(range(lo, hi + 1), rows):
        values.append(outer(_hyp_columns(m, k, r, starts, qi)))
    return values


def _pgf_inner_numerators(params: RunParams, lo: int, hi: int) -> list:
    """Integer numerators of the inner coefficients ``T_lo .. T_hi``.

    ``T_j = sum_i (-1)^i q^i p^(ik) C(r+i-1, r-1) C(r+j-ik-1, r+i-1)`` with
    ``i <= floor(j/(k+1))``, returned as ``T_j * den^((k+1) floor(j/(k+1)))``
    from one integer-kernel call each. They do not depend on the target
    index, so range evaluations compute them once.
    """
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    comb = math.comb
    inner = HornerLadder(pn ** k * (den - pn), den ** (k + 1), _run_weights(r, hi // (k + 1), -1))
    return [inner([comb(r + j - i * k - 1, r + i - 1) for i in range(j // (k + 1) + 1)])
            for j in range(lo, hi + 1)]


def _pgf_expansion_values(params: RunParams, lo: int, hi: int) -> list:
    """Full-scheme pmf at ``lo..hi`` (all ``>= r*k``), each inner numerator computed once."""
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    first = max(lo - r * k - r, 0)
    nums = _pgf_inner_numerators(params, first, hi - r * k)
    # (-1)^i C(r, i) p^i scaled by den^r, and the powers of den^(k+1) that bring
    # T_(v-i) to the denominator of T_v (at most ceil(r/(k+1)) apart)
    cp = [(-1) ** i * math.comb(r, i) * pn ** i * den ** (r - i) for i in range(r + 1)]
    lift = [den ** ((k + 1) * e) for e in range(-(-r // (k + 1)) + 1)]
    head = pn ** (r * k)
    ratio = PowerRatio(params)
    vals = []
    for v in range(lo - r * k, hi - r * k + 1):
        e_top = v // (k + 1)
        total = sum(cp[i] * lift[e_top - (v - i) // (k + 1)] * nums[v - i - first]
                    for i in range(min(r, v) + 1))
        vals.append(ratio(head * total, r * k + r + (k + 1) * e_top))
    return vals


def pmf_pgf_expansion(params: RunParams, n: int) -> Scalar:
    """Full-scheme pmf as the coefficient of ``s^n`` in the r-th pgf power.

    Double alternating sum over the binomial expansion of the generating
    function; the outer index only contributes on a window of width ``r+1``,
    so only the inner coefficients ``T_(v-r) .. T_v`` are computed.
    """
    if n < params.r * params.k:
        return params.finalize(0)
    return _pgf_expansion_values(params, n, n)[0]


def _type2_series(params: RunParams, form: MuselliForm, lo: int, weights: list) -> Callable:
    """The Muselli series of one family, its per-table constants computed once.

    Returns ``value(pairs)``, where ``pairs`` yields the two bracket binomials
    ``(first, second)`` of each ``m = lo, lo+1, ...``. The bracket is
    ``den first + qn second`` (ORIGINAL) or ``den first - pn second`` (ALT),
    i.e. scaled by ``den``, and term ``m`` is ``(-1)^(m-lo) weights[m-lo]``
    times it; ``value`` sums ``term_m p^(mk) q^(m-1) / den``. With
    ``x = pn^k qn``, ``d = den^(k+1)`` and ``J + 1`` terms that is the
    :class:`_OuterSum` ``x^lo sum_j w_j b_j x^j d^(J-j) / (qn d^(lo+J))``.
    Dividing by ``qn`` is exact: for ``lo >= 1`` ``x^lo`` carries it, and
    for ``lo = 0`` the ``m = 0`` bracket is ``qn`` itself.
    """
    k = params.k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    x = pn ** k * qn
    head, div = (x ** lo // qn, 1) if lo else (1, qn)
    signed = [-w if i & 1 else w for i, w in enumerate(weights)]
    outer = _OuterSum(params, x, den ** (k + 1), signed, head, (k + 1) * lo, k + 1, div)
    second = qn if form is MuselliForm.ORIGINAL else -pn

    def value(pairs) -> Scalar:
        brackets = [den * a + second * b for a, b in pairs]
        return outer(brackets) if brackets else params.finalize(Fraction(0))

    return value


def _type2_weights(params: RunParams, n_max: int) -> list:
    """``C(m-1, r-1)`` for the Type II terms ``m = r .. (n_max+1)//(k+1)``."""
    r = params.r
    return [math.comb(m - 1, r - 1) for m in range(r, (n_max + 1) // (params.k + 1) + 1)]


def pmf_muselli(params: RunParams, n: int,
                form: MuselliForm = MuselliForm.ALT) -> Scalar:
    """Type II waiting-time pmf (full scheme), in either published form.

    ORIGINAL uses the bracket ``C(n-mk-1, m-2) + q C(n-mk-1, m-1)``; ALT uses
    the rewriting ``C(n-mk, m-1) - p C(n-mk-1, m-1)``, which avoids negative
    upper binomial arguments. The first support point ``n = k`` of the
    ``r = 1`` family is returned as the closed form ``p^k``: the ORIGINAL
    bracket degenerates there under every binomial convention, and the
    enumeration oracle fixes the value.
    """
    if n < 1:
        raise ValueError("Type II pmf needs n >= 1")
    k, r = params.k, params.r
    if r == 1 and n == k:
        return params.finalize(params.exact_p() ** k)
    ms = range(r, (n + 1) // (k + 1) + 1)
    if form is MuselliForm.ORIGINAL:
        pairs = [(binom(n - m * k - 1, m - 2), binom(n - m * k - 1, m - 1)) for m in ms]
    else:
        pairs = [(binom(n - m * k, m - 1), binom(n - m * k - 1, m - 1)) for m in ms]
    return _type2_series(params, form, r, _type2_weights(params, n))(pairs)


def _run_start(top: int, m: int, start: int) -> int:
    """The run binomial ``C(top, m-1)`` from its column start."""
    return start if m else 0


def _run_binomial_rows(k: int, lo: int, hi: int, width: int, entry: Callable = _run_start):
    """Yield ``(U_(n-k), U_n, U_(n+1))`` for ``n = lo .. hi`` (``lo >= 1``).

    ``U_n[m] = entry(top, m, C(top, max(m-1, 0)))`` with ``top = n-mk-1``,
    for ``m = 0 .. width-1``: the entry of a column from its top and its
    start binomial. The default is the run binomial ``C(n-mk-1, m-1)``. Any
    entry ``sum_i c_i C(top, m-1+i)`` obeys Pascal's rule
    ``entry(top+1, m) = entry(top, m) + entry(top, m-1)`` for ``top >= 0``
    and vanishes for ``top < m-1``. So the ``k+1`` rows
    ``U_(lo-k) .. U_lo`` are computed directly from the column starts of
    :func:`_column_starts`, and so is the column ``m = 0``; every other
    entry follows by ``U_(n+1)[m] = U_n[m] + U_(n-k)[m-1]``, zero past
    ``m = (n+1)//(k+1)``. The top of ``U_n[m]`` is negative there only at
    ``n = k``, ``m = 1``, whose entry is ``entry(0, 1, 1)``.
    """
    def seed(n: int) -> list:
        row = ([entry(n - m * k - 1, m, t) for m, t in enumerate(_column_starts(n, k)[:width])]
               if n >= 1 else [])
        return row + [0] * (width - len(row))

    rows = deque(map(seed, range(lo - k, lo + 1)), maxlen=k + 1)
    for n in range(lo, hi + 1):
        below, row = rows[0], rows[-1]
        end = min(width, (n + 1) // (k + 1) + 1)
        above = [entry(n, 0, 1), *map(add, row[1:end], below[:end - 1]), *[0] * (width - end)]
        if n == k and end > 1:
            above[1] = entry(0, 1, 1)
        rows.append(above)
        yield below, row, above


def _muselli_values(params: RunParams, lo: int, hi: int, form: MuselliForm) -> list:
    """:func:`pmf_muselli` at ``lo .. hi`` (``lo >= 1``) from Pascal-stepped binomial rows.

    ORIGINAL reads ``C(t-1, m-2) = U_(n-k)[m-1]`` and ``C(t-1, m-1) = U_n[m]``,
    ALT reads ``C(t, m-1) = U_(n+1)[m]`` and ``U_n[m]``, with ``t = n-mk``;
    the series of the indices share one ladder.
    """
    k, r = params.k, params.r
    weights = _type2_weights(params, hi)
    series = _type2_series(params, form, r, weights)
    values = []
    rows = _run_binomial_rows(k, lo, hi, (hi + 1) // (k + 1) + 1)  # every m a term reads
    for n, (below, row, above) in zip(range(lo, hi + 1), rows):
        if r == 1 and n == k:  # the closed form, as at a single index
            values.append(pmf_muselli(params, n, form))
            continue
        end = (n + 1) // (k + 1) + 1  # past the last term m
        firsts = below[r - 1:end - 1] if form is MuselliForm.ORIGINAL else above[r:end]
        values.append(series(zip(firsts, row[r:end])))
    return values


def counts_muselli(params: RunParams, n: int, r_count: int,
                   form: MuselliForm = MuselliForm.ALT) -> Scalar:
    """P(exactly ``r_count`` Type II runs of length >= k in ``n`` trials).

    ``r_count = 0`` is allowed (the ``m = 0`` term carries the ``q^-1``
    factor, which cancels against the bracket).
    """
    if n < 1:
        raise ValueError("run-count distribution needs n >= 1")
    if r_count < 0:
        raise ValueError("r_count must be nonnegative")
    k = params.k
    ms = range(r_count, (n + 1) // (k + 1) + 1)
    if form is MuselliForm.ORIGINAL:
        pairs = [(binom(n - m * k, m - 1), binom(n - m * k, m)) for m in ms]
    else:
        pairs = [(binom(n - m * k + 1, m), binom(n - m * k, m)) for m in ms]
    weights = [binom(m, r_count) for m in ms]
    return _type2_series(params, form, r_count, weights)(pairs)


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
    The Type II, double-sum, nested-sum and hypergeometric evaluators call
    :func:`_muselli_values`, :func:`_fullsum_values`, :func:`_nested_values`
    and :func:`_hyp_values`, which step rows across the range, not the
    single-index functions per index; :func:`_pgf_expansion_values` computes
    each inner coefficient once.
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
        return support_min(params, VariantSpec(overlap=ell), self.scheme)

    def check(self, params: RunParams, scheme: IndexScheme, variant: VariantSpec,
              n_min: int) -> None:
        """Raise ``ValueError`` for a request that has no meaning for this engine."""
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
        lambda params, lo, hi, ell, counter:
        [counts_muselli(params, n, params.r, form) for n in range(lo, hi + 1)]))


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
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    spec = ENGINES[engine]
    if spec.family is EngineFamily.COUNTS:
        raise ValueError(f"{engine.value} is a run-count engine, not a waiting-time pmf")
    spec.check(params, scheme, variant, n_min)
    shift = (params.r - 1) * variant.gap
    lo, hi = (convert_index(n - shift, scheme, spec.scheme, params) for n in (n_min, n_max))
    ell = max(variant.overlap, 0)
    first = max(lo, spec.first_index(params, ell))
    pad = [Fraction(0) if params.exact else 0.0] * (min(first, hi + 1) - lo)
    vals = spec.evaluate(params, first, hi, ell, counter) if first <= hi else []
    return PmfTable(params, scheme, variant, n_min, tuple(pad + vals))
