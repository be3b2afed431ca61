"""Interchangeable engines for the waiting-time pmf.

Seven engines cover the nonoverlapping (Type I) family: two linear
recurrences (one per indexing scheme), an O(n^2) double combinatorial sum, an
O(n) nested sum, its hypergeometric condensation, a generating-function
expansion, and the root-based engine that lives in :mod:`runsdist.roots`. Two
further engines cover the at-least-one-failure-between-runs (Type II) family,
each in two algebraic forms, plus the matching fixed-length run-count
distribution.

The alternating sums here cancel catastrophically in double precision (terms
can exceed 1e10 while the result is below 1e-2), so every sum-type engine
evaluates its terms in exact rational arithmetic internally, converting a
float success probability to its exact binary value, and rounds once on
return. No rational is built per term: each engine writes its terms as small
integer brackets over powers of the denominator of ``p``, sums them with the
one integer kernel :func:`~runsdist.special.homogeneous_horner`, and divides
once at the end. Binomial coefficients follow the zero-on-negative-top
convention throughout, which is the choice the enumeration oracle validates.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .core import TYPE1, IndexScheme, PmfTable, RunParams, Scalar, VariantSpec
from .special import binom, homogeneous_horner


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


TYPE1_ENGINES = (
    PmfEngine.RECURRENCE_PG,
    PmfEngine.RECURRENCE_CH,
    PmfEngine.FULLSUM_CH,
    PmfEngine.NESTED_SUM,
    PmfEngine.HYP_SUM,
    PmfEngine.PGF_EXPANSION,
    PmfEngine.ROOT_BASED,
)

TYPE2_PMF_ENGINES = (PmfEngine.MUSELLI_ORIGINAL, PmfEngine.MUSELLI_ALT)
COUNT_ENGINES = (PmfEngine.MUSELLI_COUNTS_ORIGINAL, PmfEngine.MUSELLI_COUNTS_ALT)


class MuselliForm(Enum):
    ORIGINAL = "original"
    ALT = "alt"


class TermCounter:
    """Counts evaluated sum terms, for the complexity-bound assertions."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


def _finalize(value, params: RunParams) -> Scalar:
    return value if params.exact else float(value)


def pmf_recurrence_pg(params: RunParams, n_max: int) -> PmfTable:
    """Full-scheme pmf by the order-k recurrence, table over ``[r*k, n_max]``.

    ``P_rk = p^rk`` and for ``n > rk``
    ``P_n = (q/p)/(n-rk) * sum_j (n - rk + j(r-1)) p^j P_{n-j}``, ``j <= k``.
    Runs in the native numeric mode; all terms are nonnegative so double
    precision is stable here.
    """
    k, r, p, q = params.k, params.r, params.p, params.q
    rk = r * k
    if n_max < rk:
        raise ValueError(f"n_max must be at least r*k = {rk}")
    ppow = [p ** j for j in range(k + 1)]
    values = {rk: p ** rk}
    for n in range(rk + 1, n_max + 1):
        acc = 0
        for j in range(1, k + 1):
            prev = values.get(n - j)
            if prev:
                acc += (n - rk + j * (r - 1)) * ppow[j] * prev
        values[n] = (q / p) * acc / (n - rk)
    return PmfTable(params, IndexScheme.FULL, TYPE1, rk,
                    tuple(values[n] for n in range(rk, n_max + 1)))


def pmf_recurrence_ch(params: RunParams, n_max: int) -> PmfTable:
    """Cut-scheme pmf by the equivalent recurrence, table over ``[0, n_max]``.

    ``P_0 = p^rk`` and ``P_n = (q/p)/n * sum_j (n + rj - j) p^j P_{n-j}``
    with ``j <= min(n, k)``.
    """
    k, r, p, q = params.k, params.r, params.p, params.q
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ppow = [p ** j for j in range(k + 1)]
    values = [p ** (r * k)]
    for n in range(1, n_max + 1):
        acc = 0
        for j in range(1, min(n, k) + 1):
            prev = values[n - j]
            if prev:
                acc += (n + r * j - j) * ppow[j] * prev
        values.append((q / p) * acc / n)
    return PmfTable(params, IndexScheme.CUT, TYPE1, 0, tuple(values))


def pmf_fullsum_ch(params: RunParams, n: int) -> Scalar:
    """Cut-scheme pmf by the O(n^2) double combinatorial sum.

    The inner alternating bracket is a pure integer, and the outer term ``i``
    carries ``q^i p^(n+rk-i)``, so the outer sum is one integer-kernel call
    with ``x = qn``, ``d = pn`` (numerators of ``q`` and ``p``) over the
    common denominator ``den^(n+rk)``.
    """
    if n < 0:
        return _finalize(0, params)
    k, r = params.k, params.r
    rk = r * k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    if n == 0:
        return _finalize(Fraction(pn ** rk, den ** rk), params)
    comb = math.comb
    outer = [0]  # the i = 0 bracket is C(n-1, -1) = 0
    for i in range(1, n + 1):
        bracket = 0
        bb = i - 1
        for j in range(i + 1):
            top = n - j * k - 1
            if top < bb:  # tops fall with j, so every later term vanishes
                break
            c = comb(i, j) * comb(top, bb)
            bracket += -c if j & 1 else c
        outer.append(comb(r + i - 1, r - 1) * bracket)
    total = pn ** rk * homogeneous_horner(outer, qn, pn)
    return _finalize(Fraction(total, den ** (n + rk)), params)


def _nested_outer(params: RunParams, outer: list) -> Fraction:
    """``p^rk sum_j (-1)^j outer[j] (p^k q)^j / den^r`` as one exact fraction.

    ``outer[j]`` is the integer ``C(r+j-1, r-1)`` times the inner bracket
    scaled by ``den^r``; the nested sum and its hypergeometric condensation
    both end here.
    """
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    signed = [-c if j & 1 else c for j, c in enumerate(outer)]
    total = pn ** (r * k) * homogeneous_horner(signed, pn ** k * (den - pn), den ** (k + 1))
    return Fraction(total, den ** (r * k + (len(outer) - 1) * (k + 1) + r))


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
        return _finalize(0, params)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    if m == 0:
        return _finalize(Fraction(pn ** rk, den ** rk), params)
    comb = math.comb
    qi = [qn ** i * den ** (r - i) for i in range(r + 1)]  # q^i scaled by den^r
    outer = []
    for j in range((m - 1) // k + 1):
        top = m - j * k - 1
        if j - 1 > top:  # even the smallest bottom index exceeds the top
            break
        inner = 0
        for i in range(r + 1):
            bottom = j + i - 1
            if bottom > top:
                break
            if bottom >= 0:
                inner += comb(r, i) * comb(top, bottom) * qi[i]
                if counter is not None:
                    counter.add()
        outer.append(comb(r + j - 1, r - 1) * inner)
    return _finalize(_nested_outer(params, outer), params)


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
        t = t * (a + i) * (b + i) // ((c + i) * (i + 1))
    return total


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
        return _finalize(0, params)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    if m == 0:
        return _finalize(Fraction(pn ** rk, den ** rk), params)
    qn = den - pn
    qi = [qn ** i * den ** (r - i) for i in range(r + 1)]  # q^i scaled by den^r
    outer = [_hyp2f1_scaled(r, 1 - m, 1 - r, 2, qi[1:])]  # j = 0 carries q^(i+1)
    for j in range(1, (m - 1) // k + 1):
        top = m - j * k - 1
        if top < j - 1:  # C(top, j-1) vanishes here and for every later j
            break
        outer.append(math.comb(r + j - 1, r - 1)
                     * _hyp2f1_scaled(math.comb(top, j - 1), j - 1 - top, -r, j, qi))
    return _finalize(_nested_outer(params, outer), params)


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
    x, d = pn ** k * (den - pn), den ** (k + 1)
    comb = math.comb
    nums = []
    for j in range(lo, hi + 1):
        coeffs = []
        for i in range(j // (k + 1) + 1):
            c = comb(r + i - 1, r - 1) * comb(r + j - i * k - 1, r + i - 1)
            coeffs.append(-c if i & 1 else c)
        nums.append(homogeneous_horner(coeffs, x, d))
    return nums


def _pgf_expansion_from_inner(params: RunParams, n: int, nums: list, lo: int) -> Fraction:
    """Full-scheme pmf at ``n`` from the inner numerators ``nums[j - lo]``."""
    k, r = params.k, params.r
    v = n - r * k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    e_top = v // (k + 1)
    d = den ** (k + 1)
    total = 0
    for i in range(min(r, v) + 1):
        # bring T_(v-i) to the denominator den^((k+1) e_top) and p^i to den^r
        term = (math.comb(r, i) * pn ** i * den ** (r - i)
                * d ** (e_top - (v - i) // (k + 1)) * nums[v - i - lo])
        total += -term if i & 1 else term
    return Fraction(pn ** (r * k) * total, den ** (r * k + r + (k + 1) * e_top))


def pmf_pgf_expansion(params: RunParams, n: int) -> Scalar:
    """Full-scheme pmf as the coefficient of ``s^n`` in the r-th pgf power.

    Double alternating sum over the binomial expansion of the generating
    function; the outer index only contributes on a window of width ``r+1``,
    so only the inner coefficients ``T_(v-r) .. T_v`` are computed.
    """
    v = n - params.r * params.k
    if v < 0:
        return _finalize(0, params)
    lo = max(v - params.r, 0)
    nums = _pgf_inner_numerators(params, lo, v)
    return _finalize(_pgf_expansion_from_inner(params, n, nums, lo), params)


def _type2_total(params: RunParams, lo: int, outer: list) -> Fraction:
    """``sum_m outer[m-lo] p^(mk) q^(m-1) / den`` over ``m >= lo``, exactly.

    ``outer[m-lo]`` holds the signed binomial weight times the bracket scaled
    by ``den``. With ``x = pn^k qn``, ``d = den^(k+1)`` and ``J + 1`` terms
    the sum is ``x^lo H / (qn d^(lo+J))``, ``H`` one integer-kernel call.
    Dividing by ``qn`` is exact: for ``lo >= 1`` ``x^lo`` carries it, and for
    ``lo = 0`` the ``m = 0`` bracket is ``qn`` itself.
    """
    if not outer:
        return Fraction(0)
    k = params.k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    x, d = pn ** k * qn, den ** (k + 1)
    total = x ** lo * homogeneous_horner(outer, x, d) // qn
    return Fraction(total, d ** (lo + len(outer) - 1))


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
    p = params.exact_p()
    if r == 1 and n == k:
        return _finalize(p ** k, params)
    pn, den = p.numerator, p.denominator
    qn = den - pn
    outer = []
    for m in range(r, (n + 1) // (k + 1) + 1):
        t = n - m * k
        if form is MuselliForm.ORIGINAL:
            bracket = den * binom(t - 1, m - 2) + qn * binom(t - 1, m - 1)
        else:
            bracket = den * binom(t, m - 1) - pn * binom(t - 1, m - 1)
        c = binom(m - 1, r - 1) * bracket
        outer.append(-c if (m - r) & 1 else c)
    return _finalize(_type2_total(params, r, outer), params)


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
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    outer = []
    for m in range(r_count, (n + 1) // (k + 1) + 1):
        t = n - m * k
        if form is MuselliForm.ORIGINAL:
            bracket = den * binom(t, m - 1) + qn * binom(t, m)
        else:
            bracket = den * binom(t + 1, m) - pn * binom(t, m)
        c = binom(m, r_count) * bracket
        outer.append(-c if (m - r_count) & 1 else c)
    return _finalize(_type2_total(params, r_count, outer), params)


def support_min(params: RunParams, variant: VariantSpec = TYPE1,
                scheme: IndexScheme = IndexScheme.FULL) -> int:
    """Smallest index with positive probability under the variant."""
    k, r = params.k, params.r
    if variant.type2:
        base = r * k + (r - 1)
    elif variant.overlap > 0:
        base = k + (r - 1) * (k - variant.overlap)
    elif variant.overlap < 0:
        base = r * k + (r - 1) * variant.gap
    else:
        base = r * k
    return base if scheme is IndexScheme.FULL else base - r * k


def _type1_single(params: RunParams, engine: PmfEngine, n_cut: int,
                  counter: TermCounter | None):
    if engine is PmfEngine.FULLSUM_CH:
        return pmf_fullsum_ch(params, n_cut)
    if engine is PmfEngine.NESTED_SUM:
        return pmf_nested_sum(params, n_cut, IndexScheme.CUT, counter)
    if engine is PmfEngine.HYP_SUM:
        return pmf_hyp(params, n_cut, IndexScheme.CUT)
    raise AssertionError(engine)


def pmf_table(params: RunParams, engine: PmfEngine, n_min: int, n_max: int,
              scheme: IndexScheme = IndexScheme.FULL,
              variant: VariantSpec = TYPE1,
              counter: TermCounter | None = None) -> PmfTable:
    """Evaluate any waiting-time engine over ``[n_min, n_max]``.

    Handles index conversion into each engine's native scheme, pads exact
    zeros below the support, applies the gap shift for ``variant.is_gap``,
    and rejects engine/scheme/variant combinations that have no meaning.
    """
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    if engine in COUNT_ENGINES:
        raise ValueError(f"{engine.value} is a run-count engine, not a waiting-time pmf")
    variant.check_against(params)
    zero = Fraction(0) if params.exact else 0.0

    if engine in TYPE2_PMF_ENGINES:
        if not variant.type2:
            raise ValueError(f"{engine.value} requires the type2 variant")
        if scheme is not IndexScheme.FULL:
            raise ValueError("Type II pmf is defined for the full scheme only")
        if n_min < 1:
            raise ValueError("Type II pmf needs n_min >= 1")
        form = (MuselliForm.ORIGINAL if engine is PmfEngine.MUSELLI_ORIGINAL
                else MuselliForm.ALT)
        vals = [pmf_muselli(params, n, form) for n in range(n_min, n_max + 1)]
        return PmfTable(params, scheme, variant, n_min, tuple(vals))

    if variant.type2:
        raise ValueError(f"{engine.value} computes the Type I family, not type2")

    if engine is PmfEngine.ROOT_BASED:
        from . import roots

        if scheme is not IndexScheme.FULL:
            raise ValueError("root-based engine is defined for the full scheme only")
        if params.exact:
            raise ValueError("root-based engine is numeric; use float parameters")
        ell = max(variant.overlap, 0)
        system = roots.solve_roots(params)
        coeffs = roots.recover_coefficients(system, ell=ell)
        shift = (params.r - 1) * variant.gap
        vals = []
        for n in range(n_min, n_max + 1):
            m = n - shift
            vals.append(roots.pmf_root_based(coeffs, m, counter=counter)
                        if m >= 1 else 0.0)
        return PmfTable(params, scheme, variant, n_min, tuple(vals))

    if variant.is_overlap:
        raise ValueError(f"{engine.value} has no overlapping-run form; use root-based")
    if variant.is_gap and scheme is not IndexScheme.FULL:
        raise ValueError("gap variant is defined for the full scheme only")

    gap_shift = (params.r - 1) * variant.gap

    def cut_index(n: int) -> int:
        base = n - gap_shift
        return base - params.r * params.k if scheme is IndexScheme.FULL else base

    if engine in (PmfEngine.RECURRENCE_PG, PmfEngine.RECURRENCE_CH):
        top = cut_index(n_max)
        if top < 0:
            vals = [zero] * (n_max - n_min + 1)
            return PmfTable(params, scheme, variant, n_min, tuple(vals))
        if engine is PmfEngine.RECURRENCE_PG:
            native = pmf_recurrence_pg(params, top + params.r * params.k)
            lookup = lambda c: native.value(c + params.r * params.k)
        else:
            native = pmf_recurrence_ch(params, top)
            lookup = lambda c: native.value(c)
        vals = [lookup(c) if (c := cut_index(n)) >= 0 else zero
                for n in range(n_min, n_max + 1)]
        return PmfTable(params, scheme, variant, n_min, tuple(vals))

    if engine is PmfEngine.PGF_EXPANSION:
        rk = params.r * params.k
        lo = max(cut_index(n_min) - params.r, 0)
        nums = _pgf_inner_numerators(params, lo, cut_index(n_max))
        vals = [_finalize(_pgf_expansion_from_inner(params, c + rk, nums, lo), params)
                if (c := cut_index(n)) >= 0 else zero for n in range(n_min, n_max + 1)]
        return PmfTable(params, scheme, variant, n_min, tuple(vals))

    vals = [_type1_single(params, engine, c, counter) if (c := cut_index(n)) >= 0
            else zero for n in range(n_min, n_max + 1)]
    return PmfTable(params, scheme, variant, n_min, tuple(vals))
