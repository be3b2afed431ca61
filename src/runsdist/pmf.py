"""Interchangeable engines for the waiting-time pmf.

Seven engines cover the nonoverlapping (Type I) family: two linear
recurrences (one per indexing scheme), an O(n^2) double combinatorial sum, an
O(n) nested sum, its hypergeometric condensation, a generating-function
expansion, and the root-based engine that lives in :mod:`runsdist.roots`. Two
further engines cover the at-least-one-failure-between-runs (Type II) family,
each in two algebraic forms, plus the matching fixed-length run-count
distribution. Each engine is one :class:`EngineSpec` record in
:data:`ENGINES`, and :func:`pmf_table` and the CLI read only that record.

The alternating sums here cancel catastrophically in double precision (terms
can exceed 1e10 while the result is below 1e-2), so every sum-type engine
evaluates its terms in exact rational arithmetic internally, converting a
float success probability to its exact binary value, and rounds once on
return. No rational is built per term: each engine writes its terms as small
integer brackets over powers of the denominator of ``p``, sums them with the
one integer kernel :func:`~runsdist.special.homogeneous_horner`, and divides
once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .core import TYPE1, IndexScheme, PmfTable, RunParams, Scalar, VariantSpec, convert_index
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
        return params.finalize(0)
    k, r = params.k, params.r
    rk = r * k
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    if n == 0:
        return params.finalize(Fraction(pn ** rk, den ** rk))
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
    return params.finalize(Fraction(total, den ** (n + rk)))


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
        return params.finalize(0)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    qn = den - pn
    if m == 0:
        return params.finalize(Fraction(pn ** rk, den ** rk))
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
    return params.finalize(_nested_outer(params, outer))


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
        return params.finalize(0)
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    if m == 0:
        return params.finalize(Fraction(pn ** rk, den ** rk))
    qn = den - pn
    qi = [qn ** i * den ** (r - i) for i in range(r + 1)]  # q^i scaled by den^r
    outer = [_hyp2f1_scaled(r, 1 - m, 1 - r, 2, qi[1:])]  # j = 0 carries q^(i+1)
    for j in range(1, (m - 1) // k + 1):
        top = m - j * k - 1
        if top < j - 1:  # C(top, j-1) vanishes here and for every later j
            break
        outer.append(math.comb(r + j - 1, r - 1)
                     * _hyp2f1_scaled(math.comb(top, j - 1), j - 1 - top, -r, j, qi))
    return params.finalize(_nested_outer(params, outer))


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


def _pgf_expansion_values(params: RunParams, lo: int, hi: int) -> list:
    """Full-scheme pmf at ``lo..hi`` (all ``>= r*k``), each inner numerator computed once."""
    k, r = params.k, params.r
    p = params.exact_p()
    pn, den = p.numerator, p.denominator
    d = den ** (k + 1)
    first = max(lo - r * k - r, 0)
    nums = _pgf_inner_numerators(params, first, hi - r * k)
    vals = []
    for v in range(lo - r * k, hi - r * k + 1):
        e_top = v // (k + 1)
        total = 0
        for i in range(min(r, v) + 1):
            # bring T_(v-i) to the denominator den^((k+1) e_top) and p^i to den^r
            term = (math.comb(r, i) * pn ** i * den ** (r - i)
                    * d ** (e_top - (v - i) // (k + 1)) * nums[v - i - first])
            total += -term if i & 1 else term
        vals.append(params.finalize(
            Fraction(pn ** (r * k) * total, den ** (r * k + r + (k + 1) * e_top))))
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
        return params.finalize(p ** k)
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
    return params.finalize(_type2_total(params, r, outer))


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
    return params.finalize(_type2_total(params, r_count, outer))


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
    """

    engine: PmfEngine
    scheme: IndexScheme
    family: EngineFamily
    evaluate: Callable
    exact: bool = True
    overlap: bool = False
    form: MuselliForm | None = None

    @property
    def type1_only(self) -> bool:
        """Evaluates the nonoverlapping family alone, so its support starts at ``r*k``."""
        return self.family is EngineFamily.TYPE1 and not self.overlap

    def first_index(self, params: RunParams) -> int:
        """Smallest native index the evaluator takes; the table reads 0 below it."""
        return support_min(params, TYPE1, self.scheme) if self.type1_only else 1

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
    return EngineSpec(engine, IndexScheme.FULL, EngineFamily.TYPE2, form=form, evaluate=(
        lambda params, lo, hi, ell, counter:
        [pmf_muselli(params, n, form) for n in range(lo, hi + 1)]))


def _counts(engine: PmfEngine, form: MuselliForm) -> EngineSpec:
    """The run-count engine of one Muselli form; ``params.r`` is the run count."""
    return EngineSpec(engine, IndexScheme.FULL, EngineFamily.COUNTS, form=form, evaluate=(
        lambda params, lo, hi, ell, counter:
        [counts_muselli(params, n, params.r, form) for n in range(lo, hi + 1)]))


ENGINES = {spec.engine: spec for spec in (
    EngineSpec(
        PmfEngine.RECURRENCE_PG, IndexScheme.FULL, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            list(pmf_recurrence_pg(params, hi).values[lo - params.r * params.k:])),
    EngineSpec(
        PmfEngine.RECURRENCE_CH, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter: list(pmf_recurrence_ch(params, hi).values[lo:])),
    EngineSpec(
        PmfEngine.FULLSUM_CH, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            [pmf_fullsum_ch(params, n) for n in range(lo, hi + 1)]),
    EngineSpec(
        PmfEngine.NESTED_SUM, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            [pmf_nested_sum(params, n, IndexScheme.CUT, counter) for n in range(lo, hi + 1)]),
    EngineSpec(
        PmfEngine.HYP_SUM, IndexScheme.CUT, EngineFamily.TYPE1,
        lambda params, lo, hi, ell, counter:
            [pmf_hyp(params, n, IndexScheme.CUT) for n in range(lo, hi + 1)]),
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
    engine's first index, and evaluates the rest in one call.
    """
    if n_max < n_min:
        raise ValueError("n_max must be at least n_min")
    spec = ENGINES[engine]
    if spec.family is EngineFamily.COUNTS:
        raise ValueError(f"{engine.value} is a run-count engine, not a waiting-time pmf")
    spec.check(params, scheme, variant, n_min)
    shift = (params.r - 1) * variant.gap
    lo, hi = (convert_index(n - shift, scheme, spec.scheme, params) for n in (n_min, n_max))
    first = max(lo, spec.first_index(params))
    pad = [Fraction(0) if params.exact else 0.0] * (min(first, hi + 1) - lo)
    vals = spec.evaluate(params, first, hi, max(variant.overlap, 0), counter) if first <= hi else []
    return PmfTable(params, scheme, variant, n_min, tuple(pad + vals))
