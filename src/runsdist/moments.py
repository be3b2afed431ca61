"""Factorial, raw, and central moments of the Type I family.

Three independent routes produce the same numbers: the order-mixing
recurrence (cut scheme), closed-form partition sums driven by per-order
coefficient families (either scheme), and a truncated generating-function
derivative (full scheme). A fourth route sums directly against any pmf
table. Coefficient families and the finite routes are evaluated in exact
rational arithmetic internally, like the sum-type pmf engines.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .core import (IndexScheme, MomentKind, MomentSet, PmfTable, RunParams, Scalar,
                   convert_index, shift_moments)
from .pmf import pmf_recurrence_pg
from .special import binom, eulerian_poly, falling, stirling2


class MomentRoute(Enum):
    RECURRENCE = "recurrence"
    PARTITION = "partition"
    PGF = "pgf"
    ROOT = "root"
    SUMMATION = "summation"


class NonConvergentTail(RuntimeError):
    """The truncated generating-function sum failed to meet its tail bound."""


def _exact_pq(params: RunParams):
    p = params.exact_p()
    return p, 1 - p


def _coeff_factorial_cut(params: RunParams, j: int) -> Fraction:
    p, q = _exact_pq(params)
    k = params.k
    inner = p ** (j - 1) * (1 - p ** k)
    inner -= p ** k * sum(binom(k, i) * p ** (j - i - 1) * q ** i
                          for i in range(1, j))
    return math.factorial(j) / (q ** j * p ** k) * inner - falling(k, j)


def _coeff_factorial_full(params: RunParams, j: int) -> Fraction:
    p, q = _exact_pq(params)
    k = params.k
    inner = p ** (j - 1) * (1 - p ** k)
    for i in range(1, j):
        term = binom(k + i - 1, i) * p ** (j - i - 1) * q ** i
        inner += -term if i & 1 else term
    return math.factorial(j) / (q ** j * p ** k) * inner


def _coeff_raw_cut(params: RunParams, j: int) -> Fraction:
    p, q = _exact_pq(params)
    k = params.k
    kq = k * q
    xi = (1 - p ** k) * eulerian_poly(j, p)
    xi -= p ** k * sum(binom(j, i) * kq ** i * eulerian_poly(j - i, p)
                       for i in range(1, j + 1))
    return xi / (q ** j * p ** k)


def _coeff_raw_full(params: RunParams, j: int) -> Fraction:
    p, q = _exact_pq(params)
    k = params.k
    kq = k * q
    chi = (1 - p ** k) * eulerian_poly(j, p)
    for i in range(1, j):
        term = binom(j, i) * kq ** i * eulerian_poly(j - i, p)
        chi += -term if i & 1 else term
    return chi / (q ** j * p ** k)


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


def coeff_raw(params: RunParams, j: int,
              scheme: IndexScheme = IndexScheme.CUT) -> Scalar:
    """Raw-moment coefficient, built from Eulerian polynomials."""
    if j < 1:
        raise ValueError("coefficient order must be >= 1")
    fn = _coeff_raw_cut if scheme is IndexScheme.CUT else _coeff_raw_full
    return params.finalize(fn(params, j))


def factorial_moments_recurrence(params: RunParams, order_max: int) -> MomentSet:
    """Cut-scheme factorial moments by the order-mixing recurrence.

    ``M_(n) = (1/n) sum_j C(n, j) (n + rj - j) C_j M_(n-j)`` over
    ``1 <= j <= min(n, k)``, seeded with ``M_(0) = 1``.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    k, r = params.k, params.r
    cj = {j: _coeff_factorial_cut(params, j) for j in range(1, min(order_max, k) + 1)}
    m = [Fraction(1)]
    for n in range(1, order_max + 1):
        acc = Fraction(0)
        for j in range(1, min(n, k) + 1):
            acc += binom(n, j) * (n + r * j - j) * cj[j] * m[n - j]
        m.append(acc / n)
    return MomentSet(MomentKind.FACTORIAL, IndexScheme.CUT,
                     tuple(params.finalize(v) for v in m[1:]))


def _weighted_partitions(n: int, max_part: int):
    """Yield solutions of ``sum j * mult_j = n`` as lists of (part, mult)."""
    def rec(remaining: int, part: int, acc: list):
        if remaining == 0:
            yield list(acc)
            return
        if part == 0:
            return
        for mult in range(remaining // part, -1, -1):
            if mult:
                acc.append((part, mult))
            yield from rec(remaining - part * mult, part - 1, acc)
            if mult:
                acc.pop()

    yield from rec(n, max_part, [])


def _partition_values(params: RunParams, order_max: int, coeff_fn) -> list:
    """Shared partition-sum core for factorial and raw moments.

    Parts run up to the moment order itself: the full-scheme coefficient
    families are nonzero beyond order ``k`` and those terms are required for
    the scheme-shift identities to hold (the cut-scheme factorial family
    vanishes above ``k``, so the wider bound is harmless there).
    """
    r = params.r
    coeffs = {j: coeff_fn(params, j) for j in range(1, order_max + 1)}
    out = []
    for n in range(1, order_max + 1):
        acc = Fraction(0)
        for combo in _weighted_partitions(n, n):
            s = sum(mult for _, mult in combo)
            prod = Fraction(falling(r + s - 1, s))
            den = 1
            for part, mult in combo:
                prod *= (coeffs[part] / math.factorial(part)) ** mult
                den *= math.factorial(mult)
            acc += prod / den
        out.append(math.factorial(n) * acc)
    return out


def factorial_moments_partition(params: RunParams, order_max: int,
                                scheme: IndexScheme = IndexScheme.CUT) -> MomentSet:
    """Factorial moments as closed-form partition sums, either scheme."""
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    fn = (_coeff_factorial_cut if scheme is IndexScheme.CUT
          else _coeff_factorial_full)
    vals = _partition_values(params, order_max, fn)
    return MomentSet(MomentKind.FACTORIAL, scheme,
                     tuple(params.finalize(v) for v in vals))


def raw_moments_partition(params: RunParams, order_max: int,
                          scheme: IndexScheme = IndexScheme.CUT) -> MomentSet:
    """Raw moments as the same partition sums over the raw coefficients."""
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    fn = _coeff_raw_cut if scheme is IndexScheme.CUT else _coeff_raw_full
    vals = _partition_values(params, order_max, fn)
    return MomentSet(MomentKind.RAW, scheme,
                     tuple(params.finalize(v) for v in vals))


def mean(params: RunParams, scheme: IndexScheme = IndexScheme.FULL) -> Scalar:
    """Closed-form mean: ``r (1 - p^k) / (q p^k)``, minus ``r*k`` in cut scheme."""
    p, q = _exact_pq(params)
    k, r = params.k, params.r
    mu = r * (1 - p ** k) / (q * p ** k)
    if scheme is IndexScheme.CUT:
        mu -= r * k
    return params.finalize(mu)


def variance(params: RunParams) -> Scalar:
    """Closed-form variance (scheme-independent)."""
    p, q = _exact_pq(params)
    k, r = params.k, params.r
    w = q * p ** k
    return params.finalize(r * (1 / w ** 2 - (2 * k + 1) / w - p / q ** 2))


def central_moments(params: RunParams, order_max: int = 4) -> MomentSet:
    """Central moments up to order 4, from the raw coefficient families.

    The cut and full families give identical results here; the cut family is
    used. Orders above 4 are out of scope for the closed forms; use the raw
    routes plus :func:`central_from_raw` instead.
    """
    if not 1 <= order_max <= 4:
        raise ValueError("closed-form central moments cover orders 1..4")
    r = params.r
    t = {j: _coeff_raw_cut(params, j) for j in range(1, 5)}
    var = r * (t[1] ** 2 + t[2])
    m3 = r * (2 * t[1] ** 3 + 3 * t[1] * t[2] + t[3])
    m4 = 3 * var ** 2 + r * (6 * t[1] ** 4 + 12 * t[1] ** 2 * t[2]
                             + 3 * t[2] ** 2 + 4 * t[1] * t[3] + t[4])
    vals = (Fraction(0), var, m3, m4)[:order_max]
    return MomentSet(MomentKind.CENTRAL, IndexScheme.FULL,
                     tuple(params.finalize(v) for v in vals))


def skewness_kurtosis(params: RunParams) -> tuple:
    """Skewness and excess kurtosis (floats; the scale is a square root)."""
    cm = central_moments(params.to_exact(), 4)
    var = float(cm.value(2))
    sigma = math.sqrt(var)
    gamma = float(cm.value(3)) / sigma ** 3
    excess = (float(cm.value(4)) - 3 * var ** 2) / var ** 2
    return gamma, excess


def raw_from_factorial(ms: MomentSet) -> MomentSet:
    """Raw moments as the Stirling-number transform of factorial moments."""
    if ms.kind is not MomentKind.FACTORIAL:
        raise ValueError("raw_from_factorial needs factorial moments")
    out = []
    for n in range(1, ms.order_max + 1):
        out.append(sum(stirling2(n, j) * ms.value(j) for j in range(1, n + 1)))
    return MomentSet(MomentKind.RAW, ms.scheme, tuple(out))


def central_from_raw(ms: MomentSet) -> MomentSet:
    """Central moments by binomial expansion about the mean."""
    if ms.kind is not MomentKind.RAW:
        raise ValueError("central_from_raw needs raw moments")
    mu = ms.value(1)
    out = []
    for n in range(1, ms.order_max + 1):
        acc = 0
        for i in range(n + 1):
            acc += binom(n, i) * ms.value(i) * (-mu) ** (n - i)
        out.append(acc)
    return MomentSet(MomentKind.CENTRAL, ms.scheme, tuple(out))


def moments_from_table(table: PmfTable, order_max: int, kind: MomentKind,
                       scheme: IndexScheme | None = None) -> MomentSet:
    """Moments by direct summation over a pmf table.

    The table must carry essentially all of the mass for the result to mean
    anything; see :func:`summation_window`.
    """
    scheme = scheme or table.scheme
    pairs = [(convert_index(n, table.scheme, scheme, table.params), v)
             for n, v in table.items()]
    if kind is MomentKind.CENTRAL:
        mu = sum(n * v for n, v in pairs)
        vals = [sum((n - mu) ** j * v for n, v in pairs)
                for j in range(1, order_max + 1)]
    elif kind is MomentKind.RAW:
        vals = [sum(n ** j * v for n, v in pairs) for j in range(1, order_max + 1)]
    else:
        vals = [sum(falling(n, j) * v for n, v in pairs)
                for j in range(1, order_max + 1)]
    return MomentSet(kind, scheme, tuple(vals))


def summation_window(params: RunParams, sigmas: float = 30.0) -> int:
    """Full-scheme index covering the mean plus ``sigmas`` standard deviations."""
    fp = params.to_float()
    return max(int(math.ceil(mean(fp) + sigmas * math.sqrt(variance(fp)))),
               params.r * params.k + 10)


def moments_by_summation(params: RunParams, order_max: int, kind: MomentKind,
                         scheme: IndexScheme = IndexScheme.FULL,
                         sigmas: float = 30.0) -> MomentSet:
    """Summation route over a recurrence table spanning at least mean + 30 sd.

    ``mean + sigmas * sd`` can still truncate noticeably for high orders when
    the distribution is narrow, so the window doubles until a geometric bound
    on the order-weighted tail falls below 1e-12 of the leading moment.
    Always runs in double precision: the window is far too wide for exact
    arithmetic to pay its way, and the truncation already caps the accuracy.
    """
    fp = params.to_float()
    n_max = summation_window(fp, sigmas)
    for _ in range(40):
        table = pmf_recurrence_pg(fp, n_max)
        ms = moments_from_table(table, order_max, kind, scheme)
        last, prev = table.value(n_max), table.value(n_max - 1)
        if last == 0.0:
            return ms
        rho = (last / prev) * (n_max / (n_max - 1)) ** order_max if prev else 1.0
        if rho < 1.0:
            tail = n_max ** order_max * last * rho / (1.0 - rho)
            if tail <= 1e-12 * abs(ms.value(order_max)):
                return ms
        n_max *= 2
    raise RuntimeError("summation window failed to close the moment tail")


def factorial_moments_pgf(params: RunParams, order_max: int,
                          tail_tol: float = 1e-10,
                          hard_cap: int = 10 ** 6) -> MomentSet:
    """Full-scheme factorial moments from the generating-function derivative.

    The infinite outer sum is truncated once a geometric envelope, with ratio
    estimated from the last ten terms, bounds the remaining tail below
    ``tail_tol`` relative to the partial sum for every order. The bound is
    approximate (the envelope is an estimate); the tolerance should be read
    as the route's accuracy target rather than a hard guarantee. Runs in
    double precision.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    k, r = params.k, params.r
    p = float(params.p)
    q = 1.0 - p
    rk = r * k
    pk = p ** k

    # The summand's pmf factor is the coefficient of s^(v+rk) in the pgf
    # power. The pgf denominator factors as (1 - p s) times a polynomial
    # whose tail coefficients are all negative, so after cancelling the
    # numerator the coefficient stream comes from r chained all-positive
    # recurrences (one per pgf factor): cancellation-free, unlike the
    # nested binomial double sum it equals (the double sum stays in
    # runsdist.reference).
    w = [q * p ** (u - 1) for u in range(1, k + 1)]
    stages = [[] for _ in range(r + 1)]
    sums = [0.0] * (order_max + 1)
    window: list = []
    burn_in = rk + order_max + 10
    for v in range(hard_cap):
        stages[0].append(1.0 if v == 0 else 0.0)
        for m in range(1, r + 1):
            acc = pk * stages[m - 1][v - k] if v >= k else 0.0
            g = stages[m]
            for u in range(1, min(k, v) + 1):
                prev = g[v - u]
                if prev:
                    acc += w[u - 1] * prev
            g.append(acc)
        prob = stages[r][v]
        n_full = v  # absolute index: stage r is supported on v >= rk
        terms = [binom(n_full, j) * prob for j in range(1, order_max + 1)]
        for j in range(1, order_max + 1):
            sums[j] += terms[j - 1]
        window.append(terms)
        if len(window) > 10:
            window.pop(0)
        if len(window) < 10 or n_full < burn_in:
            continue
        ok = True
        for j in range(1, order_max + 1):
            recent = [w[j - 1] for w in window]
            if max(abs(x) for x in recent) == 0.0:
                continue  # tail underflowed; nothing left to add
            if any(x <= 0 for x in recent):
                ok = False
                break
            rho = max(recent[i + 1] / recent[i] for i in range(9))
            if rho >= 1.0 or recent[-1] * rho / (1.0 - rho) > tail_tol * abs(sums[j]):
                ok = False
                break
        if ok:
            break
    else:
        raise NonConvergentTail(
            f"tail bound not met within {hard_cap} terms (tail_tol={tail_tol})")
    vals = tuple(math.factorial(j) * sums[j] for j in range(1, order_max + 1))
    return MomentSet(MomentKind.FACTORIAL, IndexScheme.FULL, vals)


def moments_via_route(params: RunParams, route: MomentRoute, kind: MomentKind,
                      scheme: IndexScheme, order_max: int,
                      tail_tol: float = 1e-10) -> MomentSet:
    """Uniform front end over the moment routes, with kind/scheme conversion.

    The generating-function and root routes produce full-scheme moments and
    cannot be converted to the cut scheme (there is no valid inverse shift),
    so asking them for cut-scheme factorial or raw moments is an error.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")

    if route is MomentRoute.SUMMATION:
        return moments_by_summation(params, order_max, kind, scheme)

    if route is MomentRoute.RECURRENCE:
        fact_cut = factorial_moments_recurrence(params, order_max)
        if kind is MomentKind.CENTRAL:
            return central_from_raw(raw_from_factorial(fact_cut))
        base = fact_cut if kind is MomentKind.FACTORIAL else raw_from_factorial(fact_cut)
        if scheme is IndexScheme.CUT:
            return base
        return shift_moments(base, params.r * params.k)

    if route is MomentRoute.PARTITION:
        if kind is MomentKind.CENTRAL:
            return central_from_raw(raw_moments_partition(params, order_max,
                                                          IndexScheme.CUT))
        if kind is MomentKind.FACTORIAL:
            return factorial_moments_partition(params, order_max, scheme)
        return raw_moments_partition(params, order_max, scheme)

    if route is MomentRoute.PGF:
        fact_full = factorial_moments_pgf(params, order_max, tail_tol)
    elif route is MomentRoute.ROOT:
        from . import roots

        system = roots.solve_roots(params.to_float())
        coeffs = roots.recover_coefficients(system)
        fact_full = roots.factorial_moments_root(coeffs, order_max)
    else:
        raise ValueError(f"unknown route {route!r}")

    if kind is MomentKind.CENTRAL:
        return central_from_raw(raw_from_factorial(fact_full))
    if scheme is not IndexScheme.FULL:
        raise ValueError(f"{route.value} route produces full-scheme moments only")
    return fact_full if kind is MomentKind.FACTORIAL else raw_from_factorial(fact_full)
