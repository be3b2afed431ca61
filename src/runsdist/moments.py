"""Factorial, raw, and central moments of the waiting time.

Four routes produce the same Type I numbers: the order-mixing recurrence
(cut scheme), closed-form partition sums driven by per-order coefficient
families (either scheme), a finite Taylor expansion of the rational
generating function (full scheme), and direct summation against a pmf table.
The generating-function route covers every counting family, since each
family's pgf is rational (:func:`runsdist.core.rational_pgf`); the others,
and the root expansion of :mod:`runsdist.roots`, reach the minimum-gap
variant by shifting Type I moments, and the root expansion also fits the
overlap families. Coefficient families and the finite routes are evaluated
in exact rational arithmetic internally, like the sum-type pmf engines.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import mul

from .core import (TYPE1, IndexScheme, MomentKind, MomentSet, PmfTable, RunParams, Scalar,
                   VariantSpec, convert_index, rational_pgf, shift_moments)
from .pmf import pmf_recurrence_pg
from .special import _series_div, binom, eulerian_poly, falling, stirling2


class MomentRoute(Enum):
    RECURRENCE = "recurrence"
    PARTITION = "partition"
    PGF = "pgf"
    ROOT = "root"
    SUMMATION = "summation"


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


def shape_from_central(cm: MomentSet) -> tuple:
    """Skewness and excess kurtosis from central moments of orders 2..4, as floats."""
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
    else:
        # each order's integer weights n^j or (n)_j from the order before;
        # the sums add the same products in the same order as one sum per order
        ns = [n for n, _ in pairs]
        vs = [v for _, v in pairs]
        weights = [1] * len(ns)
        vals = []
        for j in range(order_max):
            if kind is MomentKind.RAW:
                weights = list(map(mul, weights, ns))
            else:
                weights = [w * (n - j) for w, n in zip(weights, ns)]
            vals.append(sum(map(mul, weights, vs)))
    return MomentSet(kind, scheme, tuple(vals))


_WINDOW_SIGMAS = 30.0  # standard deviations past the mean that a summation window spans


def summation_window(params: RunParams) -> int:
    """Full-scheme index covering the mean plus 30 standard deviations."""
    fp = params.to_float()
    return max(int(math.ceil(mean(fp) + _WINDOW_SIGMAS * math.sqrt(variance(fp)))),
               params.r * params.k + 10)


def moments_by_summation(params: RunParams, order_max: int, kind: MomentKind,
                         scheme: IndexScheme = IndexScheme.FULL) -> MomentSet:
    """Summation route over a recurrence table spanning at least mean + 30 sd.

    ``mean + 30 sd`` can still truncate noticeably for high orders when
    the distribution is narrow, so the window doubles until a geometric bound
    on the order-weighted tail falls below 1e-12 of the leading moment.
    Always runs in double precision: the window is far too wide for exact
    arithmetic to pay its way, and the truncation already caps the accuracy.
    """
    fp = params.to_float()
    n_max = summation_window(fp)
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


def _taylor_shift(poly: list, length: int) -> list:
    """The first ``length`` coefficients of ``poly(1 + t)`` in powers of ``t``."""
    return [sum(binom(i, j) * poly[i] for i in range(j, len(poly)))
            for j in range(length)]


def factorial_moments_pgf(params: RunParams, order_max: int,
                          variant: VariantSpec = TYPE1) -> MomentSet:
    """Full-scheme factorial moments of any family from its rational pgf.

    The factorial moment of order ``j`` is ``j! [t^j] P(1 + t)``. Both
    integer polynomials of :func:`~runsdist.core.rational_pgf` are Taylor-shifted to
    ``s = 1 + t`` and divided as power series to order ``order_max``: a
    finite expansion with no tail. The shifted denominator's constant term
    is ``b^((k+1) r) D_k(1)^r = ((b - a) a^k)^r`` for ``p = a/b``, which is
    never zero. Always computed from ``exact_p()``; float mode rounds each
    moment once.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    scale, shift, num, den = rational_pgf(params.to_exact(), variant)
    length = order_max + 1
    num_t = _taylor_shift([0] * shift + num, length)
    den_t = _taylor_shift(den, length)
    lead = den_t[0]
    # num_t / den_t = quot / lead, with quot the series of num_t over den_t / lead
    quot = _series_div(num_t, [Fraction(c, lead) for c in den_t], length)
    return MomentSet(MomentKind.FACTORIAL, IndexScheme.FULL,
                     tuple(params.finalize(Fraction(math.factorial(j) * scale, lead) * quot[j])
                           for j in range(1, length)))


def _from_factorial(fact: MomentSet, kind: MomentKind) -> MomentSet:
    if kind is MomentKind.FACTORIAL:
        return fact
    raw = raw_from_factorial(fact)
    return raw if kind is MomentKind.RAW else central_from_raw(raw)


def moments_via_route(params: RunParams, route: MomentRoute, kind: MomentKind,
                      scheme: IndexScheme, order_max: int,
                      variant: VariantSpec = TYPE1) -> MomentSet:
    """Uniform front end over the moment routes and families, with kind/scheme conversion.

    The ``pgf`` route covers every family: it converts factorial to raw to
    central moments in exact rationals and rounds each value once. The other
    routes compute Type I moments and reach the gap variant by shifting
    them; the ``root`` route also fits the overlap families, and the rest
    reject overlap and Type II with ``ValueError``. The generating-function
    and root routes produce full-scheme moments and cannot be converted to
    the cut scheme (there is no valid inverse shift), so asking them for
    cut-scheme factorial or raw moments is an error, as is the cut scheme
    for a gap.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    variant.check_against(params)
    central = kind is MomentKind.CENTRAL
    if (route in (MomentRoute.PGF, MomentRoute.ROOT) and not central
            and scheme is not IndexScheme.FULL):
        raise ValueError(f"{route.value} route produces full-scheme moments only")
    if variant.is_gap and scheme is not IndexScheme.FULL:
        raise ValueError("gap moments are full-scheme only")

    if route is MomentRoute.PGF:
        ms = _from_factorial(factorial_moments_pgf(params.to_exact(), order_max, variant),
                             kind)
        return MomentSet(ms.kind, ms.scheme, tuple(params.finalize(v) for v in ms.values))
    if variant.type2 or (variant.is_overlap and route is not MomentRoute.ROOT):
        raise ValueError(f"the {route.value} route does not cover {variant.describe()}")

    if route is MomentRoute.SUMMATION:
        ms = moments_by_summation(params, order_max, kind, scheme)
    elif route is MomentRoute.RECURRENCE:
        ms = _from_factorial(factorial_moments_recurrence(params, order_max), kind)
        if scheme is IndexScheme.FULL and not central:
            ms = shift_moments(ms, params.r * params.k)
    elif route is MomentRoute.PARTITION:
        if central:
            ms = central_from_raw(raw_moments_partition(params, order_max, IndexScheme.CUT))
        elif kind is MomentKind.FACTORIAL:
            ms = factorial_moments_partition(params, order_max, scheme)
        else:
            ms = raw_moments_partition(params, order_max, scheme)
    elif route is MomentRoute.ROOT:
        from . import roots

        system = roots.solve_roots(params.to_float())
        coeffs = roots.recover_coefficients(system, ell=max(variant.overlap, 0))
        ms = _from_factorial(roots.factorial_moments_root(coeffs, order_max), kind)
    else:
        raise ValueError(f"unknown route {route!r}")

    if variant.is_gap and not central:
        ms = shift_moments(ms, (params.r - 1) * variant.gap)
    return ms
