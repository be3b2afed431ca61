"""Factorial, raw, and central moments of the waiting time.

Four routes produce the same Type I numbers: the order-mixing recurrence
(cut scheme), closed-form partition sums driven by per-order coefficient
families (either scheme), a finite Taylor expansion of the rational
generating function (full scheme), and direct summation against a pmf table.
The generating-function route covers every counting family, since each
family's pgf is rational (:func:`runsdist.core.rational_pgf`); the others,
and the root expansion of :mod:`runsdist.roots`, reach the minimum-gap
variant by shifting Type I moments, and the root expansion also fits the
overlap families. The finite routes and closed forms run on integers: for
``p = a/b`` each coefficient family is ``Y_j / ((b - a)^j a^k)``, each moment
of order ``n`` an integer over ``((b - a) a^k)^n`` (the pgf route's over a
power of its own denominator), and the root and summation routes' floats
over ``1``: one tail converts them between kinds, shifts them, and builds
each moment once, a Fraction in exact mode, rounded once in float.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, repeat
from operator import mul

from .core import (TYPE1, IndexScheme, MomentKind, MomentSet, NumericFailure, PmfTable, RunParams,
                   Scalar, VariantSpec, convert_index, rational_pgf)
from .pmf import pmf_recurrence_pg
from .special import (_eulerian_row, _series_div, _stirling2_row, binom, falling,
                      homogeneous_horner)


class MomentRoute(Enum):
    RECURRENCE = "recurrence"
    PARTITION = "partition"
    PGF = "pgf"
    ROOT = "root"
    SUMMATION = "summation"


def _ratio(params: RunParams) -> tuple:
    """``(a, b, c)`` with ``p = a/b`` in lowest terms and ``c = b - a``."""
    a, b = params.p.as_integer_ratio()
    return a, b, b - a


def _scalar(params: RunParams, num: int, den: int) -> Scalar:
    """``num / den`` in the mode of ``params``: a canonical Fraction, or rounded once."""
    return Fraction(num, den) if params.exact else num / den


def _moment_set(params: RunParams, kind: MomentKind, scheme: IndexScheme, nums: list,
                d: int) -> MomentSet:
    """The moments ``nums[n] / d^n`` of orders ``1 .. len(nums) - 1``, each built once."""
    return MomentSet(kind, scheme, tuple(_scalar(params, num, d ** n)
                                         for n, num in enumerate(nums) if n))


# Each coefficient family is C_j = Y_j / (c^j a^k) for p = a/b and c = b - a,
# returned as [0, Y_1, .., Y_J]; a moment of order n is then N_n / (c a^k)^n.
# The factorial families' inner sums are taken times b^(k+j-1), the raw ones' times b^(k+j).

def _coeff_factorial_cut(params: RunParams, order_max: int) -> list:
    (a, b, c), k = _ratio(params), params.k
    ak, bk = a ** k, b ** k
    inner = [a ** (j - 1) * bk - ak * homogeneous_horner([binom(k, i) for i in range(j)], c, a)
             for j in range(1, order_max + 1)]
    return [0] + [math.factorial(j) * b * x - falling(k, j) * c ** j * ak
                  for j, x in enumerate(inner, start=1)]


def _coeff_factorial_full(params: RunParams, order_max: int) -> list:
    (a, b, c), k = _ratio(params), params.k
    inner = [b ** k * homogeneous_horner([(-1) ** i * binom(k + i - 1, i) for i in range(j)], c, a)
             - a ** (k + j - 1) for j in range(1, order_max + 1)]
    return [0] + [math.factorial(j) * b * x for j, x in enumerate(inner, start=1)]


def _raw_family(params: RunParams, order_max: int, cut: bool) -> list:
    """``Y_j`` of the raw families from ``E_m = b^m A_m(a/b)``, ``A_m`` the Eulerian polynomial."""
    (a, b, c), k = _ratio(params), params.k
    ak, bk, kc = a ** k, b ** k, k * c
    e = [1] + [b * homogeneous_horner(_eulerian_row(m), a, b) for m in range(1, order_max + 1)]
    if cut:
        return [0] + [bk * e[j] - ak * sum(binom(j, i) * kc ** i * e[j - i] for i in range(j + 1))
                      for j in range(1, order_max + 1)]
    return [0] + [bk * sum((-1) ** i * binom(j, i) * kc ** i * e[j - i] for i in range(j))
                  - ak * e[j] for j in range(1, order_max + 1)]


_coeff_raw_cut, _coeff_raw_full = partial(_raw_family, cut=True), partial(_raw_family, cut=False)
_FAMILIES = {(MomentKind.FACTORIAL, IndexScheme.CUT): _coeff_factorial_cut,
             (MomentKind.FACTORIAL, IndexScheme.FULL): _coeff_factorial_full,
             (MomentKind.RAW, IndexScheme.CUT): _coeff_raw_cut,
             (MomentKind.RAW, IndexScheme.FULL): _coeff_raw_full}


def _recurrence_numerators(params: RunParams, order_max: int) -> tuple:
    """Cut-scheme factorial moment numerators ``N_n`` over ``d^n``, and ``d = c a^k``: with
    ``Z_j = Y_j a^(k(j-1))``, ``N_n = sum_j C(n, j) (n + rj - j) Z_j N_(n-j) / n`` exactly."""
    (a, _, c), k, r = _ratio(params), params.k, params.r
    ys = _coeff_factorial_cut(params, min(order_max, k))
    z = [y * a ** (k * (j - 1)) for j, y in enumerate(ys)]
    nums = [1]
    for n in range(1, order_max + 1):
        nums.append(sum(binom(n, j) * (n + r * j - j) * z[j] * nums[n - j]
                        for j in range(1, min(n, k) + 1)) // n)
    return nums, c * a ** k


def _partitions(n: int, top: int) -> tuple:
    """The partitions of ``n`` into parts ``<= top``, each a tuple of ``(part, mult)``."""
    if n == 0 or top == 0:
        return ((),) if n == 0 else ()
    return tuple(((top, m),) + rest if m else rest for m in range(n // top, -1, -1)
                 for rest in _partitions(n - top * m, top - 1))


@lru_cache(maxsize=None)
def _partition_terms(n: int) -> tuple:
    """Each partition of ``n`` as ``(s, n! / prod((j!)^m_j m_j!), partition)``, ``s`` parts.
    Kept for every order asked: 271 entries up to order 12, 28,628 up to 30."""
    return tuple((sum(m for _, m in combo),
                  math.factorial(n) // math.prod(math.factorial(j) ** m * math.factorial(m)
                                                 for j, m in combo), combo)
                 for combo in _partitions(n, n))


def _partition_numerators(params: RunParams, order_max: int, family) -> tuple:
    """Numerators ``N_n`` over ``d^n`` of the partition sums of one family, and ``d = c a^k``.

    The moment ``n! sum falling(r+s-1, s) prod (C_j/j!)^m_j / m_j!`` runs over
    the partitions of ``n`` into ``s`` parts, up to the part ``n``, as the
    full families are nonzero beyond order ``k`` (the cut factorial family
    is not). ``N_n`` sums the integers
    ``falling(r+s-1, s) n!/prod((j!)^m_j m_j!) prod Y_j^m_j a^(k(n-s))``.
    """
    (a, _, c), r = _ratio(params), params.r
    ak, ys = a ** params.k, family(params, order_max)
    ypow = {(j, m): ys[j] ** m for j in range(1, order_max + 1)
            for m in range(1, order_max // j + 1)}
    nums = [1]
    for n in range(1, order_max + 1):
        scale = [falling(r + s - 1, s) * ak ** (n - s) for s in range(n + 1)]
        nums.append(sum(weight * scale[s] * math.prod(map(ypow.__getitem__, combo))
                        for s, weight, combo in _partition_terms(n)))
    return nums, c * ak


def mean(params: RunParams, scheme: IndexScheme = IndexScheme.FULL) -> Scalar:
    """Closed-form mean ``r (1 - p^k) / (q p^k) = r b (b^k - a^k) / d``, less ``r*k`` if cut."""
    (a, b, c), k, r = _ratio(params), params.k, params.r
    d = c * a ** k
    cut = scheme is IndexScheme.CUT
    return _scalar(params, r * b * (b ** k - a ** k) - (r * k * d if cut else 0), d)


def variance(params: RunParams) -> Scalar:
    """Closed-form variance ``r (1/w^2 - (2k+1)/w - p/q^2)``, over ``d^2`` as ``w = d/b^(k+1)``."""
    (a, b, c), k, r = _ratio(params), params.k, params.r
    d, bw = c * a ** k, b ** (k + 1)
    return _scalar(params, r * (bw * bw - (2 * k + 1) * bw * d - a ** (2 * k + 1) * b), d * d)


def central_moments(params: RunParams, order_max: int = 4) -> MomentSet:
    """Central moments up to order 4, from the raw coefficient families.

    The cut and full families give identical results here; the cut family is
    used, each ``t_j`` an integer over ``d^j``. Orders above 4 are out of scope
    for the closed forms; use ``moments_via_route(..., MomentKind.CENTRAL, ...)``.
    """
    if not 1 <= order_max <= 4:
        raise ValueError("closed-form central moments cover orders 1..4")
    (a, _, c), r, k = _ratio(params), params.r, params.k
    _, t1, t2, t3, t4 = (y * a ** (k * (j - 1)) for j, y in enumerate(_coeff_raw_cut(params, 4)))
    var = r * (t1 ** 2 + t2)
    m3 = r * (2 * t1 ** 3 + 3 * t1 * t2 + t3)
    m4 = 3 * var ** 2 + r * (6 * t1 ** 4 + 12 * t1 ** 2 * t2
                             + 3 * t2 ** 2 + 4 * t1 * t3 + t4)
    return _moment_set(params, MomentKind.CENTRAL, IndexScheme.FULL,
                       [1, 0, var, m3, m4][:order_max + 1], c * a ** k)


def shape_from_central(cm: MomentSet) -> tuple:
    """Skewness and excess kurtosis from central moments of orders 2..4, as floats."""
    var = float(cm.value(2))
    sigma = math.sqrt(var)
    gamma = float(cm.value(3)) / sigma ** 3
    excess = (float(cm.value(4)) - 3 * var ** 2) / var ** 2
    return gamma, excess


def _raw_numerators(nums: list, d) -> list:
    """Raw moment numerators over ``d^n`` from factorial ones: ``sum_j S(n, j) N_j d^(n-j)``."""
    dpow = [d ** i for i in range(len(nums))]
    return [1] + [sum(_stirling2_row(n)[j] * nums[j] * dpow[n - j] for j in range(1, n + 1))
                  for n in range(1, len(nums))]


def _central_numerators(nums: list) -> list:
    """Central numerators from raw ones, same ``d^n``: ``sum_i C(n, i) N_i (-N_1)^(n-i)``."""
    negpow = [(-nums[1]) ** i for i in range(len(nums))]
    return [1] + [sum(binom(n, i) * nums[i] * negpow[n - i] for i in range(n + 1))
                  for n in range(1, len(nums))]


def _from_factorial(nums: list, d, kind: MomentKind) -> list:
    if kind is MomentKind.FACTORIAL:
        return nums
    raw = _raw_numerators(nums, d)
    return raw if kind is MomentKind.RAW else _central_numerators(raw)


def _shifted_numerators(nums: list, d, a: int, factorial: bool) -> list:
    """Numerators over ``d^n`` of the moments of ``X + a``: factorial ones are
    ``sum_i C(n, i) N_(n-i) (a)_(i) d^i``, raw ones the same with ``a^i``. The shift ``r*k``
    takes cut-scheme moments to full, ``(r-1) g`` type1 ones to the minimum gap."""
    power = falling if factorial else pow
    dpow = [d ** i for i in range(len(nums))]
    return [1] + [sum(binom(n, i) * nums[n - i] * power(a, i) * dpow[i] for i in range(n + 1))
                  for n in range(1, len(nums))]


def moments_from_table(table: PmfTable, order_max: int, kind: MomentKind,
                       scheme: IndexScheme | None = None) -> MomentSet:
    """Moments by direct summation over a pmf table.

    The table must carry essentially all of the mass for the result to mean
    anything; see :func:`summation_window`.
    """
    scheme = scheme or table.scheme
    n_min = convert_index(table.n_min, table.scheme, scheme, table.params)
    ns, vs = range(n_min, n_min + len(table.values)), table.values
    if kind is MomentKind.CENTRAL:
        mu = sum(n * v for n, v in zip(ns, vs))
        vals = [sum((n - mu) ** j * v for n, v in zip(ns, vs))
                for j in range(1, order_max + 1)]
    else:
        # each order's exact integer weights n^j or (n)_j, made one index at a
        # time; math.perm refuses the n < 0 that a full-scheme table read in
        # the cut scheme starts with, so those few take special.falling
        below = ns[:max(0, -n_min)]
        rest = ns[len(below):]

        def weights(j: int):
            if j == 1:  # n^1 = (n)_1 = n, with no call per index
                return ns
            if kind is MomentKind.RAW:
                return map(pow, ns, repeat(j))
            return chain(map(falling, below, repeat(j)), map(math.perm, rest, repeat(j)))

        vals = [sum(map(mul, weights(j), vs)) for j in range(1, order_max + 1)]
    return MomentSet(kind, scheme, tuple(vals))


_WINDOW_SIGMAS = 30.0  # standard deviations past the mean that a summation window spans
_WINDOW_DOUBLINGS = 40  # times the summation route doubles its window before it gives up


class SummationWindowNotClosed(NumericFailure):
    """The summation route's window doubled to its cap without bounding the moment tail."""


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
    on the order-weighted tail falls below 1e-12 of the leading moment, or of
    ``sd^n`` if larger for central moments, which can be zero.
    Always runs in double precision: the window is far too wide for exact
    arithmetic to pay its way, and the truncation already caps the accuracy.
    """
    fp = params.to_float()
    n_max = summation_window(fp)
    floor = math.sqrt(variance(fp)) ** order_max if kind is MomentKind.CENTRAL else 0.0
    for _ in range(_WINDOW_DOUBLINGS):
        table = pmf_recurrence_pg(fp, n_max)
        ms = moments_from_table(table, order_max, kind, scheme)
        last, prev = table.value(n_max), table.value(n_max - 1)
        if last == 0.0:
            return ms
        rho = (last / prev) * (n_max / (n_max - 1)) ** order_max if prev else 1.0
        if rho < 1.0:
            tail = n_max ** order_max * last * rho / (1.0 - rho)
            if tail <= 1e-12 * max(abs(ms.value(order_max)), floor):
                return ms
        n_max *= 2
    raise SummationWindowNotClosed(f"the moment tail stayed open after {_WINDOW_DOUBLINGS} "
                                   "window doublings; use the pgf or partition route")


def _taylor_shift(poly: list, length: int) -> list:
    """The first ``length`` coefficients of ``poly(1 + t)``: the remainders of
    repeated synthetic division by ``s - 1``, running sums from the top."""
    out, desc = [], poly[::-1]
    for _ in range(length):
        desc = list(accumulate(desc))
        out.append(desc.pop() if desc else 0)
    return out


def _pgf_numerators(params: RunParams, order_max: int, variant: VariantSpec) -> tuple:
    """Full-scheme factorial moment numerators of any family from its rational pgf, and ``d``.

    The factorial moment of order ``j`` is ``j! [t^j] P(1 + t)``. Both
    integer polynomials of :func:`~runsdist.core.rational_pgf` are
    Taylor-shifted to ``s = 1 + t`` and divided as power series to order
    ``order_max``: a finite expansion with no tail. With ``L = den(1)``, never
    zero (``((b - a) a^k)^r`` for type1), ``t = L u`` makes the shifted
    denominator over ``L`` monic, so ``H_j = L^(j+1) [t^j] num/den`` are
    integers; as ``scale num(1) = L``, the moment is ``j! H_j n_0^(j-1) / d^j``
    for ``n_0 = num(1)`` and ``d = n_0 L``, always at the exact value of ``p``.
    """
    _, shift, num, den = rational_pgf(params.to_exact(), variant)
    length = order_max + 1
    num_t = _taylor_shift([0] * shift + num, length)
    den_t = _taylor_shift(den, length)
    lead, n0 = den_t[0], num_t[0]
    h = _series_div([c * lead ** i for i, c in enumerate(num_t)],
                    [1] + [c * lead ** i for i, c in enumerate(den_t[1:])], length)
    return ([1] + [math.factorial(j) * h[j] * n0 ** (j - 1) for j in range(1, length)],
            n0 * lead)


def moments_via_route(params: RunParams, route: MomentRoute, kind: MomentKind,
                      scheme: IndexScheme, order_max: int,
                      variant: VariantSpec = TYPE1) -> MomentSet:
    """Uniform front end over the moment routes and families, with kind/scheme conversion.

    The ``pgf`` route covers every family. The other routes compute Type I
    moments and reach the gap variant by shifting them; the ``root`` route
    also fits the overlap families, and the rest reject overlap and Type II
    with ``ValueError``. Every route yields numerators over powers of one
    ``d`` (``root`` and ``summation`` their floats over ``d = 1``) to one tail
    that converts factorial to raw to central moments, shifts them, and builds
    each value once. The generating-function and root routes produce
    full-scheme moments and cannot be converted to the cut scheme (there is
    no valid inverse shift), so asking them for cut-scheme factorial or raw
    moments is an error, as is the cut scheme for a gap. Central moments do
    not depend on the scheme, so every route labels them with the one asked for.
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

    if route is not MomentRoute.PGF and (
            variant.type2 or (variant.is_overlap and route is not MomentRoute.ROOT)):
        raise ValueError(f"the {route.value} route does not cover {variant.describe()}")
    # the pgf route's gap is in its pgf; the other routes shift Type I moments by (r-1) g
    shift = ((params.r - 1) * variant.gap
             if variant.is_gap and not central and route is not MomentRoute.PGF else 0)
    if route is MomentRoute.PGF:
        nums, d = _pgf_numerators(params, order_max, variant)
        nums = _from_factorial(nums, d, kind)
    elif route is MomentRoute.ROOT:
        from . import roots

        params = params.to_float()  # the root and summation routes yield floats, d = 1
        coeffs = roots.recover_coefficients(roots.solve_roots(params),
                                            ell=max(variant.overlap, 0))
        fact = [1, *roots.factorial_moments_root(coeffs, order_max).values]
        nums, d = _from_factorial(fact, 1, kind), 1
    elif route is MomentRoute.SUMMATION:
        params, d = params.to_float(), 1
        nums = [1, *moments_by_summation(params, order_max, kind, scheme).values]
    elif route is MomentRoute.RECURRENCE:
        nums, d = _recurrence_numerators(params, order_max)
        nums = _from_factorial(nums, d, kind)
        shift += params.r * params.k if scheme is IndexScheme.FULL and not central else 0
    elif route is MomentRoute.PARTITION:
        family = (MomentKind.RAW, IndexScheme.CUT) if central else (kind, scheme)
        nums, d = _partition_numerators(params, order_max, _FAMILIES[family])
        nums = _central_numerators(nums) if central else nums
    else:
        raise ValueError(f"unknown route {route!r}")
    if shift:  # the gap and the cut-to-full step each shift the waiting time
        nums = _shifted_numerators(nums, d, shift, kind is MomentKind.FACTORIAL)
    return _moment_set(params, kind, scheme, nums, d)
