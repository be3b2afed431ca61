"""The non-combinatorial engine: auxiliary-polynomial roots and what they buy.

The order-k recurrence behind the waiting-time pmf has a characteristic
(auxiliary) polynomial whose k roots are distinct and lie inside the unit
circle. Writing the pmf as a sum of root powers gives an O(k*r) per-index
evaluator whose cost does not grow with the index, closed factorial moments
for runs overlapping by any ``0 <= ell <= k-1`` (the ``ell = k-1`` case is
the Type III family), and, through an index shift, the minimum-gap variant.

Root finding is numeric (companion-matrix eigenvalues polished by Newton),
and the expansion coefficients are recovered by a linear solve against a
reference pmf produced by power-series expansion of the rational generating
function (:func:`runsdist.core.rational_pgf`, which the exact moment route
expands around ``s = 1`` instead), so this module works in double precision;
the series expansion itself is also available in exact mode, where it runs
on integers, and doubles as an oracle for the overlap, gap and Type II
families.
The two numeric steps, :func:`solve_roots` and :func:`recover_coefficients`,
are the only users of numpy here and import it when they run, so the series
expansion, :func:`gap_moments` and everything that imports this module stay
free of it. At load time this module imports only :mod:`runsdist.core` and
:mod:`runsdist.special`; :func:`gap_moments` reaches the moment routes of
:mod:`runsdist.moments` when it runs, and :mod:`runsdist.pmf` and
:mod:`runsdist.moments` reach this module the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (TYPE1, IndexScheme, MomentKind, MomentSet, NumericFailure, PmfTable,
                   PowerRatio, RunParams, TermCounter, VariantSpec, rational_pgf, support_min)
from .special import _series_div, binom, hyp2f1


class RootToleranceExceeded(NumericFailure):
    """A root invariant failed after Newton refinement."""


class IllConditionedSystem(NumericFailure):
    """The coefficient-recovery system is numerically degenerate."""


# above this condition number a failed validation is blamed on the system
_COND_LIMIT = 1e12


class ValidationFailed(NumericFailure):
    """Recovered coefficients do not reproduce the reference pmf."""


def aux_polynomial(params: RunParams) -> tuple:
    """Monic coefficients of ``z^k - q z^(k-1) - q p z^(k-2) - ... - q p^(k-1)``."""
    k = params.k
    p, q = float(params.p), float(params.q)
    return (1.0,) + tuple(-q * p ** j for j in range(k))


def _poly_eval(coeffs, z):
    acc = 0
    for c in coeffs:
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class RootSystem:
    """The k distinct roots of the auxiliary polynomial, Newton-polished."""

    params: RunParams
    roots: tuple
    residual: float

    def identity_residual(self) -> float:
        """Max deviation of ``lambda^k (1 - lambda)`` from ``p^k q``."""
        k = self.params.k
        target = float(self.params.p) ** k * float(self.params.q)
        return max(abs(lam ** k * (1 - lam) - target) for lam in self.roots)


def solve_roots(params: RunParams) -> RootSystem:
    """Find all roots of the auxiliary polynomial and check their invariants.

    Companion-matrix eigenvalues give the starting points; a few Newton steps
    restore full double-precision residuals. Raises
    :class:`RootToleranceExceeded` if distinctness, ``|lambda| < 1``, the
    polynomial residual, or the ``lambda^k (1 - lambda) = p^k q`` identity
    fail afterwards.
    """
    import numpy as np

    coeffs = aux_polynomial(params)
    k = params.k
    if k == 1:
        roots = [complex(float(params.q))]
    else:
        roots = list(np.roots(np.array(coeffs, dtype=float)))
    dcoeffs = tuple(c * (k - i) for i, c in enumerate(coeffs[:-1]))
    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(50):
            f = _poly_eval(coeffs, z)
            if abs(f) < 1e-16:
                break
            df = _poly_eval(dcoeffs, z)
            if df == 0:
                break
            step = f / df
            z -= step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        polished.append(z)
    polished.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    residual = max(abs(_poly_eval(coeffs, z)) for z in polished)
    system = RootSystem(params=params, roots=tuple(polished), residual=residual)
    for i in range(k):
        for j in range(i + 1, k):
            if abs(polished[i] - polished[j]) <= 1e-8:
                raise RootToleranceExceeded("roots are not numerically distinct")
    if any(abs(z) >= 1 for z in polished):
        raise RootToleranceExceeded("a root has magnitude >= 1")
    if residual > 1e-13:
        raise RootToleranceExceeded(f"polynomial residual {residual:.3e} > 1e-13")
    if system.identity_residual() > 1e-12:
        raise RootToleranceExceeded("root identity lambda^k(1-lambda) = p^k q failed")
    return system


def pgf_series(params: RunParams, n_terms: int,
               variant: VariantSpec = TYPE1) -> list:
    """Coefficients of the variant generating function up to ``s^(n_terms-1)``.

    Expands :func:`~runsdist.core.rational_pgf` around ``s = 0``: one
    power-series division, with the monomial factor applied afterwards as a
    scale and an index shift. Covers every family; exact in rational mode.

    For ``p = a/b`` the substitution ``s = b t`` makes ``den(b t) / den[0]``
    a monic integer polynomial, so exact mode divides on integers and builds
    each coefficient once, as ``scale N_i / (den[0] b^i)`` from the integer
    series ``N_i`` of ``num(b t)`` over it.
    """
    scale, shift, num, den = rational_pgf(params, variant)
    length = max(n_terms - shift, 0)
    out = [0] * min(shift, n_terms)
    if not params.exact:
        out.extend(scale * c for c in _series_div(num, den, length))
        return out
    b, lead = params.p.as_integer_ratio()[1], den[0]
    num = [c * b ** i for i, c in enumerate(num)]
    den = [c * b ** i // lead for i, c in enumerate(den)]  # exact: b^((k+1)r) | den[i] b^i
    ratio = PowerRatio(params)
    e = (params.k + 1) * params.r  # lead = b^e
    out.extend(ratio(scale * c, e + i) for i, c in enumerate(_series_div(num, den, length)))
    return out


def series_pmf(params: RunParams, n_max: int,
               variant: VariantSpec = TYPE1) -> PmfTable:
    """Pmf table over ``[1, n_max]`` from the generating-function series."""
    coeffs = pgf_series(params, n_max + 1, variant)
    zero = Fraction(0) if params.exact else 0.0
    vals = [coeffs[n] if n < len(coeffs) else zero for n in range(1, n_max + 1)]
    if not params.exact:
        # pgf_series writes int zeros below the support, and float division
        # can leave negative values at and after its start; both read 0.0
        vals = [v if v > 0.0 else 0.0 for v in vals]
    return PmfTable(params, IndexScheme.FULL, variant, 1, tuple(vals))


@dataclass(frozen=True)
class RootCoefficients:
    """Expansion coefficients ``a[j][m]`` of the pmf over root powers."""

    system: RootSystem
    ell: int
    a: tuple
    recovery_residual: float
    n_support: int

    @property
    def params(self) -> RunParams:
        return self.system.params


def recover_coefficients(system: RootSystem, ell: int = 0) -> RootCoefficients:
    """Recover the root-expansion coefficients by a linear solve.

    Fits ``f(n) = sum_{j,m} C(n-1, m-1) a_jm lambda_j^(n-m)`` on the first
    ``k*r`` support points of the float :func:`series_pmf` and validates on
    the next ``k*r``. The solve uses unknowns rescaled by root powers so the
    matrix stays well-conditioned away from the support start.
    """
    import numpy as np

    params = system.params
    k, r = params.k, params.r
    if ell < 0 or ell > k - 1:
        raise ValueError("overlap must lie in [0, k-1]")
    variant = VariantSpec(overlap=ell) if ell else TYPE1
    n0 = support_min(params, variant)
    try:
        reference = series_pmf(params.to_float(), n0 + 2 * k * r, variant)
    except ValueError as err:  # the PmfTable check: the float series is wrong, not the request
        raise ValidationFailed(f"reference series: {err}") from err

    lam = system.roots
    cols = [(j, m) for j in range(k) for m in range(1, r + 1)]
    kr = k * r
    mat = np.empty((kr, kr), dtype=complex)
    rhs = np.empty(kr, dtype=complex)
    for row, n in enumerate(range(n0, n0 + kr)):
        rhs[row] = float(reference.value(n))
        for ci, (j, m) in enumerate(cols):
            mat[row, ci] = binom(n - 1, m - 1) * lam[j] ** (n - n0)
    # Columns for small-magnitude roots decay to nothing across the fitting
    # window, so the system can be numerically rank-deficient even though the
    # roots are distinct: those coefficients contribute below roundoff and
    # are unidentifiable from pmf values. Equilibrate, solve by truncated
    # least squares, and let the held-out validation be the gate.
    colnorm = np.linalg.norm(mat, axis=0)
    colnorm[colnorm == 0] = 1.0
    mat /= colnorm
    solution, _, _, sv = np.linalg.lstsq(mat, rhs, rcond=None)
    scaled = solution / colnorm
    a = [[0j] * r for _ in range(k)]
    for ci, (j, m) in enumerate(cols):
        a[j][m - 1] = complex(scaled[ci]) * lam[j] ** (m - n0)
    a = tuple(tuple(row) for row in a)

    worst = 0.0
    for n in range(n0, n0 + 2 * kr):
        z = _root_sum(lam, a, n)
        worst = max(worst, abs(z.imag), abs(z.real - float(reference.value(n))))
    if worst > 1e-10:
        # numpy's matrix_rank tolerance: a smallest singular value below it is
        # roundoff, and its ratio to the largest measures nothing
        if sv[-1] <= sv[0] * max(mat.shape) * np.finfo(float).eps:
            raise IllConditionedSystem(
                f"recovery matrix singular to working precision; residual {worst:.3e}")
        cond = float(sv[0] / sv[-1])
        if cond > _COND_LIMIT:
            raise IllConditionedSystem(
                f"recovery matrix condition {cond:.3e}; residual {worst:.3e}")
        raise ValidationFailed(f"held-out residual {worst:.3e} > 1e-10")
    return RootCoefficients(system=system, ell=ell, a=a, recovery_residual=worst, n_support=n0)


def _root_sum(lam: tuple, a: tuple, n: int) -> complex:
    acc = 0j
    for j, row in enumerate(a):
        for m, a_jm in enumerate(row, start=1):
            acc += binom(n - 1, m - 1) * a_jm * lam[j] ** (n - m)
    return acc


def pmf_root_based(coeffs: RootCoefficients, n: int,
                   counter: TermCounter | None = None) -> float:
    """Pmf at one index as a sum of root powers: exactly ``k*r`` outer terms."""
    if n < coeffs.n_support:  # the root sum is rounding noise there
        return 0.0
    if counter is not None:
        counter.add(len(coeffs.a) * len(coeffs.a[0]))
    z = _root_sum(coeffs.system.roots, coeffs.a, n)
    if abs(z.imag) > 1e-8:
        raise ValidationFailed(f"imaginary residue {z.imag:.3e} at n={n}")
    return z.real if z.real > 0.0 else 0.0


def factorial_moments_root(coeffs: RootCoefficients, order_max: int) -> MomentSet:
    """Full-scheme factorial moments from the root expansion.

    Each order costs ``k*r`` terms plus one terminating hypergeometric
    evaluation at the inverse root; the work does not depend on any pmf
    range. Valid for every overlap the coefficients were recovered for.
    """
    if order_max < 1:
        raise ValueError("order_max must be >= 1")
    params = coeffs.params
    k = params.k
    p, q = float(params.p), float(params.q)
    w = q * p ** k
    lam = coeffs.system.roots
    vals = []
    for i in range(1, order_max + 1):
        acc = 0j
        for j, row in enumerate(coeffs.a):
            for m, a_jm in enumerate(row, start=1):
                acc += (a_jm * m * lam[j] ** ((i + m) * k + i - 1) / w ** m
                        * hyp2f1(1 - m, 1 - i, 2, 1 / lam[j]))
        val = math.factorial(i) / w ** i * acc
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise ValidationFailed(f"imaginary residue in moment order {i}")
        vals.append(val.real)
    return MomentSet(MomentKind.FACTORIAL, IndexScheme.FULL, tuple(vals))


def gap_moments(params: RunParams, g: int, order_max: int, kind: MomentKind) -> MomentSet:
    """Factorial or raw moments of the minimum-gap variant, by the partition route.

    The route shifts full-scheme moments by ``(r-1) g``; central moments are
    untouched by the shift and can be taken straight from the nonoverlapping
    family.
    """
    from .moments import MomentRoute, moments_via_route  # loading roots never loads moments

    variant = VariantSpec.with_gap(g)
    if kind is MomentKind.CENTRAL:
        raise ValueError("gap central moments equal the nonoverlapping ones")
    return moments_via_route(params, MomentRoute.PARTITION, kind, IndexScheme.FULL,
                             order_max, variant)
