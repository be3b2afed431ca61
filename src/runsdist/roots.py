"""The non-combinatorial engine: auxiliary-polynomial roots and what they buy.

The order-k recurrence behind the waiting-time pmf has a characteristic
(auxiliary) polynomial whose k roots are distinct and lie inside the unit
circle. Writing the pmf as a sum of root powers gives an O(k*r) per-index
evaluator whose cost does not grow with the index, closed factorial moments
for runs overlapping by any ``0 <= ell <= k-1`` (the ``ell = k-1`` case is
the Type III family), and, through an index shift, the minimum-gap variant.

Root finding is numeric (companion-matrix eigenvalues polished by Newton),
and the expansion coefficients are recovered by a linear solve against a
reference pmf produced by power-series expansion of the generating function,
so this module works in double precision; the series expansion itself is also
available in exact mode and doubles as an oracle for the overlap variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (TYPE1, IndexScheme, MomentKind, MomentSet, PmfTable, RunParams,
                   Scalar, VariantSpec, shift_moments)
from .moments import (factorial_moments_partition, raw_moments_partition)
from .pmf import TermCounter, support_min
from .special import binom, hyp2f1


class RootToleranceExceeded(RuntimeError):
    """A root invariant failed after Newton refinement."""


class IllConditionedSystem(RuntimeError):
    """The coefficient-recovery system is numerically degenerate."""


class ValidationFailed(RuntimeError):
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


def _den_poly(order: int, p, q) -> list:
    """Coefficients of ``1 - s + q p^order s^(order+1)``; order 0 gives ``1 - p s``."""
    coeffs = [0] * (order + 2)
    coeffs[0] = 1
    coeffs[1] = coeffs[1] - 1
    coeffs[order + 1] = coeffs[order + 1] + q * p ** order
    return coeffs


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_pow(base: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


def _series_div(num: list, den: list, length: int) -> list:
    """Power-series quotient to the given length; ``den[0]`` must be 1."""
    out = []
    for n in range(length):
        acc = num[n] if n < len(num) else 0
        for u in range(1, min(n, len(den) - 1) + 1):
            if den[u]:
                acc -= den[u] * out[n - u]
        out.append(acc)
    return out


def pgf_series(params: RunParams, n_terms: int,
               variant: VariantSpec = TYPE1) -> list:
    """Coefficients of the variant generating function up to ``s^(n_terms-1)``.

    The overlap-family generating function is the ratio of the single-run pgf
    raised to r and the order-``ell`` pgf raised to r-1, which reduces to a
    single polynomial division here; a gap enters as a pure index shift.
    Exact in rational mode.
    """
    variant.check_against(params)
    if variant.type2:
        raise ValueError("the Type II family has no product-form pgf here")
    k, r = params.k, params.r
    if params.exact:
        p = params.exact_p()
    else:
        p = float(params.p)
    q = 1 - p
    ell = max(variant.overlap, 0)
    shift = r * k - (r - 1) * ell + (r - 1) * variant.gap
    num = _poly_mul([1, -p], _poly_pow(_den_poly(ell, p, q), r - 1))
    den = _poly_pow(_den_poly(k, p, q), r)
    body_len = max(n_terms - shift, 0)
    body = _series_div(num, den, body_len)
    scale = p ** (r * k - (r - 1) * ell)
    out = [0] * min(shift, n_terms)
    out.extend(scale * c for c in body)
    return out


def series_pmf(params: RunParams, n_max: int,
               variant: VariantSpec = TYPE1) -> PmfTable:
    """Pmf table over ``[1, n_max]`` from the generating-function series."""
    coeffs = pgf_series(params, n_max + 1, variant)
    zero = Fraction(0) if params.exact else 0.0
    vals = [coeffs[n] if n < len(coeffs) else zero for n in range(1, n_max + 1)]
    if not params.exact:
        # division noise can leave values like -1e-18 below the support
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


def recover_coefficients(system: RootSystem, ell: int = 0,
                         reference: PmfTable | None = None,
                         cond_limit: float = 1e12) -> RootCoefficients:
    """Recover the root-expansion coefficients by a linear solve.

    Fits ``f(n) = sum_{j,m} C(n-1, m-1) a_jm lambda_j^(n-m)`` on the first
    ``k*r`` support points of a reference pmf and validates on the next
    ``k*r``. The solve uses unknowns rescaled by root powers so the matrix
    stays well-conditioned away from the support start.
    """
    params = system.params
    k, r = params.k, params.r
    if ell < 0 or ell > k - 1:
        raise ValueError("overlap must lie in [0, k-1]")
    variant = VariantSpec(overlap=ell) if ell else TYPE1
    n0 = support_min(params, variant)
    need = n0 + 2 * k * r
    if reference is None:
        reference = series_pmf(params.to_float(), need, variant)
    if reference.n_min > n0 or reference.n_max < need - 1:
        raise ValueError(f"reference pmf must cover [{n0}, {need - 1}]")

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
    sv = np.linalg.svd(mat, compute_uv=False)
    cond = float("inf") if sv[-1] == 0 else float(sv[0] / sv[-1])
    scaled = np.linalg.lstsq(mat, rhs, rcond=None)[0] / colnorm
    a = [[0j] * r for _ in range(k)]
    for ci, (j, m) in enumerate(cols):
        a[j][m - 1] = complex(scaled[ci]) * lam[j] ** (m - n0)

    coeffs = RootCoefficients(system=system, ell=ell,
                              a=tuple(tuple(row) for row in a),
                              recovery_residual=0.0, n_support=n0)
    worst = 0.0
    for n in range(n0, n0 + 2 * kr):
        z = _root_sum(coeffs, n)
        worst = max(worst, abs(z.imag), abs(z.real - float(reference.value(n))))
    if worst > 1e-10:
        if cond > cond_limit:
            raise IllConditionedSystem(
                f"recovery matrix condition {cond:.3e}; residual {worst:.3e}")
        raise ValidationFailed(f"held-out residual {worst:.3e} > 1e-10")
    return RootCoefficients(system=system, ell=ell, a=coeffs.a,
                            recovery_residual=worst, n_support=n0)


def _root_sum(coeffs: RootCoefficients, n: int) -> complex:
    lam = coeffs.system.roots
    acc = 0j
    for j, row in enumerate(coeffs.a):
        for m, a_jm in enumerate(row, start=1):
            acc += binom(n - 1, m - 1) * a_jm * lam[j] ** (n - m)
    return acc


def pmf_root_based(coeffs: RootCoefficients, n: int,
                   counter: TermCounter | None = None) -> float:
    """Pmf at one index as a sum of root powers: exactly ``k*r`` outer terms."""
    if n < 1:
        return 0.0
    if counter is not None:
        counter.add(len(coeffs.a) * len(coeffs.a[0]))
    z = _root_sum(coeffs, n)
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


def gap_pmf(params: RunParams, g: int, n: int, base: PmfTable) -> Scalar:
    """Minimum-gap pmf via the index shift ``f_gap(n) = f_0(n - (r-1) g)``."""
    if g < 1:
        raise ValueError("gap must be a positive integer")
    if base.scheme is not IndexScheme.FULL or not base.variant.is_type1:
        raise ValueError("base table must be the full-scheme nonoverlapping pmf")
    m = n - (params.r - 1) * g
    if m < support_min(params):
        return Fraction(0) if params.exact else 0.0
    return base.value(m)


def gap_moments(params: RunParams, g: int, order_max: int, kind: MomentKind,
                base: MomentSet | None = None) -> MomentSet:
    """Moments of the minimum-gap variant by shifting full-scheme moments.

    Factorial moments shift through falling factorials of ``(r-1) g``, raw
    moments through its plain powers; central moments are untouched by the
    shift and can be taken straight from the nonoverlapping family.
    """
    if g < 1:
        raise ValueError("gap must be a positive integer")
    if kind is MomentKind.CENTRAL:
        raise ValueError("gap central moments equal the nonoverlapping ones")
    if base is None:
        base = (factorial_moments_partition(params, order_max, IndexScheme.FULL)
                if kind is MomentKind.FACTORIAL
                else raw_moments_partition(params, order_max, IndexScheme.FULL))
    if base.kind is not kind or base.scheme is not IndexScheme.FULL:
        raise ValueError("base moments must be full-scheme of the requested kind")
    if base.order_max < order_max:
        raise ValueError("base moments cover too few orders")
    base = MomentSet(kind, IndexScheme.FULL, base.values[:order_max])
    return shift_moments(base, (params.r - 1) * g)
