"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction

import pytest

from runsdist.core import IndexScheme, MomentKind, RunParams, TYPE1, VariantSpec
from runsdist.moments import (MomentRoute, central_moments, mean, moments_by_summation,
                              moments_from_table, moments_via_route, shape_from_central,
                              variance)
from runsdist.oracle import (CountingMode, CountingSemantics, brute_force_pmf,
                             dp_waiting_time_pmf, monte_carlo)
from runsdist.pmf import (MuselliForm, PmfEngine, TermCounter, counts_muselli,
                          pmf_muselli, pmf_nested_sum, pmf_table)
from runsdist.roots import (factorial_moments_root, gap_moments, pmf_root_based,
                            recover_coefficients, series_pmf, solve_roots)

F, C = IndexScheme.FULL, IndexScheme.CUT
FLOAT_PS = (0.1, 0.25, 0.5, 0.75, 0.9)
EXACT_PS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10))
KS = (1, 2, 3, 4, 5)
RS = (1, 2, 3, 4)

EXACT_ENGINES = (PmfEngine.RECURRENCE_PG, PmfEngine.RECURRENCE_CH,
                 PmfEngine.FULLSUM_CH, PmfEngine.NESTED_SUM,
                 PmfEngine.HYP_SUM, PmfEngine.PGF_EXPANSION)
ALL_TYPE1_ENGINES = EXACT_ENGINES + (PmfEngine.ROOT_BASED,)


def _ok(num, text):
    print(f"\ncriterion {num:2d} PASS: {text}")


def test_01_engine_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for pv in FLOAT_PS:
        for k in KS:
            for r in RS:
                params = RunParams(k, r, pv)
                rk = r * k
                cols = [[float(v) for v in
                         pmf_table(params, e, rk, rk + 80).values]
                        for e in ALL_TYPE1_ENGINES]
                for i in range(81):
                    vals = [c[i] for c in cols]
                    worst = max(worst, max(vals) - min(vals))
    assert worst <= 1e-11, f"float engines disagree by {worst:.3e}"

    for pv in EXACT_PS:
        for k in KS:
            for r in RS:
                params = RunParams(k, r, pv)
                rk = r * k
                tabs = [pmf_table(params, e, rk, rk + 80).values
                        for e in EXACT_ENGINES]
                assert all(t == tabs[0] for t in tabs[1:]), (pv, k, r)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _ok(1, f"7 engines within {worst:.2e} <= 1e-11 (float) and exactly equal "
           f"(rational), n <= rk+80, {elapsed:.1f}s <= 60s")


def test_02_oracle_equivalence():
    sem1 = CountingSemantics(CountingMode.NON_OVERLAPPING)
    sem2 = CountingSemantics(CountingMode.FAILURE_SEPARATED)
    for pv in EXACT_PS:
        for k in KS:
            for r in RS:
                params = RunParams(k, r, pv)
                dp = dp_waiting_time_pmf(params, sem1, 25)
                for e in EXACT_ENGINES:
                    table = pmf_table(params, e, 1, 25)
                    assert table.values == dp.values, (pv, k, r, e)
                dp2 = dp_waiting_time_pmf(params, sem2, 25)
                for form in MuselliForm:
                    got = tuple(pmf_muselli(params, n, form) for n in range(1, 26))
                    assert got == dp2.values, (pv, k, r, form)
                # every engine reaches the gap variants by an exact index shift
                for g in (1, 2):
                    semg = CountingSemantics(CountingMode.GAP, gap=g)
                    dpg = dp_waiting_time_pmf(params, semg, 25)
                    gap = VariantSpec.with_gap(g)
                    for e in EXACT_ENGINES:
                        got = pmf_table(params, e, 1, 25, variant=gap)
                        assert got.values == dpg.values, (pv, k, r, g, e)

    # overlapping families: the series pmf is the exact engine, the
    # root-based engine is numeric and held to its own 1e-10 contract
    for pv in EXACT_PS:
        for k, ells in ((2, (1,)), (3, (1, 2)), (4, (3,)), (5, (4,))):
            for r in RS:
                params = RunParams(k, r, pv)
                for ell in ells:
                    semo = CountingSemantics(CountingMode.OVERLAP, overlap=ell)
                    dpo = dp_waiting_time_pmf(params, semo, 25)
                    sp = series_pmf(params, 25, VariantSpec(overlap=ell))
                    assert sp.values == dpo.values, (pv, k, r, ell)
    for pv in (0.25, 0.5, 0.75):
        for k, ell in ((2, 1), (3, 1), (3, 2)):
            for r in (1, 2, 3):
                params = RunParams(k, r, pv)
                semo = CountingSemantics(CountingMode.OVERLAP, overlap=ell)
                dpo = dp_waiting_time_pmf(params, semo, 25)
                coeffs = recover_coefficients(solve_roots(params), ell=ell)
                worst = max(abs(pmf_root_based(coeffs, n) - float(dpo.value(n)))
                            for n in range(1, 26))
                assert worst <= 1e-10, (pv, k, r, ell, worst)

    # the 2^n enumeration validates the DP itself
    for sem in (sem1, sem2):
        params = RunParams(2, 2, Fraction(1, 2))
        assert brute_force_pmf(params, sem, 16).values == \
            dp_waiting_time_pmf(params, sem, 16).values
    all_sems = (sem1, sem2, CountingSemantics(CountingMode.OVERLAP, overlap=1),
                CountingSemantics(CountingMode.GAP, gap=1),
                CountingSemantics(CountingMode.GAP, gap=2))
    for pv in (Fraction(1, 4), Fraction(1, 2)):
        for k, r in ((1, 2), (2, 1), (2, 2), (3, 1)):
            params = RunParams(k, r, pv)
            for sem in all_sems:
                if sem.overlap > k - 1:  # no such variant: both oracles refuse it
                    for oracle in (brute_force_pmf, dp_waiting_time_pmf):
                        with pytest.raises(ValueError):
                            oracle(params, sem, 12)
                    continue
                assert brute_force_pmf(params, sem, 12).values == \
                    dp_waiting_time_pmf(params, sem, 12).values
    _ok(2, "DP oracle == engines exactly (n <= 25; Types I, II, III, "
           "overlap, gap), root engine within 1e-10, brute force == DP")


def test_03_closed_form_mean_variance():
    grid = [(k, r, pv) for k in (1, 2, 3, 4) for r in (1, 3)
            for pv in (0.25, 0.5, 0.75)]
    grid += [(1, 2, 0.1), (2, 2, 0.1)]
    for k, r, pv in grid:
        params = RunParams(k, r, pv)
        ms = moments_by_summation(params, 2, MomentKind.RAW, F)
        mu, var = mean(params), variance(params)
        assert abs(ms.value(1) - mu) <= 1e-8 * mu, (k, r, pv)
        var_sum = ms.value(2) - ms.value(1) ** 2
        assert abs(var_sum - var) <= 1e-8 * var, (k, r, pv)
    desk = RunParams(2, 1, Fraction(1, 2))
    assert mean(desk) == 6 and variance(desk) == 22
    _ok(3, "closed-form mean/variance match mean+30sd summation to 1e-8; "
           "desk checks mean=6, variance=22 exact")


def test_04_moment_route_equivalence():
    worst = 0.0
    for pv in (0.2, 0.5, 0.8):
        for k in (1, 2, 3, 4):
            for r in (1, 2, 3):
                params = RunParams(k, r, pv)
                sets = [moments_via_route(params, route, MomentKind.FACTORIAL, F, 5)
                        for route in (MomentRoute.RECURRENCE, MomentRoute.PARTITION,
                                      MomentRoute.PGF, MomentRoute.ROOT,
                                      MomentRoute.SUMMATION)]
                for order in range(1, 6):
                    vals = [float(ms.value(order)) for ms in sets]
                    ref = vals[1]  # partition route is exact-internal
                    spread = max(abs(v - ref) / abs(ref) for v in vals)
                    worst = max(worst, spread)
    assert worst <= 1e-9, f"routes disagree by {worst:.3e} relative"
    _ok(4, f"recurrence/partition/pgf/root/summation factorial moments agree "
           f"to {worst:.2e} <= 1e-9 relative, orders <= 5")


def test_05_scaling_laws():
    for k, pv in ((2, 0.5), (3, 0.3), (1, 0.7)):
        base = None
        for r in range(1, 9):
            gamma, excess = shape_from_central(central_moments(RunParams(k, r, pv).to_exact(), 4))
            probe = (gamma * math.sqrt(r), excess * r)
            if base is None:
                base = probe
            else:
                assert abs(probe[0] - base[0]) <= 1e-10 * abs(base[0]), (k, pv, r)
                assert abs(probe[1] - base[1]) <= 1e-10 * abs(base[1]), (k, pv, r)
    # exact linearity in r, checked through the partition route as well
    for k, pv in ((2, Fraction(1, 2)), (3, Fraction(3, 10))):
        ref = central_moments(RunParams(k, 1, pv), 4)
        ref_part = moments_via_route(RunParams(k, 1, pv), MomentRoute.PARTITION,
                                     MomentKind.CENTRAL, C, 3)
        assert ref_part.value(2) == ref.value(2)
        for r in (2, 5, 8):
            cm = central_moments(RunParams(k, r, pv), 4)
            assert cm.value(2) == r * ref.value(2)
            assert cm.value(3) == r * ref.value(3)
            part = moments_via_route(RunParams(k, r, pv), MomentRoute.PARTITION,
                                     MomentKind.CENTRAL, C, 3)
            assert part.value(2) == r * ref.value(2)
            assert part.value(3) == r * ref.value(3)
    _ok(5, "skewness*sqrt(r) and excess-kurtosis*r constant to 1e-10 over "
           "r in 1..8; variance and third central moment exactly linear in r")


def test_06_root_invariants():
    for k in range(1, 11):
        for pv in FLOAT_PS:
            system = solve_roots(RunParams(k, 1, pv))
            roots = system.roots
            for i in range(k):
                for j in range(i + 1, k):
                    assert abs(roots[i] - roots[j]) > 1e-8
            assert all(abs(z) < 1 for z in roots)
            assert system.residual <= 1e-13
            assert system.identity_residual() <= 1e-12
    _ok(6, "roots distinct, inside the unit circle, residual <= 1e-13, "
           "defining identity within 1e-12, for k <= 10 over the p grid")


def test_07_muselli_identity():
    for pv in EXACT_PS:
        for k in KS:
            for r in RS:
                params = RunParams(k, r, pv)
                for n in range(1, 201):
                    a = pmf_muselli(params, n, MuselliForm.ORIGINAL)
                    b = pmf_muselli(params, n, MuselliForm.ALT)
                    assert a == b, (pv, k, r, n)
    for pv in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for k in KS:
            params = RunParams(k, 1, pv)
            for n in range(1, 31):
                total = sum(counts_muselli(params, n, rc)
                            for rc in range((n + 1) // (k + 1) + 1))
                assert total == 1, (pv, k, n)
    _ok(7, "both Type II pmf forms exactly equal for n <= 200 across the "
           "grid; run-count distribution sums to 1 for n <= 30")


def test_08_gap_identities():
    for pv in EXACT_PS:
        for k in (1, 2, 3):
            for r in (2, 3):
                for g in (1, 2):
                    params = RunParams(k, r, pv)
                    base = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 40)
                    shift = (r - 1) * g
                    gapped = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 40,
                                       variant=VariantSpec.with_gap(g))
                    for n in range(1, 41):
                        want = base.value(n - shift) if n - shift >= 1 else 0
                        assert gapped.value(n) == want
                    # mean shift and untouched variance, exactly
                    ms = gap_moments(params, g, 2, MomentKind.RAW)
                    mu1 = mean(RunParams(k, 1, pv))
                    assert ms.value(1) == r * mu1 + shift
                    assert ms.value(2) - ms.value(1) ** 2 == variance(params)
    # gap central moments equal the nonoverlapping ones
    for k, r, g, pv in ((2, 2, 2, 0.5), (3, 2, 1, 0.4)):
        params = RunParams(k, r, pv)
        sem = CountingSemantics(CountingMode.GAP, gap=g)
        window = int(mean(params) + (r - 1) * g + 30 * math.sqrt(variance(params)))
        dp = dp_waiting_time_pmf(params, sem, window)
        got = moments_from_table(dp, 4, MomentKind.CENTRAL)
        want = central_moments(params, 4)
        for order in (2, 3, 4):
            assert abs(got.value(order) - float(want.value(order))) \
                <= 1e-9 * abs(float(want.value(order))), (k, r, g, order)
    _ok(8, "gap pmf is the exact index shift; gap mean r*mu1 + (r-1)g and "
           "variance exact; gap central moments match nonoverlapping to 1e-9")


def test_09_complexity_counts():
    params = RunParams(2, 3, Fraction(1, 2))
    counter = TermCounter()
    pmf_nested_sum(params, 41, C, counter)
    assert 0 < counter.count <= 84  # (r+1) (1 + floor((n-1)/k)) = 4 * 21
    for pv in (0.25, 0.5, 0.9):
        for k in KS:
            for r in RS:
                params = RunParams(k, r, pv)
                for n in (1, 9, 33, 70):
                    counter = TermCounter()
                    pmf_nested_sum(params, n, C, counter)
                    assert counter.count <= (r + 1) * (1 + (n - 1) // k)
    for k, r in ((1, 1), (2, 3), (4, 2)):
        params = RunParams(k, r, 0.5)
        coeffs = recover_coefficients(solve_roots(params))
        for n in (5, 50, 500):
            counter = TermCounter()
            pmf_root_based(coeffs, n, counter=counter)
            # below the support start (n = 5 for k = 4, r = 2) nothing is summed
            assert counter.count == (k * r if n >= coeffs.n_support else 0)
    _ok(9, "nested-sum term count within (r+1)(1+floor((n-1)/k)); root "
           "engine evaluates exactly k*r outer terms per supported index")


def _mc_moment4(params, variant):
    """Fourth central moment for the standard-error of the variance."""
    if variant.is_overlap:
        coeffs = recover_coefficients(solve_roots(params), ell=variant.overlap)
        ms = factorial_moments_root(coeffs, 2)
        mu, var = ms.value(1), ms.value(2) + ms.value(1) - ms.value(1) ** 2
        window = int(mu + 30 * math.sqrt(var)) + 1
        table = series_pmf(params, window, variant)
        return moments_from_table(table, 4, MomentKind.CENTRAL).value(4)
    return float(central_moments(params, 4).value(4))


def test_10_monte_carlo():
    start = time.perf_counter()
    points = (
        (RunParams(1, 1, 0.5), TYPE1, 101),
        (RunParams(2, 1, 0.5), TYPE1, 102),
        (RunParams(2, 2, 0.75), TYPE1, 103),
        (RunParams(3, 1, 0.6), TYPE1, 104),
        (RunParams(2, 2, 0.5), VariantSpec.with_gap(2), 105),
        (RunParams(2, 2, 0.6), VariantSpec.with_overlap(1), 106),
    )
    n_samples = 10 ** 6
    for params, variant, seed in points:
        sem = CountingSemantics.from_variant(variant)
        if variant.is_overlap:
            coeffs = recover_coefficients(solve_roots(params), ell=variant.overlap)
            ms = factorial_moments_root(coeffs, 2)
            mu = ms.value(1)
            var = ms.value(2) + mu - mu * mu
        else:
            mu, var = float(mean(params)), float(variance(params))
            if variant.is_gap:
                mu += (params.r - 1) * variant.gap
        res = monte_carlo(params, sem, n_samples, seed)
        se_mean = math.sqrt(var / n_samples)
        assert abs(res.mean - mu) <= 5 * se_mean, (params, variant, res.mean, mu)
        m4 = _mc_moment4(params, variant)
        se_var = math.sqrt(max(m4 - var ** 2, 0.0) / n_samples)
        assert abs(res.variance - var) <= 5 * se_var, (params, variant)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _ok(10, f"empirical mean/variance within 5 standard errors at 1e6 "
            f"samples for 6 parameter points, {elapsed:.1f}s <= 30s")
