import math
from fractions import Fraction

import pytest

from runsdist.core import IndexScheme, MomentKind, RunParams, VariantSpec
from runsdist.moments import MomentRoute, mean, moments_from_table, moments_via_route, variance
from runsdist.oracle import CountingMode, CountingSemantics, dp_waiting_time_pmf
from runsdist.pmf import PmfEngine, TermCounter, pmf_recurrence_pg, pmf_table
from runsdist.roots import (aux_polynomial,
                            factorial_moments_root, gap_moments,
                            pgf_series,
                            pmf_root_based, recover_coefficients, series_pmf,
                            solve_roots)

from reference import PoleAtS, geometric_pgf, geometric_pmf_recurrence

F = IndexScheme.FULL
HALF = Fraction(1, 2)


class TestGeneratingFunction:
    def test_total_mass_at_one(self):
        for k in (1, 2, 5):
            params = RunParams(k, 1, Fraction(3, 10))
            assert geometric_pgf(params, Fraction(1)) == 1

    def test_k1_reduces_to_geometric(self):
        params = RunParams(1, 1, Fraction(2, 7))
        p, q = params.p, params.q
        for s in (Fraction(1, 3), Fraction(-2, 5)):
            assert geometric_pgf(params, s) == p * s / (1 - q * s)

    def test_pole_detected(self):
        # k = 1: denominator (1 - ps)(1 - qs) vanishes at s = 1/q
        params = RunParams(1, 1, Fraction(1, 2))
        with pytest.raises(PoleAtS):
            geometric_pgf(params, Fraction(2))

    def test_series_matches_recurrence(self):
        for pv in (Fraction(1, 4), Fraction(7, 10)):
            for k in (1, 2, 4):
                params = RunParams(k, 1, pv)
                rec = geometric_pmf_recurrence(params, 50)
                coeffs = pgf_series(params, 51)
                assert all(coeffs[n] == rec.value(n) for n in range(k, 51))

    def test_series_powers_match_convolution_recurrence(self):
        # coefficients of the r-th pgf power are the r-run pmf
        for r in (2, 4):
            params = RunParams(2, r, Fraction(1, 2))
            rec = pmf_recurrence_pg(params, 40)
            coeffs = pgf_series(params, 41)
            assert all(coeffs[n] == rec.value(n) for n in range(2 * r, 41))

    def test_series_powers_float_long_range(self):
        for r in (1, 2, 3, 4):
            for pv in (0.25, 0.75):
                params = RunParams(3, r, pv)
                rec = pmf_recurrence_pg(params, 100)
                coeffs = pgf_series(params, 101)
                worst = max(abs(coeffs[n] - rec.value(n)) for n in range(3 * r, 101))
                assert worst <= 1e-12

    def test_type2_series_matches_dp(self):
        sem = CountingSemantics(CountingMode.FAILURE_SEPARATED)
        for k in (1, 2, 3):
            for r in (1, 2, 3):
                params = RunParams(k, r, Fraction(2, 5))
                want = dp_waiting_time_pmf(params, sem, 40).values
                assert series_pmf(params, 40, VariantSpec.type_ii()).values == want

    def test_overlap_series_is_a_distribution(self):
        # nonnegative with essentially full mass over a wide window
        for k, ell, r, pv in ((2, 1, 2, 0.5), (3, 2, 2, 0.4), (4, 2, 3, 0.6)):
            params = RunParams(k, r, pv)
            coeffs = recover_coefficients(solve_roots(params), ell=ell)
            ms = factorial_moments_root(coeffs, 2)
            mu = ms.value(1)
            sd = math.sqrt(ms.value(2) + mu - mu * mu)
            table = series_pmf(params, int(mu + 20 * sd) + 1,
                               VariantSpec(overlap=ell))
            assert all(v >= 0 for v in table.values)
            assert table.total_mass() >= 1 - 1e-6


class TestGeometricRecurrence:
    def test_known_values(self):
        t = geometric_pmf_recurrence(RunParams(2, 1, HALF), 5)
        assert [t.value(n) for n in range(2, 6)] == \
            [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(3, 32)]

    def test_equals_general_recurrence_at_r1(self):
        params = RunParams(3, 1, Fraction(2, 5))
        a = geometric_pmf_recurrence(params, 60)
        b = pmf_recurrence_pg(params, 60)
        assert a.values == b.values

    def test_normalization(self):
        t = geometric_pmf_recurrence(RunParams(2, 1, 0.5), 200)
        assert t.total_mass() >= 1 - 1e-9

    def test_requires_r1(self):
        with pytest.raises(ValueError):
            geometric_pmf_recurrence(RunParams(2, 2, 0.5), 10)


class TestRootSolve:
    def test_k1_root_is_q(self):
        system = solve_roots(RunParams(1, 1, 0.3))
        assert len(system.roots) == 1
        assert abs(system.roots[0] - 0.7) < 1e-14

    def test_k2_half_roots(self):
        system = solve_roots(RunParams(2, 1, 0.5))
        got = sorted(z.real for z in system.roots)
        want = sorted([(1 - math.sqrt(5)) / 4, (1 + math.sqrt(5)) / 4])
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14

    def test_invariants_across_grid(self):
        for k in range(1, 11):
            for pv in (0.1, 0.25, 0.5, 0.75, 0.9):
                system = solve_roots(RunParams(k, 1, pv))
                assert system.residual <= 1e-13
                assert system.identity_residual() <= 1e-12
                assert all(abs(z) < 1 for z in system.roots)

    def test_aux_polynomial_layout(self):
        assert aux_polynomial(RunParams(3, 1, 0.5)) == \
            (1.0, -0.5, -0.25, -0.125)


class TestCoefficientRecovery:
    def test_r1_matches_recurrence(self):
        for pv in (0.25, 0.6):
            for k in (1, 2, 4):
                params = RunParams(k, 1, pv)
                coeffs = recover_coefficients(solve_roots(params))
                rec = geometric_pmf_recurrence(params, 100)
                worst = max(abs(pmf_root_based(coeffs, n) - rec.value(n))
                            for n in range(k, 101))
                assert worst < 1e-10

    def test_r2_convolution(self):
        params = RunParams(2, 2, 0.5)
        coeffs = recover_coefficients(solve_roots(params))
        rec = pmf_recurrence_pg(params, 80)
        worst = max(abs(pmf_root_based(coeffs, n) - rec.value(n))
                    for n in range(4, 81))
        assert worst < 1e-10

    def test_type3_matches_oracle(self):
        params = RunParams(2, 2, 0.5)
        coeffs = recover_coefficients(solve_roots(params), ell=1)
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=1)
        dp = dp_waiting_time_pmf(params, sem, 25)
        worst = max(abs(pmf_root_based(coeffs, n) - float(dp.value(n)))
                    for n in range(1, 26))
        assert worst < 1e-10

    def test_large_n_spot_check(self):
        params = RunParams(2, 2, 0.5)
        coeffs = recover_coefficients(solve_roots(params))
        rec = pmf_recurrence_pg(params, 1000)
        assert abs(pmf_root_based(coeffs, 1000) - rec.value(1000)) < 1e-9

    def test_zero_below_support(self):
        # the root sum leaves noise up to ~5e-13 below the first support index
        for k, r, pv, ell in ((3, 2, 0.4, 0), (3, 3, 0.3, 2)):
            coeffs = recover_coefficients(solve_roots(RunParams(k, r, pv)), ell=ell)
            assert all(pmf_root_based(coeffs, n) == 0.0
                       for n in range(-2, coeffs.n_support))
            assert pmf_root_based(coeffs, coeffs.n_support) > 0.0

    def test_outer_term_count(self):
        params = RunParams(3, 2, 0.5)
        coeffs = recover_coefficients(solve_roots(params))
        counter = TermCounter()
        pmf_root_based(coeffs, 25, counter=counter)
        assert counter.count == 3 * 2

    def test_overlap_requires_valid_ell(self):
        system = solve_roots(RunParams(2, 1, 0.5))
        with pytest.raises(ValueError):
            recover_coefficients(system, ell=2)

    def test_corrupted_reference_fails_validation(self, monkeypatch):
        from runsdist import roots
        from runsdist.core import PmfTable
        from runsdist.roots import ValidationFailed

        series = roots.series_pmf

        def corrupted(*args):
            good = series(*args)
            vals = list(good.values)
            vals[10 - good.n_min] += 1e-4  # inside the held-out window
            return PmfTable(good.params, good.scheme, good.variant, good.n_min, tuple(vals))

        monkeypatch.setattr(roots, "series_pmf", corrupted)
        with pytest.raises(ValidationFailed):
            recover_coefficients(solve_roots(RunParams(2, 2, 0.5)))

    def test_reference_over_its_mass_bound_fails_validation(self):
        from runsdist.roots import ValidationFailed

        # the float series at k=1 r=20 p=0.7 sums past 1: a numeric failure, not a bad request
        with pytest.raises(ValidationFailed,
                           match="^reference series: pmf mass exceeds 1: ") as err:
            recover_coefficients(solve_roots(RunParams(1, 20, 0.7)))
        assert type(err.value.__cause__) is ValueError


    @pytest.mark.parametrize("k, r, p, message", [
        # the smallest singular value is roundoff (a ratio of about 1e16 whose
        # digits differ between lstsq and svd), so no condition number is printed
        (2, 13, 0.3, "recovery matrix singular to working precision; residual "),
        # a condition of about 1e13: ill conditioned, but measured
        (1, 13, 0.3, "recovery matrix condition "),
    ], ids=["singular", "ill-conditioned"])
    def test_ill_conditioned_fit_is_named(self, k, r, p, message):
        from runsdist.roots import IllConditionedSystem

        with pytest.raises(IllConditionedSystem, match=f"^{message}"):
            recover_coefficients(solve_roots(RunParams(k, r, p)))


class TestRootMoments:
    def test_r1_simplification(self):
        # order i reduces to i!/(q p^k)^(i+1) f((i+1)k + i)
        params = RunParams(1, 1, 0.5)
        coeffs = recover_coefficients(solve_roots(params))
        ms = factorial_moments_root(coeffs, 1)
        assert abs(ms.value(1) - 2) < 1e-12
        params = RunParams(2, 1, 0.4)
        coeffs = recover_coefficients(solve_roots(params))
        rec = geometric_pmf_recurrence(params, 20)
        w = 0.6 * 0.4 ** 2
        for i in (1, 2, 3):
            want = math.factorial(i) / w ** (i + 1) * rec.value((i + 1) * 2 + i)
            got = factorial_moments_root(coeffs, i).value(i)
            assert abs(got - want) <= 1e-11 * abs(want)

    def test_matches_partition_route(self):
        for pv in (0.25, 0.5, 0.75):
            for k in (1, 2, 3):
                for r in (1, 2, 3):
                    params = RunParams(k, r, pv)
                    coeffs = recover_coefficients(solve_roots(params))
                    got = factorial_moments_root(coeffs, 4)
                    want = moments_via_route(params, MomentRoute.PARTITION,
                                             MomentKind.FACTORIAL, F, 4)
                    for a, b in zip(got.values, want.values):
                        assert abs(a - float(b)) <= 1e-9 * abs(float(b))

    def test_type3_moments_match_oracle_summation(self):
        params = RunParams(2, 2, 0.5)
        coeffs = recover_coefficients(solve_roots(params), ell=1)
        got = factorial_moments_root(coeffs, 2)
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=1)
        dp = dp_waiting_time_pmf(params, sem, 400)
        want = moments_from_table(dp, 2, MomentKind.FACTORIAL)
        for a, b in zip(got.values, want.values):
            assert abs(a - float(b)) <= 1e-9 * abs(float(b))


class TestGapVariant:
    def test_r1_gap_is_identity(self):
        params = RunParams(2, 1, HALF)
        base = pmf_recurrence_pg(params, 30)
        gapped = pmf_table(params, PmfEngine.RECURRENCE_PG, 2, 30,
                           variant=VariantSpec.with_gap(3))
        assert gapped.values == base.values

    def test_gap_pmf_matches_oracle(self):
        params = RunParams(2, 2, HALF)
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        dp = dp_waiting_time_pmf(params, sem, 25)
        gapped = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 25,
                           variant=VariantSpec.with_gap(2))
        assert gapped.values == dp.values

    def test_gap_pgf_is_coefficient_shift(self):
        params = RunParams(2, 3, Fraction(2, 5))
        plain = pgf_series(params, 40)
        gapped = pgf_series(params, 40, VariantSpec.with_gap(2))
        shift = (3 - 1) * 2
        assert all(gapped[n] == plain[n - shift] for n in range(shift, 40))

    def test_gap_mean_formula(self):
        # k = 2, r = 3, g = 2, p = 1/2: mean = 3 * 6 + 2 * 2 = 22
        params = RunParams(2, 3, HALF)
        ms = gap_moments(params, 2, 1, MomentKind.FACTORIAL)
        assert ms.value(1) == 22
        one_run = mean(RunParams(2, 1, HALF))
        assert ms.value(1) == 3 * one_run + (3 - 1) * 2

    def test_gap_variance_unchanged(self):
        params = RunParams(3, 2, Fraction(3, 10))
        raw = gap_moments(params, 4, 2, MomentKind.RAW)
        assert raw.value(2) - raw.value(1) ** 2 == variance(params)

    def test_gap_moments_rejects_central_and_nonpositive_gap(self):
        params = RunParams(2, 2, HALF)
        with pytest.raises(ValueError, match="nonoverlapping"):
            gap_moments(params, 2, 2, MomentKind.CENTRAL)
        for g in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                gap_moments(params, g, 2, MomentKind.FACTORIAL)

    def test_gap_central_moments_match_summation(self):
        params = RunParams(2, 2, 0.5)
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        dp = dp_waiting_time_pmf(params, sem, 400)
        got = moments_from_table(dp, 3, MomentKind.CENTRAL)
        want = moments_via_route(params, MomentRoute.PARTITION, MomentKind.CENTRAL, F, 3)
        for order in (2, 3):
            assert abs(got.value(order) - float(want.value(order))) \
                <= 1e-9 * abs(float(want.value(order)))

    def test_series_pmf_gap_variant(self):
        params = RunParams(2, 2, HALF)
        sem = CountingSemantics(CountingMode.GAP, gap=1)
        dp = dp_waiting_time_pmf(params, sem, 20)
        sp = series_pmf(params, 20, VariantSpec.with_gap(1))
        assert all(sp.value(n) == dp.value(n) for n in range(1, 21))
