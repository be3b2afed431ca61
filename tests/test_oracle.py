from fractions import Fraction

import pytest

from runsdist.core import RunParams
from runsdist.oracle import (CountingMode, CountingSemantics, brute_force_pmf,
                             brute_force_run_count_dist, dp_waiting_time,
                             dp_waiting_time_pmf, monte_carlo,
                             sequence_waiting_time)
from runsdist.pmf import support_min

HALF = Fraction(1, 2)
TYPE1 = CountingSemantics(CountingMode.NON_OVERLAPPING)
TYPE2 = CountingSemantics(CountingMode.FAILURE_SEPARATED)

ALL_SEMANTICS = (
    TYPE1,
    TYPE2,
    CountingSemantics(CountingMode.OVERLAP, overlap=1),
    CountingSemantics(CountingMode.GAP, gap=1),
    CountingSemantics(CountingMode.GAP, gap=2),
)


class TestSemanticsValidation:
    def test_overlap_and_gap_bounds(self):
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.OVERLAP, overlap=0)
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.GAP)
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.NON_OVERLAPPING, overlap=1)

    def test_variant_round_trip(self):
        for sem in ALL_SEMANTICS:
            assert CountingSemantics.from_variant(sem.to_variant()) == sem


class TestSequenceScanner:
    def test_six_successes_type1(self):
        seq = [True] * 6
        # counting restarts after each completed run
        assert sequence_waiting_time(seq, 1, 6, TYPE1) == 6
        assert sequence_waiting_time(seq, 2, 3, TYPE1) == 6
        assert sequence_waiting_time(seq, 3, 2, TYPE1) == 6
        assert sequence_waiting_time(seq, 6, 1, TYPE1) == 6
        assert sequence_waiting_time(seq, 4, 2, TYPE1) is None

    def test_six_successes_type2(self):
        # one run only, regardless of k
        seq = [True] * 6
        for k in range(1, 7):
            assert sequence_waiting_time(seq, k, 1, TYPE2) == k
            assert sequence_waiting_time(seq, k, 2, TYPE2) is None

    def test_type3_overlap(self):
        seq = [True] * 6
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=1)
        assert sequence_waiting_time(seq, 2, 5, sem) == 6
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=2)
        assert sequence_waiting_time(seq, 3, 4, sem) == 6

    def test_gap_ignores_trials(self):
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        for middle in ((False, False), (True, False), (False, True), (True, True)):
            seq = (True, True) + middle + (True, True)
            assert sequence_waiting_time(seq, 2, 2, sem) == 6


class TestDP:
    def test_type1_known_values(self):
        dp = dp_waiting_time_pmf(RunParams(2, 1, HALF), TYPE1, 5)
        assert [dp.value(n) for n in range(2, 6)] == \
            [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(3, 32)]
        assert dp.value(1) == 0

    def test_gap_example(self):
        # k=2, g=2, r=2: at n=6 exactly the four patterns SS??SS
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        dp = dp_waiting_time_pmf(RunParams(2, 2, HALF), sem, 6)
        assert dp.value(6) == Fraction(1, 16)

    def test_type3_example(self):
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=1)
        dp = dp_waiting_time_pmf(RunParams(2, 2, HALF), sem, 3)
        assert dp.value(3) == Fraction(1, 8)

    def test_mass_accounting(self):
        params = RunParams(2, 2, Fraction(2, 5))
        table, deficit = dp_waiting_time(params, TYPE1, 30)
        assert table.total_mass() + deficit == 1
        assert deficit > 0

    def test_float_mode(self):
        exact = dp_waiting_time_pmf(RunParams(2, 1, HALF), TYPE1, 20)
        fl = dp_waiting_time_pmf(RunParams(2, 1, 0.5), TYPE1, 20)
        assert all(abs(a - float(b)) < 1e-15 for a, b in zip(fl.values, exact.values))


class TestBruteForce:
    def test_matches_dp_exactly(self):
        for pv in (Fraction(1, 4), HALF):
            for k, r in ((1, 2), (2, 1), (2, 2), (3, 1)):
                params = RunParams(k, r, pv)
                for sem in ALL_SEMANTICS:
                    bf = brute_force_pmf(params, sem, 12)
                    dp = dp_waiting_time_pmf(params, sem, 12)
                    assert bf.values == dp.values

    @pytest.mark.parametrize("pv", [Fraction(2, 7), Fraction(3, 10)])
    def test_matches_dp_exactly_non_dyadic(self, pv):
        # a denominator that is not a power of two, so the DP's scaling by
        # powers of it is exercised
        for k, r in ((1, 2), (2, 1), (2, 2), (3, 1)):
            params = RunParams(k, r, pv)
            for sem in ALL_SEMANTICS:
                bf = brute_force_pmf(params, sem, 12)
                dp, deficit = dp_waiting_time(params, sem, 12)
                assert bf.values == dp.values
                assert sum(dp.values) + deficit == 1
                assert isinstance(deficit, Fraction) and deficit > 0
                if sem.overlap > k - 1:  # no such variant, so no support to check
                    continue
                start = support_min(params, sem.to_variant())
                below = dp.values[:start - 1]
                assert all(type(v) is int and v == 0 for v in below)
                assert isinstance(dp.value(start), Fraction) and dp.value(start) > 0

    def test_sixteen_trials_spot_check(self):
        params = RunParams(2, 2, HALF)
        for sem in (TYPE1, TYPE2):
            bf = brute_force_pmf(params, sem, 16)
            dp = dp_waiting_time_pmf(params, sem, 16)
            assert bf.values == dp.values

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_pmf(RunParams(1, 1, 0.5), TYPE1, 23)

    def test_run_count_distribution_sums_to_one(self):
        dist = brute_force_run_count_dist(RunParams(2, 1, Fraction(3, 10)), 10)
        assert sum(dist.values()) == 1


class TestMonteCarlo:
    def test_deterministic_per_seed(self):
        params = RunParams(2, 1, 0.5)
        a = monte_carlo(params, TYPE1, 20_000, seed=7)
        b = monte_carlo(params, TYPE1, 20_000, seed=7)
        assert a == b
        c = monte_carlo(params, TYPE1, 20_000, seed=8)
        assert c != a

    def test_histogram_total(self):
        res = monte_carlo(RunParams(2, 1, 0.5), TYPE1, 5_000, seed=1)
        assert sum(res.counts) == 5_000
        assert sum(c for _, c in res.histogram_items()) == 5_000

    def test_mean_sanity(self):
        # mean 6, variance 22: five standard errors at this sample size
        res = monte_carlo(RunParams(2, 1, 0.5), TYPE1, 200_000, seed=42)
        assert abs(res.mean - 6.0) < 5 * (22.0 / 200_000) ** 0.5

    def test_gap_semantics_mean(self):
        # mean shifts by (r-1) g = 2
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        res = monte_carlo(RunParams(2, 2, 0.5), sem, 200_000, seed=9)
        assert abs(res.mean - 14.0) < 5 * (44.0 / 200_000) ** 0.5

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            monte_carlo(RunParams(1, 1, 0.5), TYPE1, 0, seed=0)
