import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from runsdist import oracle
from runsdist.core import RunParams
from runsdist.oracle import (CountingMode, CountingSemantics, SimulationNotAbsorbed,
                             brute_force_pmf, dp_waiting_time, dp_waiting_time_pmf, monte_carlo)
from runsdist.pmf import support_min

from reference import brute_force_run_count_dist, sequence_waiting_time

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


def assert_refused(params, sem):
    """Every oracle rejects an overlap of k or more before any work."""
    for oracle in (brute_force_pmf, dp_waiting_time_pmf, dp_waiting_time):
        with pytest.raises(ValueError, match="overlap must be at most k-1"):
            oracle(params, sem, 12)
    with pytest.raises(ValueError, match="overlap must be at most k-1"):
        monte_carlo(params.to_float(), sem, 10, seed=0)
    with pytest.raises(ValueError, match="overlap must be at most k-1"):
        sequence_waiting_time([True] * 12, params.k, params.r, sem)


class TestSemanticsValidation:
    def test_overlap_and_gap_bounds(self):
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.OVERLAP, overlap=0)
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.GAP)
        with pytest.raises(ValueError):
            CountingSemantics(CountingMode.NON_OVERLAPPING, overlap=1)
        with pytest.raises(ValueError, match="gap only applies to gap semantics"):
            CountingSemantics(CountingMode.OVERLAP, overlap=1, gap=1)

    def test_oracles_refuse_overlap_of_k_or_more(self):
        for k, ell in ((1, 1), (2, 2), (3, 5)):
            assert_refused(RunParams(k, 2, HALF),
                           CountingSemantics(CountingMode.OVERLAP, overlap=ell))

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

    def test_overlap_of_k_raises_the_oracles_error(self):
        # the restart 1 never reaches k = 1 again, so the scan would find no
        # second run; it raises what the DP raises instead of returning None
        sem = CountingSemantics(CountingMode.OVERLAP, overlap=1)
        with pytest.raises(ValueError) as dp_error:
            dp_waiting_time_pmf(RunParams(1, 2, HALF), sem, 6)
        with pytest.raises(ValueError) as scan_error:
            sequence_waiting_time([True] * 6, 1, 2, sem)
        assert str(scan_error.value) == str(dp_error.value)
        assert str(scan_error.value) == "overlap must be at most k-1 = 0, got 1"

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

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            dp_waiting_time(RunParams(2, 1, HALF), TYPE1, 0)

    def test_mass_accounting(self):
        params = RunParams(2, 2, Fraction(2, 5))
        table, deficit = dp_waiting_time(params, TYPE1, 30)
        assert sum(table.values) + deficit == 1
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
                    if sem.overlap > k - 1:
                        assert_refused(params, sem)
                        continue
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
                if sem.overlap > k - 1:
                    assert_refused(params, sem)
                    continue
                bf = brute_force_pmf(params, sem, 12)
                dp, deficit = dp_waiting_time(params, sem, 12)
                assert bf.values == dp.values
                assert sum(dp.values) + deficit == 1
                assert isinstance(deficit, Fraction) and deficit > 0
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

    SCANNER_POINTS = pytest.mark.parametrize("k, r, p, seed", [
        (2, 2, 0.5, 3), (3, 2, 0.6, 11), (3, 3, 0.7, 2024), (4, 1, 0.55, 0)])
    SCANNER_FAMILIES = pytest.mark.parametrize("family", ["type1", "type2", "overlap", "gap"])

    @SCANNER_POINTS
    @SCANNER_FAMILIES
    def test_matches_scanner_on_same_draws(self, k, r, p, seed, family):
        self.assert_matches_scanner(k, r, p, seed, family)

    @SCANNER_POINTS
    @SCANNER_FAMILIES
    @pytest.mark.parametrize("block", [1, 7])
    def test_matches_scanner_across_draw_blocks(self, monkeypatch, k, r, p, seed, family, block):
        # blocks smaller than the 300 streams: every trial's draws cross block edges
        monkeypatch.setattr(oracle, "_DRAW_BLOCK", block)
        self.assert_matches_scanner(k, r, p, seed, family)

    @pytest.mark.parametrize("k, r, p, family, gap", [
        (130, 2, 0.995, "type1", 2), (130, 2, 0.995, "type2", 2), (130, 2, 0.995, "overlap", 2),
        (130, 2, 0.995, "gap", 2), (2, 130, 0.9, "type1", 2), (2, 130, 0.9, "overlap", 2),
        (2, 130, 0.9, "gap", 2), (127, 2, 0.995, "type1", 2), (127, 2, 0.995, "overlap", 2),
        (128, 2, 0.995, "type1", 2), (2, 127, 0.9, "type1", 2), (2, 128, 0.9, "type1", 2),
        (2, 2, 0.9, "gap", 127), (2, 2, 0.9, "gap", 128)])
    def test_matches_scanner_at_and_past_int8(self, k, r, p, family, gap):
        # k, r and the gap at most 127 keep the progress and the run counts in
        # int8, where progress reaches 127 and a gap of 127 restarts at -127;
        # past 127 int8 would wrap, so they are int32. Few streams, as the
        # scanner rescans each stream's draws every trial
        self.assert_matches_scanner(k, r, p, 5, family, samples=40, gap=gap)

    @staticmethod
    def assert_matches_scanner(k, r, p, seed, family, samples=300, gap=2):
        sem = {"type1": TYPE1, "type2": TYPE2,
               "overlap": CountingSemantics(CountingMode.OVERLAP, overlap=k - 1),
               "gap": CountingSemantics(CountingMode.GAP, gap=gap)}[family]
        params = RunParams(k, r, p)
        # each trial hands one draw to every still-running stream, in stream
        # order, and a stream stops at the trial where the scanner sees its
        # r-th run complete
        rng = np.random.Generator(np.random.Philox(seed))
        seqs = [[] for _ in range(samples)]
        running = list(range(samples))
        waits = Counter()
        t = 0
        while running:
            t += 1
            for i, u in zip(running, rng.random(len(running))):
                seqs[i].append(u < p)
            still = []
            for i in running:
                if sequence_waiting_time(seqs[i], k, r, sem) == t:
                    waits[t] += 1
                else:
                    still.append(i)
            running = still
        res = monte_carlo(params, sem, samples, seed)
        assert res.counts == tuple(waits[n] for n in range(t + 1))

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            monte_carlo(RunParams(1, 1, 0.5), TYPE1, 0, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            monte_carlo(RunParams(1, 1, 0.5), TYPE1, 10, seed=-1)

    def test_rejects_samples_past_int32(self):
        # refused before any allocation: 2**31 streams would take about 17 GB
        with pytest.raises(ValueError, match=r"samples must be below 2\*\*31"):
            monte_carlo(RunParams(1, 1, 0.5), TYPE1, 2 ** 31, seed=0)

    @staticmethod
    def traced_peak(*args):
        """The peak of traced memory during ``monte_carlo(*args)``, and its result."""
        # numpy reports its data buffers to tracemalloc, so the peak counts the
        # stream state and every temporary, whatever the allocator
        tracemalloc.start()
        try:
            res = monte_carlo(*args)
            return tracemalloc.get_traced_memory()[1], res
        finally:
            tracemalloc.stop()

    def test_scratch_memory_is_bounded_per_sample(self):
        # 9 bytes of state per sample and segment-sized temporaries: one more
        # int32 or float64 per sample, such as a whole-array index list or the
        # squared deviations of the variance, breaks the bound
        assert self.traced_peak(RunParams(2, 1, 0.5), TYPE1, 10 ** 6, 7)[0] <= 12 * 10 ** 6

    def test_scratch_memory_is_bounded_with_runs_and_a_gap(self):
        # 10 bytes of state per sample once the run count is kept
        sem = CountingSemantics(CountingMode.GAP, gap=2)
        assert self.traced_peak(RunParams(2, 2, 0.5), sem, 2 * 10 ** 5, 7)[0] <= 4 * 10 ** 6

    def test_scratch_memory_past_the_samples_is_three_tables_of_the_longest_wait(self):
        # few streams and long walks: the histogram and the two power tables,
        # each one float64 or int64 per waiting time up to the longest, t, are
        # what is left; a fourth such table breaks the bound
        monte_carlo(RunParams(2, 1, 0.5), TYPE1, 10, 0)  # first-call imports stay out of the peak
        peak, res = self.traced_peak(RunParams(10, 1, 0.5), TYPE1, 30, 1)
        longest = len(res.counts) - 1
        assert longest > 5_000
        assert peak <= 25 * (longest + 1) + 24 * 1024

    @pytest.mark.parametrize("leaf", [1, oracle._DRAW_BLOCK])
    def test_pairwise_sums_match_numpy(self, leaf):
        # the moments sum per leaf what numpy sums over the whole gathered array
        rng = np.random.default_rng(leaf)
        lengths = [*range(1, 10), 127, 128, 129, 2 ** 16 - 1, 2 ** 16 + 1,
                   3 * 2 ** 16 + 5, 10 ** 6 + 3]
        for n in lengths:
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            keys = np.arange(n)
            (total,) = oracle._pairwise_gathered_sums((x,), keys, leaf)
            assert total == float(np.add.reduce(x))
            assert total / n == float(np.mean(x))
            if n > 1:
                (s2,) = oracle._pairwise_gathered_sums(((x - np.mean(x)) ** 2,), keys, leaf)
                assert s2 / (n - 1) == float(x.var(ddof=1))
            # a gather from a small table, as the waiting times index their powers
            table = rng.standard_normal(40)
            keys = rng.integers(0, 40, n).astype(np.int32)
            sums = oracle._pairwise_gathered_sums((table, table ** 3), keys, leaf)
            assert sums == (float(np.add.reduce(table[keys])),
                            float(np.add.reduce((table ** 3)[keys])))

    def test_trial_cap_raises_by_name(self, monkeypatch):
        # a run of 2 takes at least 2 trials
        monkeypatch.setattr(oracle, "_TRIALS_MAX", 1)
        with pytest.raises(SimulationNotAbsorbed, match="after 1 trials"):
            monte_carlo(RunParams(2, 1, 0.5), TYPE1, 10, seed=0)
