from fractions import Fraction

import pytest

from runsdist.core import IndexScheme, RunParams, VariantSpec
from runsdist.oracle import (CountingMode, CountingSemantics,
                             brute_force_run_count_dist, dp_waiting_time_pmf)
from runsdist.pmf import (ENGINES, MuselliForm, PmfEngine, TermCounter, counts_muselli,
                          pmf_fullsum_ch, pmf_hyp, pmf_muselli, pmf_nested_sum,
                          pmf_pgf_expansion, pmf_recurrence_ch, pmf_recurrence_pg,
                          pmf_table, support_min)
from runsdist.special import binom

F, C = IndexScheme.FULL, IndexScheme.CUT
HALF = Fraction(1, 2)

EXACT_ENGINES = (PmfEngine.RECURRENCE_PG, PmfEngine.RECURRENCE_CH,
                 PmfEngine.FULLSUM_CH, PmfEngine.NESTED_SUM,
                 PmfEngine.HYP_SUM, PmfEngine.PGF_EXPANSION)


def classic_negative_binomial(params, n):
    """k = 1 reduction: waiting time for the r-th success."""
    p, q, r = params.p, params.q, params.r
    return binom(n - 1, r - 1) * p ** r * q ** (n - r)


class TestRecurrences:
    def test_pg_known_values(self):
        t = pmf_recurrence_pg(RunParams(2, 1, HALF), 5)
        assert [t.value(n) for n in range(2, 6)] == \
            [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(3, 32)]

    def test_pg_below_support_raises(self):
        with pytest.raises(ValueError):
            pmf_recurrence_pg(RunParams(2, 2, 0.5), 3)

    def test_ch_starts_at_p_rk(self):
        params = RunParams(3, 2, Fraction(3, 10))
        assert pmf_recurrence_ch(params, 0).value(0) == Fraction(3, 10) ** 6

    def test_ch_equals_pg_after_shift(self):
        for pv in (Fraction(1, 4), Fraction(7, 10)):
            for k in (1, 2, 3):
                for r in (1, 2):
                    params = RunParams(k, r, pv)
                    rk = r * k
                    full = pmf_recurrence_pg(params, rk + 40)
                    cut = pmf_recurrence_ch(params, 40)
                    assert all(cut.value(n) == full.value(n + rk) for n in range(41))

    def test_k1_is_classic_negative_binomial(self):
        for r in (1, 2, 4):
            params = RunParams(1, r, Fraction(3, 10))
            t = pmf_recurrence_pg(params, 100)
            assert all(t.value(n) == classic_negative_binomial(params, n)
                       for n in range(r, 101))

    def test_float_mode_matches_exact(self):
        t = pmf_recurrence_pg(RunParams(2, 1, 0.5), 30)
        e = pmf_recurrence_pg(RunParams(2, 1, HALF), 30)
        assert all(abs(a - float(b)) < 1e-14 for a, b in zip(t.values, e.values))


class TestSumEngines:
    def test_fullsum_boundary_and_values(self):
        params = RunParams(2, 1, HALF)
        assert pmf_fullsum_ch(params, 0) == Fraction(1, 4)
        assert pmf_fullsum_ch(params, 3) == Fraction(3, 32)

    def test_nested_full_example(self):
        assert pmf_nested_sum(RunParams(2, 1, HALF), 5, F) == Fraction(3, 32)

    def test_nested_cut_boundary(self):
        params = RunParams(3, 2, Fraction(2, 5))
        assert pmf_nested_sum(params, 0, C) == Fraction(2, 5) ** 6

    def test_hyp_full_example(self):
        assert pmf_hyp(RunParams(2, 1, HALF), 5, F) == Fraction(3, 32)

    def test_hyp_equals_nested_exactly(self):
        params = RunParams(4, 2, Fraction(1, 4))
        for n in range(0, 30):
            assert pmf_hyp(params, n, C) == pmf_nested_sum(params, n, C)

    def test_pgf_expansion_boundary_and_geometric(self):
        params = RunParams(1, 1, HALF)
        assert pmf_pgf_expansion(params, 1) == HALF
        assert pmf_pgf_expansion(params, 4) == Fraction(1, 16)
        params = RunParams(3, 2, Fraction(2, 7))
        assert pmf_pgf_expansion(params, 6) == Fraction(2, 7) ** 6

    def test_engines_agree_exactly(self):
        params = RunParams(2, 2, Fraction(2, 5))
        cut = pmf_recurrence_ch(params, 25)
        for n in range(26):
            want = cut.value(n)
            assert pmf_fullsum_ch(params, n) == want
            assert pmf_nested_sum(params, n, C) == want
            assert pmf_hyp(params, n, C) == want
            assert pmf_pgf_expansion(params, n + 4) == want

    def test_oracle_agreement(self):
        sem = CountingSemantics(CountingMode.NON_OVERLAPPING)
        for pv in (Fraction(3, 10), Fraction(1, 2)):
            for k, r in ((1, 2), (3, 1), (2, 3)):
                params = RunParams(k, r, pv)
                dp = dp_waiting_time_pmf(params, sem, 20)
                full = pmf_table(params, PmfEngine.NESTED_SUM, 1, 20)
                assert all(dp.value(n) == full.value(n) for n in range(1, 21))

    def test_classic_closed_form_spot(self):
        # k = 1, r = 2, p = 0.3: P(4) = C(3,1) p^2 q^2
        got = pmf_recurrence_pg(RunParams(1, 2, 0.3), 4).value(4)
        assert abs(got - 3 * 0.09 * 0.49) < 1e-15

    def test_mass_over_wide_window(self):
        from runsdist.moments import mean, variance

        for pv in (0.25, 0.5, 0.9):
            for k, r in ((1, 1), (2, 2), (3, 1)):
                params = RunParams(k, r, pv)
                n_max = int(mean(params) + 20 * variance(params) ** 0.5) + 1
                table = pmf_recurrence_pg(params, n_max)
                assert table.total_mass() >= 1 - 1e-6
                assert all(v >= 0 for v in table.values)


class TestTermCounter:
    def test_nested_sum_bound(self):
        # documented case: k = 2, r = 3, cut n = 41 evaluates at most 84 terms
        params = RunParams(2, 3, Fraction(1, 2))
        counter = TermCounter()
        pmf_nested_sum(params, 41, C, counter)
        assert 0 < counter.count <= (3 + 1) * (1 + (41 - 1) // 2) == 84

    def test_bound_across_params(self):
        for pv in (0.25, 0.75):
            for k in (1, 2, 4):
                for r in (1, 3):
                    params = RunParams(k, r, pv)
                    for n in (1, 7, 23):
                        counter = TermCounter()
                        pmf_nested_sum(params, n, C, counter)
                        assert counter.count <= (r + 1) * (1 + (n - 1) // k)

    def test_exact_counts_pinned(self):
        # the count is the number of (j, i) bracket terms with a nonzero
        # binomial; the bench's pmf.nested-sum.terms metric reads it
        for params, n, scheme, want in ((RunParams(2, 3, HALF), 41, C, 54),
                                        (RunParams(1, 2, Fraction(1, 4)), 23, C, 34),
                                        (RunParams(3, 4, 0.4), 1000, F, 1235)):
            counter = TermCounter()
            pmf_nested_sum(params, n, scheme, counter)
            assert counter.count == want


class TestDeepTail:
    def test_pgf_expansion_matches_nested_sum_at_n1000(self):
        # the single index computes only the r+1 inner coefficients it reads
        params = RunParams(3, 4, 0.4)
        want = pmf_nested_sum(params, 1000, F)
        assert 0 < want < 1e-15
        assert pmf_pgf_expansion(params, 1000) == want
        assert pmf_hyp(params, 1000, F) == want

    @pytest.mark.parametrize("engine, pv, n", [
        (pmf_fullsum_ch, 0.4, 300),
        (pmf_fullsum_ch, 0.375, 310),
        (pmf_fullsum_ch, Fraction(3, 8), 300),
        (pmf_nested_sum, 0.375, 1500),
        (pmf_nested_sum, Fraction(3, 8), 1500),
    ])
    def test_deep_cut_index_is_exact_value_rounded_once(self, engine, pv, n):
        # float p: the exact recurrence value rounded once; exact p: equal.
        # The exact recurrence stays fast where p has a short expansion.
        params = RunParams(3, 4, pv)
        exact = pmf_recurrence_pg(params.to_exact(), n + 12).value(n + 12)
        got = engine(params, n)
        assert type(got) is type(pv) and 0 < got < 1
        assert got == params.finalize(exact)


class TestMuselli:
    def test_geometric_values(self):
        params = RunParams(1, 1, HALF)
        assert pmf_muselli(params, 1) == HALF  # boundary cell
        assert pmf_muselli(params, 3) == Fraction(1, 8)

    def test_first_support_point(self):
        params = RunParams(2, 1, HALF)
        for form in MuselliForm:
            assert pmf_muselli(params, 2, form) == Fraction(1, 4)

    def test_forms_agree_exactly(self):
        for pv in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
            for k in (1, 2, 3):
                for r in (1, 2, 3):
                    params = RunParams(k, r, pv)
                    for n in range(1, 61):
                        assert (pmf_muselli(params, n, MuselliForm.ORIGINAL)
                                == pmf_muselli(params, n, MuselliForm.ALT))

    def test_oracle_agreement(self):
        sem = CountingSemantics(CountingMode.FAILURE_SEPARATED)
        for pv in (Fraction(1, 4), Fraction(2, 3)):
            for k, r in ((1, 1), (2, 1), (2, 2), (3, 2)):
                params = RunParams(k, r, pv)
                dp = dp_waiting_time_pmf(params, sem, 22)
                for n in range(1, 23):
                    assert pmf_muselli(params, n) == dp.value(n)

    def test_below_support_is_zero(self):
        params = RunParams(2, 2, HALF)
        assert support_min(params, VariantSpec.type_ii()) == 5
        assert all(pmf_muselli(params, n) == 0 for n in range(1, 5))


class TestCountsMuselli:
    def test_total_probability(self):
        for pv in (Fraction(3, 10), Fraction(1, 2)):
            for k in (1, 2, 3):
                params = RunParams(k, 1, pv)
                for n in range(1, 21):
                    total = sum(counts_muselli(params, n, rc)
                                for rc in range((n + 1) // (k + 1) + 1))
                    assert total == 1

    def test_enumeration_examples(self):
        # k = 2, n = 3, p = 1/2: one run of >= 2 successes in {SSF, SSS, FSS}
        assert counts_muselli(RunParams(2, 1, HALF), 3, 1) == Fraction(3, 8)
        # k = 1, n = 2: two separated runs would need S F S, impossible
        assert counts_muselli(RunParams(1, 1, Fraction(3, 10)), 2, 2) == 0

    def test_forms_agree_and_match_brute_force(self):
        for pv in (Fraction(1, 4), Fraction(1, 2)):
            for k in (1, 2, 3):
                params = RunParams(k, 1, pv)
                for n in range(1, 13):
                    dist = brute_force_run_count_dist(params, n)
                    for rc in range((n + 1) // (k + 1) + 1):
                        orig = counts_muselli(params, n, rc, MuselliForm.ORIGINAL)
                        alt = counts_muselli(params, n, rc, MuselliForm.ALT)
                        assert orig == alt == dist.get(rc, 0)


class TestDispatcher:
    def test_pads_zeros_below_support(self):
        params = RunParams(2, 2, HALF)
        for engine in EXACT_ENGINES:
            t = pmf_table(params, engine, 1, 6)
            assert [t.value(n) for n in range(1, 4)] == [0, 0, 0]
            assert t.value(4) == Fraction(1, 16)

    def test_cut_scheme_tables(self):
        params = RunParams(2, 1, HALF)
        t = pmf_table(params, PmfEngine.RECURRENCE_PG, 0, 3, scheme=C)
        assert t.value(3) == Fraction(3, 32)

    def test_gap_variant_shifts(self):
        params = RunParams(2, 2, HALF)
        base = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 20)
        gap = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 20,
                        variant=VariantSpec.with_gap(2))
        assert all(gap.value(n) == (base.value(n - 2) if n >= 3 else 0)
                   for n in range(1, 21))

    def test_engine_variant_mismatches(self):
        params = RunParams(2, 1, 0.5)
        with pytest.raises(ValueError):
            pmf_table(params, PmfEngine.NESTED_SUM, 1, 5,
                      variant=VariantSpec.type_ii())
        with pytest.raises(ValueError):
            pmf_table(params, PmfEngine.MUSELLI_ALT, 1, 5)
        with pytest.raises(ValueError):
            pmf_table(params, PmfEngine.NESTED_SUM, 1, 5,
                      variant=VariantSpec.with_overlap(1))
        with pytest.raises(ValueError):
            pmf_table(params, PmfEngine.MUSELLI_COUNTS_ALT, 1, 5,
                      variant=VariantSpec.type_ii())
        with pytest.raises(ValueError):
            pmf_table(params.to_exact(), PmfEngine.ROOT_BASED, 1, 5)

    def test_engine_table_has_one_record_per_engine(self):
        assert list(ENGINES) == list(PmfEngine)
        assert all(spec.engine is engine for engine, spec in ENGINES.items())

    def test_root_engine_table(self):
        params = RunParams(2, 2, 0.5)
        ref = pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 60)
        t = pmf_table(params, PmfEngine.ROOT_BASED, 1, 60)
        assert max(abs(a - float(b)) for a, b in zip(t.values, ref.values)) < 1e-12

    def test_root_engine_zero_below_support(self):
        # the root sum leaves a fit residue below the support; the table pads
        # exact zeros there and keeps every value from the support on
        for k in range(1, 6):
            for r in range(1, 5):
                for pv in (0.2, 0.45, 0.6, 0.9):
                    params = RunParams(k, r, pv)
                    variants = [VariantSpec.with_overlap(ell) for ell in range(k)]
                    for variant in variants + [VariantSpec.with_gap(2)]:
                        start = support_min(params, variant)
                        t = pmf_table(params, PmfEngine.ROOT_BASED, 1, start + 3,
                                      variant=variant)
                        assert t.values[:start - 1] == (0.0,) * (start - 1)
                        tail = pmf_table(params, PmfEngine.ROOT_BASED, start, start + 3,
                                         variant=variant)
                        assert t.values[start - 1:] == tail.values
                        assert tail.value(start) > 0

    def test_muselli_table(self):
        params = RunParams(2, 1, HALF)
        t = pmf_table(params, PmfEngine.MUSELLI_ALT, 1, 6,
                      variant=VariantSpec.type_ii())
        assert t.value(2) == Fraction(1, 4)
