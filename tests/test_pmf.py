from fractions import Fraction

import pytest

from runsdist.core import TYPE1, IndexScheme, RunParams, VariantSpec
from runsdist.oracle import CountingMode, CountingSemantics, dp_waiting_time_pmf
from runsdist.pmf import (ENGINES, EngineFamily, MuselliForm, PmfEngine, RecurrenceUnderflow,
                          TermCounter, counts_muselli, pmf_fullsum_ch, pmf_hyp, pmf_muselli,
                          pmf_nested_sum, pmf_pgf_expansion, pmf_recurrence_pg, pmf_table,
                          support_min)
from runsdist import special
from runsdist.special import binom, homogeneous_horner

from reference import brute_force_run_count_dist

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
        assert pmf_table(params, PmfEngine.RECURRENCE_CH, 0, 0, C).value(0) == Fraction(3, 10) ** 6

    def test_ch_equals_pg_after_shift(self):
        for pv in (Fraction(1, 4), Fraction(7, 10), 0.3, 0.85):
            for k in (1, 2, 3):
                for r in (1, 2):
                    params = RunParams(k, r, pv)
                    rk = r * k
                    full = pmf_recurrence_pg(params, rk + 40)
                    cut = pmf_table(params, PmfEngine.RECURRENCE_CH, 0, 40, C)
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
        cut = pmf_table(params, PmfEngine.RECURRENCE_CH, 0, 25, C)
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
                assert sum(table.values) >= 1 - 1e-6
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

    @pytest.mark.parametrize("params, scheme, lo, hi", [
        (RunParams(2, 3, HALF), C, 0, 41),
        (RunParams(1, 2, Fraction(1, 4)), C, 5, 30),
        (RunParams(3, 4, 0.4), F, 1000, 1012),
        (RunParams(4, 1, Fraction(2, 7)), C, 7, 9),  # narrower than the k+1 seed rows
    ])
    def test_nested_table_counts_what_its_indices_count(self, params, scheme, lo, hi):
        table = TermCounter()
        pmf_table(params, PmfEngine.NESTED_SUM, lo, hi, scheme, counter=table)
        indices = TermCounter()
        for n in range(lo, hi + 1):
            pmf_nested_sum(params, n, scheme, indices)
        assert table.count == indices.count > 0

    def test_exact_counts_pinned(self):
        # the count is the number of (j, i) bracket terms with a nonzero
        # binomial; the bench's pmf.nested-sum.terms metric reads it
        for params, n, scheme, want in ((RunParams(2, 3, HALF), 41, C, 54),
                                        (RunParams(1, 2, Fraction(1, 4)), 23, C, 34),
                                        (RunParams(3, 4, 0.4), 1000, F, 1235),
                                        (RunParams(2, 3, 0.45), 1003, F, 1329),
                                        (RunParams(5, 4, 0.35), 2017, F, 1664),
                                        (RunParams(3, 1, Fraction(2, 5)), 250, F, 123)):
            counter = TermCounter()
            pmf_nested_sum(params, n, scheme, counter)
            assert counter.count == want

    def test_table_counts_pinned(self):
        for params, lo, hi, want in ((RunParams(3, 2, Fraction(3, 7)), 6, 90, 2688),
                                     (RunParams(2, 2, 0.3), 4, 400, 78606)):
            counter = TermCounter()
            pmf_table(params, PmfEngine.NESTED_SUM, lo, hi, counter=counter)
            assert counter.count == want


class TestDeepTail:
    @pytest.mark.parametrize("engine, params, scheme, lo, hi, single", [
        (PmfEngine.NESTED_SUM, RunParams(2, 3, 0.45), C, 0, 300,
         lambda params, n: pmf_nested_sum(params, n, C)),
        (PmfEngine.NESTED_SUM, RunParams(1, 2, 0.37), C, 180, 240,
         lambda params, n: pmf_nested_sum(params, n, C)),
        (PmfEngine.HYP_SUM, RunParams(3, 2, 0.55), C, 0, 250,
         lambda params, n: pmf_hyp(params, n, C)),
        (PmfEngine.FULLSUM_CH, RunParams(2, 2, 0.4), C, 0, 120, pmf_fullsum_ch),
        (PmfEngine.MUSELLI_ALT, RunParams(2, 2, 0.55), F, 1, 400,
         lambda params, n: pmf_muselli(params, n, MuselliForm.ALT)),
        (PmfEngine.MUSELLI_ORIGINAL, RunParams(1, 3, 0.3), F, 150, 300,
         lambda params, n: pmf_muselli(params, n, MuselliForm.ORIGINAL)),
    ])
    def test_float_tables_past_the_ladder_crossover_equal_single_indices(
            self, monkeypatch, engine, params, scheme, lo, hi, single):
        # with no fixed-point precision the table sums every entry exactly on
        # its shared ladder, which hands its first and its deep sums to the
        # split Horner of special; each single index is a ladder's first call
        # and rounds in fixed point again once the patch is undone
        fallbacks = []

        def counted(coeffs, x, d):
            fallbacks.append(1)
            return homogeneous_horner(coeffs, x, d)

        monkeypatch.setattr(special, "_FIXED_POINT_BITS", ())
        monkeypatch.setattr(special, "homogeneous_horner", counted)
        variant = VariantSpec.type_ii() if ENGINES[engine].family is EngineFamily.TYPE2 else TYPE1
        table = pmf_table(params, engine, lo, hi, scheme, variant).values
        assert len(fallbacks) > 1  # the first call, and some sum past the crossover
        monkeypatch.undo()
        want = tuple(single(params, n) for n in range(lo, hi + 1))
        assert list(map(type, table)) == list(map(type, want)) and table == want

    @pytest.mark.parametrize("k, r, pv, n", [
        (2, 3, 0.45, 1003),
        (3, 4, 0.4, 1000),
        (5, 2, 0.7, 2013),
        (1, 1, 0.15, 700),
    ])
    def test_float_nested_and_hyp_exact_fallback_gives_the_same_bits(
            self, monkeypatch, k, r, pv, n):
        # with no fixed-point precision left, the outer sum is rounded from
        # the exact integer kernel; the value must not move
        params = RunParams(k, r, pv)
        fixed = (pmf_nested_sum(params, n, F), pmf_hyp(params, n, F))
        fallbacks = []

        def counted(coeffs, x, d):
            fallbacks.append(1)
            return homogeneous_horner(coeffs, x, d)

        monkeypatch.setattr(special, "_FIXED_POINT_BITS", ())
        monkeypatch.setattr(special, "homogeneous_horner", counted)
        exact = (pmf_nested_sum(params, n, F), pmf_hyp(params, n, F))
        assert len(fallbacks) == 2
        assert all(type(v) is float for v in fixed + exact) and fixed == exact

    def test_pgf_expansion_matches_nested_sum_at_n1000(self):
        # one seeded bracket row, finished by the nested sum's outer sum
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

    @pytest.mark.parametrize("k, r, pv, n", [
        (2, 3, 0.45, 1003),
        (3, 2, 0.55, 850),
        (4, 2, 0.65, 1190),
        (5, 1, 0.7, 960),
    ])
    def test_deep_float_nested_and_hyp_agree_bit_for_bit(self, k, r, pv, n):
        # both round the same exact value once; their column binomials are
        # stepped by ratios at these depths
        params = RunParams(k, r, pv)
        got = pmf_nested_sum(params, n, F)
        assert type(got) is float and got > 0
        assert pmf_hyp(params, n, F) == got
        near = pmf_recurrence_pg(params, n).value(n)
        assert abs(got - near) <= 1e-9 * near

    @pytest.mark.parametrize("k, r, pv, n", [
        (1, 3, Fraction(5, 7), 300),
        (2, 2, Fraction(2, 5), 305),
        (3, 3, Fraction(5, 9), 310),
        (5, 2, Fraction(3, 4), 290),
    ])
    def test_deep_exact_nested_and_fullsum_equal_dp(self, k, r, pv, n):
        params = RunParams(k, r, pv)
        sem = CountingSemantics(CountingMode.NON_OVERLAPPING)
        want = dp_waiting_time_pmf(params, sem, n).value(n)
        assert want > 0
        assert pmf_nested_sum(params, n, F) == want
        assert pmf_fullsum_ch(params, n - r * k) == want


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

    def test_trial_0_is_refused(self):
        params = RunParams(2, 1, HALF)
        with pytest.raises(ValueError, match="Type II pmf needs n >= 1"):
            pmf_muselli(params, 0)
        with pytest.raises(ValueError, match="muselli-alt needs n_min >= 1"):
            pmf_table(params, PmfEngine.MUSELLI_ALT, 0, 3, variant=VariantSpec.type_ii())


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

    def test_refuses_trial_0_and_a_negative_count(self):
        params = RunParams(2, 1, HALF)
        with pytest.raises(ValueError, match="run-count distribution needs n >= 1"):
            counts_muselli(params, 0, 1)
        with pytest.raises(ValueError, match="r_count must be nonnegative"):
            counts_muselli(params, 3, -1)

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

    def test_nan_value_is_rejected(self):
        # at p = 5e-324 the float recurrence's q/p overflows to inf and meets a
        # zero, so its table would hold NaN; the underflow check refuses p first,
        # and the sums return the value, about p
        params = RunParams(1, 1, 5e-324)
        with pytest.raises(RecurrenceUnderflow):
            pmf_table(params, PmfEngine.RECURRENCE_PG, 1, 3)
        assert pmf_table(params, PmfEngine.NESTED_SUM, 1, 3).values == (5e-324,) * 3

    def test_tiny_p_underflow_is_refused(self):
        # each p^j P_(n-j) falls below the smallest normal double before q/p
        # scales it back, so the recurrence read 0.0 at n = 2 and 3
        params = RunParams(1, 1, 1e-200)
        for engine, lo in ((PmfEngine.RECURRENCE_PG, 1), (PmfEngine.RECURRENCE_CH, 0)):
            with pytest.raises(RecurrenceUnderflow, match="nested-sum or an exact p"):
                pmf_table(params, engine, lo, lo + 2, scheme=ENGINES[engine].scheme)
        assert pmf_table(params, PmfEngine.NESTED_SUM, 1, 3).values == (1e-200,) * 3
        exact = pmf_table(params.to_exact(), PmfEngine.RECURRENCE_PG, 1, 3).values
        assert tuple(map(float, exact)) == (1e-200,) * 3

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
