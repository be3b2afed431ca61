"""Property tests: the exact engines equal the DP oracle bit for bit.

Parameters are drawn beyond the hand-picked grids of the other suites:
``k <= 5``, ``r <= 4``, ``p = a/d`` with ``d <= 30`` and ``n <= 60``; Muselli
waiting-time and run-count, double-sum, nested-sum, hypergeometric and
pgf-expansion tables start anywhere in ``[1, 120]``, ``[0, 100]`` and
``[0, 120]``, about half of them at or below 12, and run up to 20 indices.
Float ``p`` with a full 53-bit significand holds the rounded nested,
hypergeometric, pgf-expansion, Type II and run-count sums to the exact value
at cut indices up to 800.
The DP oracle itself is held to the exact rational pgf series for every
family. Each property draws ``max_examples`` from the loaded
hypothesis profile (see ``conftest.py``).
"""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from runsdist.core import TYPE1, IndexScheme, RunParams, VariantSpec, support_min
from runsdist.oracle import CountingMode, CountingSemantics, dp_waiting_time_pmf
from runsdist.pmf import (ENGINES, MuselliForm, PmfEngine, counts_muselli, pmf_fullsum_ch,
                          pmf_hyp, pmf_muselli, pmf_nested_sum, pmf_pgf_expansion,
                          pmf_recurrence_pg, pmf_table)
from runsdist.roots import series_pmf

F, C = IndexScheme.FULL, IndexScheme.CUT
TYPE1_SEM = CountingSemantics(CountingMode.NON_OVERLAPPING)
TYPE2_SEM = CountingSemantics(CountingMode.FAILURE_SEPARATED)
N_MAX = 60

PROPERTY = settings(deadline=None, database=None)


@st.composite
def exact_p(draw):
    d = draw(st.integers(2, 30))
    return Fraction(draw(st.integers(1, d - 1)), d)


@st.composite
def run_params(draw):
    return RunParams(draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(exact_p()))


def first_index(low: int, high: int):
    """A table's first index in ``[low, high]``, often at or below 12.

    A table seeds its first ``k+1 <= 6`` rows and steps the rest, so a
    start this low also steps rows that read the first support points, such
    as the ORIGINAL Muselli row ``2k+1``, which reads the one bracket of row
    ``k`` whose binomial is ``C(-1, -1)``.
    """
    return st.one_of(st.integers(low, 12), st.integers(low, high))


@PROPERTY
@given(run_params(), st.integers(1, N_MAX))
def test_type1_single_index_engines_equal_dp(params, n):
    want = dp_waiting_time_pmf(params, TYPE1_SEM, n).value(n)
    cut = n - params.r * params.k
    assert pmf_nested_sum(params, n, F) == want
    assert pmf_hyp(params, n, F) == want
    assert pmf_pgf_expansion(params, n) == want
    assert pmf_fullsum_ch(params, cut) == want


@PROPERTY
@given(run_params(), st.integers(1, N_MAX), st.integers(0, 20))
def test_pgf_expansion_table_equals_dp(params, n_max, width):
    dp = dp_waiting_time_pmf(params, TYPE1_SEM, n_max)
    n_min = max(n_max - width, 1)
    table = pmf_table(params, PmfEngine.PGF_EXPANSION, n_min, n_max)
    assert table.values == dp.values[n_min - 1:]


def _same(got, want) -> bool:
    """Equal values of equal types, entry for entry."""
    return list(map(type, got)) == list(map(type, want)) and got == want


@PROPERTY
@given(run_params(), st.integers(1, N_MAX), st.integers(0, 20))
def test_recurrence_tables_equal_dp(params, n_max, width):
    # on the support, where the oracle's entries are fractions too
    rk = params.r * params.k
    n_max = max(n_max, rk)
    n_min = max(n_max - width, rk)
    dp = dp_waiting_time_pmf(params, TYPE1_SEM, n_max).values
    want = dp[n_min - 1:]
    for engine in (PmfEngine.RECURRENCE_PG, PmfEngine.RECURRENCE_CH):
        assert _same(pmf_table(params, engine, n_min, n_max).values, want)
    cut = pmf_table(params, PmfEngine.RECURRENCE_CH, n_min - rk, n_max - rk, C)
    assert _same(cut.values, want)
    assert _same(pmf_recurrence_pg(params, n_max).values, dp[rk - 1:])
    assert _same(pmf_table(params, PmfEngine.RECURRENCE_CH, 0, n_max - rk, C).values,
                 dp[rk - 1:])


@PROPERTY
@given(run_params(), st.data())
def test_dp_equals_exact_pgf_series_for_every_family(params, data):
    # the oracle's restart rule against the independently derived rational pgf
    families = [st.just(TYPE1), st.just(VariantSpec.type_ii()),
                st.integers(1, 3).map(VariantSpec.with_gap)]
    if params.k > 1:
        families.append(st.integers(1, params.k - 1).map(VariantSpec.with_overlap))
    variant = data.draw(st.one_of(families))
    dp = dp_waiting_time_pmf(params, CountingSemantics.from_variant(variant), N_MAX)
    assert _same(dp.values, series_pmf(params, N_MAX, variant).values)
    assert next(n for n, v in dp.items() if v) == support_min(params, variant)


@PROPERTY
@given(run_params(), st.integers(1, N_MAX))
def test_muselli_forms_equal_dp(params, n):
    want = dp_waiting_time_pmf(params, TYPE2_SEM, n).value(n)
    assert pmf_muselli(params, n, MuselliForm.ORIGINAL) == want
    assert pmf_muselli(params, n, MuselliForm.ALT) == want
    table = pmf_table(params, PmfEngine.MUSELLI_ALT, 1, n, variant=VariantSpec.type_ii())
    assert table.value(n) == want


def _at_least(params: RunParams, count: int, n_max: int) -> list:
    """P(at least ``count`` Type II runs in ``n`` trials) = P(W_count <= n), ``n = 1 .. n_max``."""
    if count == 0:
        return [Fraction(1)] * n_max
    dp = dp_waiting_time_pmf(RunParams(params.k, count, params.p), TYPE2_SEM, n_max)
    return list(accumulate(dp.values))


COUNTS_ENGINES = {MuselliForm.ORIGINAL: PmfEngine.MUSELLI_COUNTS_ORIGINAL,
                  MuselliForm.ALT: PmfEngine.MUSELLI_COUNTS_ALT}


@PROPERTY
@given(run_params(), st.booleans(), first_index(1, 120), st.integers(0, 20),
       st.sampled_from(MuselliForm), st.booleans())
def test_muselli_tables_equal_single_index_and_dp(params, exact, n_min, width, form, counts):
    # the waiting-time and run-count tables step the same bracket rows; each
    # single index is one seeded row
    params = params if exact else params.to_float()
    n_max = n_min + width
    ns = range(n_min, n_max + 1)
    if counts:  # params.r is the run count, as in the CLI's count tables
        table = tuple(ENGINES[COUNTS_ENGINES[form]].evaluate(params, n_min, n_max, 0, None))
        single = tuple(counts_muselli(params, n, params.r, form) for n in ns)
        exact_params = params.to_exact()
        at_least = [_at_least(exact_params, c, n_max)[n_min - 1:]
                    for c in (params.r, params.r + 1)]
        want = tuple(map(Fraction.__sub__, *at_least))
    else:
        engine = (PmfEngine.MUSELLI_ORIGINAL if form is MuselliForm.ORIGINAL
                  else PmfEngine.MUSELLI_ALT)
        table = pmf_table(params, engine, n_min, n_max, variant=VariantSpec.type_ii()).values
        single = tuple(pmf_muselli(params, n, form) for n in ns)
        want = dp_waiting_time_pmf(params.to_exact(), TYPE2_SEM, n_max).values[n_min - 1:]
    assert _same(table, single)
    assert table == tuple(map(params.finalize, want))


@PROPERTY
@given(run_params(), st.booleans(), first_index(0, 100), st.integers(0, 20))
def test_fullsum_tables_equal_single_index_and_dp(params, exact, n_min, width):
    # the table steps its bracket rows; each single index is one seeded row
    params = params if exact else params.to_float()
    rk = params.r * params.k
    n_max = n_min + width
    table = pmf_table(params, PmfEngine.FULLSUM_CH, n_min, n_max, C).values
    assert _same(table, tuple(pmf_fullsum_ch(params, n) for n in range(n_min, n_max + 1)))
    dp = dp_waiting_time_pmf(params.to_exact(), TYPE1_SEM, n_max + rk).values[n_min + rk - 1:]
    assert table == tuple(map(params.finalize, dp))


def _cut_single_index(params: RunParams, engine: PmfEngine):
    """The single-index function of a type1 sum engine, at a cut index."""
    rk = params.r * params.k
    return {PmfEngine.NESTED_SUM: lambda n: pmf_nested_sum(params, n, C),
            PmfEngine.HYP_SUM: lambda n: pmf_hyp(params, n, C),
            PmfEngine.PGF_EXPANSION: lambda n: pmf_pgf_expansion(params, n + rk)}[engine]


@PROPERTY
@given(run_params(), st.booleans(), first_index(0, 120), st.integers(0, 20),
       st.sampled_from((PmfEngine.NESTED_SUM, PmfEngine.HYP_SUM, PmfEngine.PGF_EXPANSION)))
def test_nested_hyp_pgf_tables_equal_single_index_and_dp(params, exact, n_min, width, engine):
    # the nested, hyp and pgf-expansion tables step their bracket rows, and
    # each single index is one seeded row
    params = params if exact else params.to_float()
    rk = params.r * params.k
    n_max = n_min + width
    table = pmf_table(params, engine, n_min, n_max, C).values
    single = _cut_single_index(params, engine)
    assert _same(table, tuple(single(n) for n in range(n_min, n_max + 1)))
    if exact:
        dp = dp_waiting_time_pmf(params, TYPE1_SEM, n_max + rk).values[n_min + rk - 1:]
        assert table == dp


@PROPERTY
@given(st.integers(1, 5), exact_p(), st.integers(1, N_MAX), st.data())
def test_counts_muselli_forms_equal_dp(k, p, n, data):
    params = RunParams(k, 1, p)
    r_count = data.draw(st.integers(0, (n + 1) // (k + 1) + 1))
    want = _at_least(params, r_count, n)[-1] - _at_least(params, r_count + 1, n)[-1]
    assert counts_muselli(params, n, r_count, MuselliForm.ORIGINAL) == want
    assert counts_muselli(params, n, r_count, MuselliForm.ALT) == want


@PROPERTY
@given(run_params(), st.integers(0, N_MAX))
def test_float_p_engines_round_the_same_exact_value(params, cut):
    # a float p enters the exact sums as its binary value; every engine then
    # rounds the same rational once
    fparams = params.to_float()
    want = float(pmf_nested_sum(fparams.to_exact(), cut, C))
    assert pmf_nested_sum(fparams, cut, C) == want
    assert pmf_hyp(fparams, cut, C) == want
    assert pmf_fullsum_ch(fparams, cut) == want
    assert pmf_pgf_expansion(fparams, cut + params.r * params.k) == want


@st.composite
def float_params(draw):
    """Float ``p`` with a full 53-bit significand, in ``[1/16, 1)``."""
    significand = draw(st.integers(2 ** 52, 2 ** 53 - 1)) | 1
    p = significand / 2 ** (53 + draw(st.integers(0, 3)))
    return RunParams(draw(st.integers(1, 6)), draw(st.integers(1, 5)), p)


@PROPERTY
@given(float_params(), st.integers(0, 800))
def test_float_nested_and_hyp_round_the_exact_value_deep(params, cut):
    # the fixed-point outer sum of a float p rounds the exact value correctly,
    # in the nested sum, its condensation, the pgf expansion and the Type II
    # forms alike
    exact = params.to_exact()
    want = float(pmf_nested_sum(exact, cut, C))
    n = cut + params.r * params.k
    for got in (pmf_nested_sum(params, cut, C), pmf_hyp(params, cut, C),
                pmf_pgf_expansion(params, n)):
        assert type(got) is float and got == want
    pairs = [(pmf_muselli, (form,)) for form in MuselliForm]
    pairs += [(counts_muselli, (r_count, form))
              for r_count in (0, params.r) for form in MuselliForm]
    for engine, args in pairs:
        got = engine(params, n, *args)
        assert type(got) is float and got == float(engine(exact, n, *args))
