"""Property tests: the exact sum engines equal the DP oracle bit for bit.

Parameters are drawn beyond the hand-picked grids of the other suites:
``k <= 5``, ``r <= 4``, ``p = a/d`` with ``d <= 30`` and ``n <= 60``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from runsdist.core import IndexScheme, RunParams, VariantSpec
from runsdist.oracle import CountingMode, CountingSemantics, dp_waiting_time_pmf
from runsdist.pmf import (MuselliForm, PmfEngine, counts_muselli, pmf_fullsum_ch,
                          pmf_hyp, pmf_muselli, pmf_nested_sum, pmf_pgf_expansion,
                          pmf_table)

F, C = IndexScheme.FULL, IndexScheme.CUT
TYPE1_SEM = CountingSemantics(CountingMode.NON_OVERLAPPING)
TYPE2_SEM = CountingSemantics(CountingMode.FAILURE_SEPARATED)
N_MAX = 60

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@st.composite
def exact_p(draw):
    d = draw(st.integers(2, 30))
    return Fraction(draw(st.integers(1, d - 1)), d)


@st.composite
def run_params(draw):
    return RunParams(draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(exact_p()))


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


@PROPERTY
@given(run_params(), st.integers(1, N_MAX))
def test_muselli_forms_equal_dp(params, n):
    want = dp_waiting_time_pmf(params, TYPE2_SEM, n).value(n)
    assert pmf_muselli(params, n, MuselliForm.ORIGINAL) == want
    assert pmf_muselli(params, n, MuselliForm.ALT) == want
    table = pmf_table(params, PmfEngine.MUSELLI_ALT, 1, n, variant=VariantSpec.type_ii())
    assert table.value(n) == want


def _at_least(params: RunParams, count: int, n: int) -> Fraction:
    """P(at least ``count`` Type II runs in ``n`` trials) = P(W_count <= n)."""
    if count == 0:
        return Fraction(1)
    dp = dp_waiting_time_pmf(RunParams(params.k, count, params.p), TYPE2_SEM, n)
    return sum(dp.values, Fraction(0))


@PROPERTY
@given(st.integers(1, 5), exact_p(), st.integers(1, N_MAX), st.data())
def test_counts_muselli_forms_equal_dp(k, p, n, data):
    params = RunParams(k, 1, p)
    r_count = data.draw(st.integers(0, (n + 1) // (k + 1) + 1))
    want = _at_least(params, r_count, n) - _at_least(params, r_count + 1, n)
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
