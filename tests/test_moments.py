import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runsdist import moments
from runsdist.core import TYPE1, IndexScheme, MomentKind, PmfTable, RunParams, VariantSpec
from runsdist.moments import (MomentRoute, SummationWindowNotClosed, central_moments, mean,
                              moments_by_summation, moments_from_table, moments_via_route,
                              shape_from_central, variance)
from runsdist.oracle import CountingSemantics, dp_waiting_time
from runsdist.pmf import pmf_recurrence_pg

from reference import (coeff_C, coeff_C_hyp, coeff_F, coeff_F_hyp, coeff_raw,
                       moments_from_table_lists, mu_factorial_truncated,
                       pgf_expansion_inner_reference, raw_from_factorial, shift_moments)

F, C = IndexScheme.FULL, IndexScheme.CUT
FACT, RAW, CENTRAL = MomentKind.FACTORIAL, MomentKind.RAW, MomentKind.CENTRAL
REC, PART, PGF = MomentRoute.RECURRENCE, MomentRoute.PARTITION, MomentRoute.PGF
HALF = Fraction(1, 2)
TYPE2 = VariantSpec.type_ii()

GRID = [(k, r, Fraction(num, 10)) for k in (1, 2, 3) for r in (1, 2, 3)
        for num in (2, 5, 8)]


class TestCoefficients:
    def test_first_order_values(self):
        assert coeff_C(RunParams(1, 1, HALF), 1) == 1
        assert coeff_F(RunParams(2, 1, HALF), 1) == 6
        params = RunParams(3, 2, Fraction(2, 7))
        p, q, k = params.p, params.q, 3
        assert coeff_F(params, 1) == (1 - p ** k) / (q * p ** k)

    def test_full_minus_cut_is_k(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            assert coeff_F(params, 1) - coeff_C(params, 1) == k

    def test_cut_family_vanishes_beyond_k(self):
        for k in (1, 2, 3):
            params = RunParams(k, 2, Fraction(3, 10))
            for j in range(k + 1, k + 4):
                assert coeff_C(params, j) == 0

    def test_hypergeometric_forms_match(self):
        for k in range(1, 7):
            for pv in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
                params = RunParams(k, 1, pv)
                for j in range(1, k + 1):
                    assert coeff_C_hyp(params, j) == coeff_C(params, j)
                    assert coeff_F_hyp(params, j) == coeff_F(params, j)

    def test_raw_equals_factorial_at_order_one(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            assert coeff_raw(params, 1, C) == coeff_C(params, 1)
            assert coeff_raw(params, 1, F) == coeff_F(params, 1)

    def test_truncated_run_moment(self):
        # direct expectation of (X)_j for X on [1, k] with P(X=i) = q p^(i-1)/(1-p^k)
        from runsdist.special import falling

        for k, pv in ((1, HALF), (3, Fraction(2, 7)), (4, Fraction(9, 10))):
            params = RunParams(k, 1, pv)
            p, q = params.p, params.q
            norm = 1 - p ** k
            for j in range(1, k + 1):
                want = sum(falling(i, j) * q * p ** (i - 1) for i in range(1, k + 1)) / norm
                assert mu_factorial_truncated(params, j) == want

    def test_family_container(self):
        params = RunParams(2, 1, HALF)
        assert coeff_F(params, 1) == 6
        assert coeff_F(params, 2) == -20


class TestFactorialMomentRoutes:
    def test_recurrence_low_orders(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            ms = moments_via_route(params, REC, FACT, C, 2)
            c1, c2 = coeff_C(params, 1), coeff_C(params, 2) if k >= 2 else 0
            assert ms.value(1) == r * c1
            if k >= 2:
                assert ms.value(2) == r * (r + 1) * c1 ** 2 + r * c2

    def test_partition_matches_recurrence(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            rec = moments_via_route(params, REC, FACT, C, 6)
            part = moments_via_route(params, PART, FACT, C, 6)
            assert rec.values == part.values

    def test_full_partition_matches_shift(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            cut = moments_via_route(params, REC, FACT, C, 6)
            full = moments_via_route(params, PART, FACT, F, 6)
            assert shift_moments(cut.values, params.r * params.k, True) == full.values

    def test_pgf_route(self):
        params = RunParams(2, 1, 0.5)
        ms = moments_via_route(params, PGF, FACT, F, 2)
        assert ms.value(1) == 6
        assert ms.value(2) == 52
        geo = moments_via_route(RunParams(1, 1, 0.25), PGF, FACT, F, 1)
        assert geo.value(1) == 4  # geometric mean 1/p

    def test_pgf_inner_reference_identity(self):
        # the nested binomial sums of the pgf-expansion double sum equal the series division
        for k, r, pv in ((1, 1, HALF), (2, 3, Fraction(3, 10)), (4, 2, Fraction(1, 5))):
            params = RunParams(k, r, pv)
            from runsdist.special import _poly_pow

            p = Fraction(params.p)
            q = 1 - p
            base = [0] * (k + 2)
            base[0], base[1], base[k + 1] = 1, -1, q * p ** k
            den = _poly_pow(base, r)
            T = []
            for j in range(41):
                acc = Fraction(int(j == 0))
                for u in range(1, min(j, len(den) - 1) + 1):
                    acc -= den[u] * T[j - u]
                T.append(acc)
                assert pgf_expansion_inner_reference(params, j) == acc


class TestPgfRoute:
    """The rational-pgf expansion: exact for every family, rounded once in floats."""

    def test_equals_partition_exactly(self):
        for k in range(1, 5):
            for r in range(1, 4):
                for pv in (Fraction(3, 10), Fraction(2, 7)):
                    params = RunParams(k, r, pv)
                    for order in range(1, 7):
                        assert (moments_via_route(params, PGF, FACT, F, order).values
                                == moments_via_route(params, PART, FACT, F, order).values)

    def test_gap_is_shifted_type1(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            base = moments_via_route(params, PGF, FACT, F, 5)
            for g in (1, 3):
                got = moments_via_route(params, PGF, FACT, F, 5, VariantSpec.with_gap(g))
                assert got.values == shift_moments(base.values, (r - 1) * g, True)

    def test_type2_mean_and_variance(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            one = RunParams(k, 1, pv)
            q = 1 - pv
            fm = moments_via_route(params, PGF, FACT, F, 2, TYPE2)
            mu = fm.value(1)
            assert mu == r * mean(one) + Fraction(r - 1) / q
            assert fm.value(2) + mu - mu * mu == r * variance(one) + (r - 1) * pv / q ** 2

    @pytest.mark.parametrize("p", [0.4, 0.6, 0.8])
    def test_overlap_matches_dp_sum(self, p):
        for k in range(2, 5):
            for ell in range(1, k):
                variant = VariantSpec.with_overlap(ell)
                for r in range(1, 4):
                    params = RunParams(k, r, p)
                    table, deficit = dp_waiting_time(
                        params, CountingSemantics.from_variant(variant), 3000)
                    assert deficit < 1e-15
                    want = moments_from_table(table, 3, MomentKind.FACTORIAL).values
                    got = moments_via_route(params, PGF, FACT, F, 3, variant).values
                    for a, b in zip(got, want):
                        assert abs(a - b) <= 1e-13 * b

    @pytest.mark.parametrize("point, order", [((2, 3, 0.6), 3), ((4, 3, 0.7), 5)])
    def test_float_central_rounded_once(self, point, order):
        # central moments from float raw moments cancel; from exact ones they do not
        params = RunParams(*point)
        exact = moments_via_route(params.to_exact(), PGF, CENTRAL, F, order)
        got = moments_via_route(params, MomentRoute.PGF, MomentKind.CENTRAL, F, order)
        sd = math.sqrt(exact.value(2))
        for j in range(1, order + 1):
            assert got.value(j) == float(exact.value(j))
            assert abs(got.value(j) - exact.value(j)) <= 1e-12 * sd ** j

    def test_route_serves_every_family(self):
        params = RunParams(3, 2, Fraction(2, 5))
        for variant in (TYPE2, VariantSpec.with_overlap(2), VariantSpec.with_gap(2)):
            raw = moments_via_route(params, MomentRoute.PGF, MomentKind.RAW, F, 4, variant)
            fact = moments_via_route(params, PGF, FACT, F, 4, variant)
            assert raw.values == raw_from_factorial(fact.values)

    def test_other_routes_shift_gap_and_reject_the_rest(self):
        params = RunParams(3, 2, Fraction(2, 5))
        gap = VariantSpec.with_gap(2)
        want = moments_via_route(params, MomentRoute.PGF, MomentKind.RAW, F, 4, gap)
        for route in (MomentRoute.RECURRENCE, MomentRoute.PARTITION):
            assert moments_via_route(params, route, MomentKind.RAW, F, 4, gap) == want
            with pytest.raises(ValueError):
                moments_via_route(params, route, MomentKind.RAW, C, 4, gap)
        rejected = [(route, TYPE2) for route in MomentRoute if route is not MomentRoute.PGF]
        rejected += [(route, VariantSpec.with_overlap(1)) for route in
                     (MomentRoute.RECURRENCE, MomentRoute.PARTITION, MomentRoute.SUMMATION)]
        for route, variant in rejected:
            with pytest.raises(ValueError):
                moments_via_route(params.to_float(), route, MomentKind.RAW, F, 4, variant)


class TestRawAndStirling:
    def test_stirling_relation_order2(self):
        # raw_2 - raw_1 = factorial_2
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            raw = moments_via_route(params, PART, RAW, C, 2)
            fact = moments_via_route(params, PART, FACT, C, 2)
            assert raw.value(1) == fact.value(1)
            assert raw.value(2) - raw.value(1) == fact.value(2)

    def test_raw_is_stirling_transform(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            raw = moments_via_route(params, PART, RAW, F, 5)
            fact = moments_via_route(params, PART, FACT, F, 5)
            assert raw.values == raw_from_factorial(fact.values)

    def test_desk_values(self):
        raw = moments_via_route(RunParams(2, 1, HALF), PART, RAW, F, 2)
        assert raw.values == (6, 58)

    def test_variance_is_scheme_independent(self):
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            cut = moments_via_route(params, PART, FACT, C, 2)
            full = moments_via_route(params, PART, FACT, F, 2)
            var_cut = cut.value(2) - cut.value(1) ** 2 + cut.value(1)
            var_full = full.value(2) - full.value(1) ** 2 + full.value(1)
            assert var_cut == var_full == variance(params)


class TestClosedForms:
    def test_desk_mean_variance(self):
        params = RunParams(2, 1, HALF)
        assert mean(params) == 6
        assert mean(params, C) == 4
        assert variance(params) == 22

    def test_against_summation(self):
        for k, r, pv in ((1, 1, 0.25), (2, 2, 0.5), (3, 1, 0.75), (4, 3, 0.5)):
            params = RunParams(k, r, pv)
            ms = moments_by_summation(params, 2, MomentKind.RAW, F)
            assert abs(ms.value(1) - mean(params)) <= 1e-10 * mean(params)
            var = ms.value(2) - ms.value(1) ** 2
            assert abs(var - variance(params)) <= 1e-8 * variance(params)

    def test_summation_window_cap_raises_by_name(self, monkeypatch):
        monkeypatch.setattr(moments, "_WINDOW_DOUBLINGS", 0)
        with pytest.raises(SummationWindowNotClosed, match="after 0 window doublings"):
            moments_by_summation(RunParams(2, 1, 0.5), 2, MomentKind.RAW, F)

    def test_summation_closes_on_a_zero_first_central_moment(self, monkeypatch):
        # the first central moment is about 0, so the window is judged against sd instead
        monkeypatch.setattr(moments, "_WINDOW_DOUBLINGS", 3)
        ms = moments_via_route(RunParams(1, 4, HALF), MomentRoute.SUMMATION, CENTRAL, F, 1,
                               VariantSpec.with_gap(2))
        assert abs(ms.value(1)) <= 1e-12


class TestCentralMoments:
    def test_desk_variance(self):
        cm = central_moments(RunParams(2, 1, HALF), 2)
        assert cm.value(1) == 0
        assert cm.value(2) == 22

    def test_families_agree(self):
        # the cut and full raw families must give identical central moments
        for k, r, pv in GRID:
            params = RunParams(k, r, pv)
            t = {j: coeff_raw(params, j, C) for j in range(1, 5)}
            u = {j: coeff_raw(params, j, F) for j in range(1, 5)}
            for fam in (t, u):
                assert r * (fam[1] ** 2 + fam[2]) == central_moments(params, 2).value(2)
            m3_c = r * (2 * t[1] ** 3 + 3 * t[1] * t[2] + t[3])
            m3_f = r * (2 * u[1] ** 3 + 3 * u[1] * u[2] + u[3])
            assert m3_c == m3_f

    def test_matches_summation_route(self):
        for k, r, pv in ((1, 1, 0.5), (2, 2, 0.4), (3, 1, 0.7)):
            params = RunParams(k, r, pv)
            cm = central_moments(params, 4)
            sm = moments_by_summation(params, 4, MomentKind.CENTRAL)
            for order in (2, 3, 4):
                assert abs(float(cm.value(order)) - sm.value(order)) \
                    <= 1e-8 * abs(float(cm.value(order)))

    def test_geometric_skewness_closed_form(self):
        params = RunParams(1, 1, 0.5)
        gamma, excess = shape_from_central(central_moments(params.to_exact(), 4))
        p, q = 0.5, 0.5
        assert abs(gamma - (2 - p) / math.sqrt(1 - p)) < 1e-12
        assert abs(excess - (6 + p ** 2 / q)) < 1e-11

    def test_scaling_in_r(self):
        k, pv = 2, Fraction(2, 5)
        base = None
        for r in range(1, 9):
            gamma, excess = shape_from_central(central_moments(RunParams(k, r, pv).to_exact(), 4))
            probe = (gamma * math.sqrt(r), excess * r)
            if base is None:
                base = probe
            else:
                assert abs(probe[0] - base[0]) <= 1e-10 * abs(base[0])
                assert abs(probe[1] - base[1]) <= 1e-10 * abs(base[1])

    def test_exact_linearity_in_r(self):
        k, pv = 3, Fraction(3, 10)
        ref = central_moments(RunParams(k, 1, pv), 4)
        for r in (2, 5):
            cm = central_moments(RunParams(k, r, pv), 4)
            assert cm.value(2) == r * ref.value(2)
            assert cm.value(3) == r * ref.value(3)
            excess_ref = ref.value(4) - 3 * ref.value(2) ** 2
            assert cm.value(4) - 3 * cm.value(2) ** 2 == r * excess_ref

    def test_order_cap(self):
        with pytest.raises(ValueError):
            central_moments(RunParams(2, 1, 0.5), 5)


class TestRouteFrontEnd:
    def test_all_routes_agree(self):
        params = RunParams(2, 2, 0.5)
        sets = [moments_via_route(params, route, MomentKind.FACTORIAL, F, 4)
                for route in MomentRoute]
        ref = [float(v) for v in sets[0].values]
        for ms in sets[1:]:
            for a, b in zip(ms.values, ref):
                assert abs(float(a) - b) <= 1e-9 * abs(b)

    def test_central_via_any_route(self):
        params = RunParams(2, 1, 0.5)
        for route in MomentRoute:
            cm = moments_via_route(params, route, MomentKind.CENTRAL, F, 2)
            assert abs(float(cm.value(2)) - 22) < 1e-8 * 22

    @pytest.mark.parametrize("scheme", [F, C])
    def test_central_carries_the_requested_scheme(self, scheme):
        params = RunParams(2, 2, HALF)
        sets = {route: moments_via_route(params, route, CENTRAL, scheme, 4)
                for route in MomentRoute}
        assert {ms.scheme for ms in sets.values()} == {scheme}
        assert sets[REC] == sets[PART] == sets[PGF]  # the exact routes, label included

    @pytest.mark.parametrize("point", [(1, 3, 0.4), (2, 2, 0.5), (3, 2, 0.6)])
    def test_float_routes_shift_to_the_gap(self, point):
        # root and summation: gap factorial and raw moments match the exact pgf's,
        # and gap central moments are the type1 ones
        params = RunParams(*point)
        for route in (MomentRoute.ROOT, MomentRoute.SUMMATION):
            type1 = moments_via_route(params, route, CENTRAL, F, 4)
            for g in (1, 2, 3):
                gap = VariantSpec.with_gap(g)
                for kind in (FACT, RAW):
                    got = moments_via_route(params, route, kind, F, 4, gap)
                    want = moments_via_route(params.to_exact(), PGF, kind, F, 4, gap)
                    for a, b in zip(got.values, want.values):
                        assert abs(a - b) <= 1e-9 * b
                assert moments_via_route(params, route, CENTRAL, F, 4, gap) == type1

    def test_full_only_routes_reject_cut(self):
        params = RunParams(2, 1, 0.5)
        for route in (MomentRoute.PGF, MomentRoute.ROOT):
            with pytest.raises(ValueError):
                moments_via_route(params, route, MomentKind.FACTORIAL, C, 2)

    def test_summation_from_table_exact(self):
        # moments_from_table works in exact mode on an exact table
        params = RunParams(1, 1, HALF)
        table = pmf_recurrence_pg(params, 60)
        ms = moments_from_table(table, 1, MomentKind.RAW)
        # truncated mean of the geometric law: sum_{n<=60} n (1/2)^n
        want = sum(Fraction(n, 2 ** n) for n in range(1, 61))
        assert ms.value(1) == want


def _random_table(rnd: random.Random, exact: bool) -> PmfTable:
    """A table of random masses under 1 at a random start, in a random scheme.

    Float masses span thirty decades, so the order of the sum shows in its
    rounding; a full-scheme table may start below ``r*k``, so reading it in the
    cut scheme starts at a negative index.
    """
    params = RunParams(rnd.randint(1, 4), rnd.randint(1, 3), HALF if exact else 0.5)
    length = rnd.randint(1, 300)
    if exact:
        den = rnd.randint(1, 40) * length
        values = tuple(Fraction(rnd.randint(0, 1), den) for _ in range(length))
    else:
        values = tuple(rnd.random() * 10.0 ** -rnd.randint(0, 30) / length
                       for _ in range(length))
    scheme = rnd.choice((F, C))
    n_min = rnd.randint(1 if scheme is F else 0, params.r * params.k + 5)
    return PmfTable(params, scheme, TYPE1, n_min, values)


class TestMomentsFromTable:
    """The summation makes each order's weights one index at a time."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_same_bits_as_the_list_based_sums(self, exact):
        rnd = random.Random(f"moments_from_table:{exact}")
        negative = 0
        for _ in range(60):
            table = _random_table(rnd, exact)
            order = rnd.randint(1, 8)
            for kind in (FACT, RAW):
                for scheme in (C, F):
                    got = moments_from_table(table, order, kind, scheme)
                    want = moments_from_table_lists(table, order, kind, scheme)
                    assert got == want
                    assert repr(got) == repr(want)  # types and signed zeros too
            negative += table.scheme is F and table.n_min < table.params.r * table.params.k
        assert negative > 5

    def test_full_table_read_in_the_cut_scheme(self):
        # the DP's table starts at trial 1, index -5 in the cut scheme: math.perm
        # would refuse the negative indices
        table = dp_waiting_time(RunParams(2, 3, Fraction(2, 3)),
                                CountingSemantics.from_variant(TYPE1), 60)[0]
        assert table.n_min == 1
        for kind in (FACT, RAW):
            got = moments_from_table(table, 6, kind, C)
            assert got == moments_from_table_lists(table, 6, kind, C)
        assert moments_from_table(table, 2, FACT, C).value(2) == sum(
            n * (n - 1) * v for n, v in zip(range(-5, 55), table.values))

    def test_scratch_memory_is_bounded(self):
        # one list of 85k weights, as the list-based sums held, takes about
        # 3 MB of int objects; made per index, the weights take none
        table = pmf_recurrence_pg(RunParams(3, 2, 0.02), 85_000)
        assert len(table.values) > 84_000
        tracemalloc.start()
        try:
            for kind in MomentKind:
                moments_from_table(table, 6, kind, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100_000


PROPERTY = settings(deadline=None, database=None)
KIND_SCHEMES = ((FACT, C), (FACT, F), (RAW, C), (RAW, F), (CENTRAL, F))


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 4), st.floats(0.05, 0.95), st.integers(1, 6),
       st.integers(1, 3))
def test_float_moments_are_the_exact_value_rounded_once(k, r, p, order, g):
    """Every exact-internal route and closed form rounds its exact value once in float mode."""
    params = RunParams(k, r, p)
    exact = params.to_exact()

    def once(fn):
        got, want = fn(params), fn(exact)
        got, want = getattr(got, "values", (got,)), getattr(want, "values", (want,))
        assert all(type(v) is float for v in got)
        assert got == tuple(float(v) for v in want)

    gap = VariantSpec.with_gap(g)
    for route in (MomentRoute.PARTITION, MomentRoute.RECURRENCE, MomentRoute.PGF):
        families = [TYPE1, gap]
        if route is MomentRoute.PGF:
            families += [TYPE2] + ([VariantSpec.with_overlap(k - 1)] if k > 1 else [])
        for variant in families:
            for kind, scheme in KIND_SCHEMES:
                if scheme is C and (route is MomentRoute.PGF or variant.is_gap):
                    continue
                once(lambda ps: moments_via_route(ps, route, kind, scheme, order, variant))
    for scheme in (C, F):
        once(lambda ps: mean(ps, scheme))
    once(variance)
    once(lambda ps: central_moments(ps, min(order, 4)))


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 4), st.integers(2, 20), st.data(), st.integers(1, 10),
       st.integers(0, 3))
def test_exact_routes_agree(k, r, d, data, order, g):
    """The partition, recurrence, pgf and closed-form values are the same fractions."""
    params = RunParams(k, r, Fraction(data.draw(st.integers(1, d - 1)), d))
    variant = VariantSpec(overlap=-g)  # type1 at g = 0
    rec = moments_via_route(params, REC, FACT, C, order)
    assert moments_via_route(params, PART, FACT, C, order).values == rec.values
    full = moments_via_route(params, PART, FACT, F, order)
    assert full.values == shift_moments(rec.values, r * k, True)
    routes = {}
    for kind, scheme in KIND_SCHEMES:
        var = variant if scheme is F else TYPE1
        part, got = (moments_via_route(params, route, kind, scheme, order, var)
                     for route in (MomentRoute.PARTITION, MomentRoute.RECURRENCE))
        assert got.values == part.values
        routes[kind, scheme] = part.values
        if scheme is F:
            pgf = moments_via_route(params, MomentRoute.PGF, kind, F, order, var)
            assert pgf.values == part.values
    assert shift_moments(full.values, (r - 1) * g, True) == routes[FACT, F]
    assert central_moments(params, min(order, 4)).values == routes[CENTRAL, F][:4]
    assert mean(params, C) == routes[RAW, C][0]
    assert mean(params) == moments_via_route(params, PART, RAW, F, 1).value(1)
    if order >= 2:
        assert variance(params) == routes[CENTRAL, F][1]
