from fractions import Fraction

import pytest

from runsdist.core import (IndexScheme, MomentKind, MomentSet, PmfTable, RunParams,
                           TYPE1, VariantSpec, convert_index,
                           shift_moments)

F, C = IndexScheme.FULL, IndexScheme.CUT


class TestRunParams:
    @pytest.mark.parametrize("k,r,p", [(0, 1, 0.5), (1, 0, 0.5), (-2, 1, 0.5),
                                       (1, 1, 0.0), (1, 1, 1.0), (1, 1, 1.5)])
    def test_rejects_bad_values(self, k, r, p):
        with pytest.raises(ValueError):
            RunParams(k, r, p)

    def test_rejects_bad_types(self):
        with pytest.raises(TypeError):
            RunParams(1, 1, "0.5")

    def test_q_is_exact_complement(self):
        params = RunParams(3, 2, Fraction(2, 7))
        assert params.p + params.q == 1
        assert params.exact
        fparams = RunParams(3, 2, 0.1)
        assert not fparams.exact
        assert abs(fparams.p + fparams.q - 1) < 1e-15

    def test_mode_conversions(self):
        params = RunParams(2, 1, 0.5)
        assert params.to_exact().p == Fraction(1, 2)
        assert params.to_exact().to_float() == params
        # exact_p of a float is its exact binary value
        assert RunParams(1, 1, 0.1).exact_p() == Fraction(0.1)


class TestVariantSpec:
    def test_parse(self):
        assert VariantSpec.parse("type1") == TYPE1
        assert VariantSpec.parse("type2").type2
        assert VariantSpec.parse("overlap=2").overlap == 2
        assert VariantSpec.parse("gap=3").gap == 3
        with pytest.raises(ValueError):
            VariantSpec.parse("bogus")

    def test_type2_excludes_overlap(self):
        with pytest.raises(ValueError):
            VariantSpec(overlap=1, type2=True)

    def test_overlap_bound_needs_k(self):
        params = RunParams(3, 1, 0.5)
        VariantSpec(overlap=2).check_against(params)
        with pytest.raises(ValueError):
            VariantSpec(overlap=3).check_against(params)

    def test_describe(self):
        assert TYPE1.describe() == "type1"
        assert VariantSpec.with_gap(2).describe() == "gap=2"


class TestContainers:
    def test_pmf_table_access(self):
        params = RunParams(2, 1, Fraction(1, 2))
        t = PmfTable(params, F, TYPE1, 2,
                     (Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))
        assert t.n_max == 4
        assert t.value(3) == Fraction(1, 8)
        assert list(t.items())[0] == (2, Fraction(1, 4))
        assert t.total_mass() == Fraction(1, 2)
        with pytest.raises(IndexError):
            t.value(5)

    def test_pmf_table_rejects_bad_mass(self):
        params = RunParams(1, 1, 0.5)
        with pytest.raises(ValueError):
            PmfTable(params, F, TYPE1, 1, (0.7, 0.7))
        with pytest.raises(ValueError):
            PmfTable(params, F, TYPE1, 1, (-0.1,))

    def test_moment_set(self):
        ms = MomentSet(MomentKind.RAW, C, (Fraction(2), Fraction(5)))
        assert ms.order_max == 2
        assert ms.value(0) == 1
        assert ms.value(2) == 5
        with pytest.raises(IndexError):
            ms.value(3)


class TestConvertIndex:
    def test_spec_cases(self):
        params = RunParams(2, 3, 0.5)
        assert convert_index(6, F, C, params) == 0
        assert convert_index(0, C, F, params) == 6
        assert convert_index(10, F, F, params) == 10

    def test_round_trip(self):
        params = RunParams(4, 2, Fraction(1, 3))
        for n in range(-5, 40):
            assert convert_index(convert_index(n, F, C, params), C, F, params) == n


class TestMomentShifts:
    def test_factorial_shift_low_orders(self):
        # order 1: full = cut + rk; order 2: full = cut2 + 2rk cut1 + rk(rk-1)
        params = RunParams(3, 2, Fraction(2, 5))
        rk = 6
        cut = MomentSet(MomentKind.FACTORIAL, C, (Fraction(7, 2), Fraction(19, 3)))
        full = shift_moments(cut, params.r * params.k)
        assert full.value(1) == cut.value(1) + rk
        assert full.value(2) == cut.value(2) + 2 * rk * cut.value(1) + rk * (rk - 1)

    def test_raw_shift_low_orders(self):
        params = RunParams(3, 2, Fraction(2, 5))
        rk = 6
        cut = MomentSet(MomentKind.RAW, C, (Fraction(7, 2), Fraction(19, 3)))
        full = shift_moments(cut, params.r * params.k)
        assert full.value(1) == cut.value(1) + rk
        assert full.value(2) == cut.value(2) + 2 * rk * cut.value(1) + rk ** 2

    def test_geometric_mean_shift(self):
        # k = 1, r = 1, p = 1/2: cut mean 1 shifts to the full mean 2
        params = RunParams(1, 1, Fraction(1, 2))
        cut = MomentSet(MomentKind.FACTORIAL, C, (Fraction(1),))
        assert shift_moments(cut, params.r * params.k).value(1) == 2

    def test_waiting_time_mean_shift(self):
        # k = 2, r = 1, p = 1/2: cut raw mean 4 shifts to the full mean 6
        params = RunParams(2, 1, Fraction(1, 2))
        cut = MomentSet(MomentKind.RAW, C, (Fraction(4),))
        assert shift_moments(cut, params.r * params.k).value(1) == 6

    def test_shift_validates_input(self):
        central = MomentSet(MomentKind.CENTRAL, F, (0.0,))
        with pytest.raises(ValueError):
            shift_moments(central, 2)
