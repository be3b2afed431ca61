import math
import random
from fractions import Fraction

import pytest

from runsdist.core import (IndexScheme, MomentKind, MomentSet, PmfTable, PowerRatio,
                           RunParams, TYPE1, VariantSpec, convert_index)
from runsdist.moments import MomentRoute, moments_via_route

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


def _same_fraction(got, want) -> bool:
    """Equal in type, numerator, denominator and hash: the canonical fraction."""
    return (type(got) is Fraction and got.numerator == want.numerator
            and got.denominator == want.denominator and hash(got) == hash(want))


class TestPowerRatio:
    @pytest.mark.parametrize("d", [2, 4, 12, 18, 20, 49])
    def test_exact_mode_is_the_canonical_fraction(self, d):
        rng = random.Random(d)
        ratio = PowerRatio(RunParams(2, 1, Fraction(1, d)))
        primes = [f for f in (2, 3, 5, 7) if d % f == 0]
        for _ in range(600):
            e = rng.randint(0, 40)
            # numerators of either sign carrying up to twice as many factors
            # of each prime of d as d^e holds (at most 2e here)
            num = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300))
            for f in primes:
                num *= f ** rng.randint(0, 4 * e + 2)
            want = Fraction(num, d ** e)
            assert _same_fraction(ratio(num, e), want)
        for num in (0, 1, -1, d, -(d ** 3), 10 ** 50):
            assert _same_fraction(ratio(num, 3), Fraction(num, d ** 3))
            assert _same_fraction(ratio(num, 0), Fraction(num))

    def test_zero_is_zero_over_one(self):
        got = PowerRatio(RunParams(2, 1, Fraction(3, 20)))(0, 17)
        assert _same_fraction(got, Fraction(0)) and got.denominator == 1

    def test_exponents_that_fall_and_repeat(self):
        ratio = PowerRatio(RunParams(2, 1, Fraction(5, 12)))
        for e in (9, 9, 3, 12, 0, 12, 40):
            assert _same_fraction(ratio(6 ** 7 * 5, e), Fraction(6 ** 7 * 5, 12 ** e))

    def test_denominator_past_trial_division_takes_the_constructor(self):
        d = 1031 * 1033  # both primes past the trial divisors, product past their square
        ratio = PowerRatio(RunParams(1, 1, Fraction(1, d)))
        for num in (1031 ** 3 * 7, -(d ** 2), 12345):
            assert _same_fraction(ratio(num, 4), Fraction(num, d ** 4))

    def test_float_mode_rounds_like_ratio(self):
        params = RunParams(2, 1, 0.3)
        d = Fraction(params.p).denominator
        ratio = PowerRatio(params)
        rng = random.Random(7)
        for e in (1, 2, 5, 9, 9, 20):
            num = rng.getrandbits(d.bit_length() * e)
            got = ratio(num, e)
            assert type(got) is float and got == num / d ** e

    def test_float_mode_rounds_like_fraction(self):
        rng = random.Random(20261019)
        subnormal = 0
        for _ in range(400):
            params = RunParams(2, 1, rng.choice((0.5, 0.375, 0.3, 0.1)))
            d = Fraction(params.p).denominator  # 2^z for a float p
            num_bits = rng.randint(1, 20000)
            # quotients near 2^-shift: ordinary values, then the subnormal
            # range down to the underflow to zero
            shift = rng.choice((rng.randint(-2, 60), rng.randint(1015, 1080)))
            e = max(0, (num_bits + shift) // (d.bit_length() - 1))
            num = rng.getrandbits(num_bits)
            got = PowerRatio(params)(num, e)
            exact = Fraction(num, d ** e)
            assert type(got) is float
            assert got == float(exact)
            # correctly rounded: no neighbouring double is closer
            for other in (math.nextafter(got, 0.0), math.nextafter(got, 1.0)):
                assert abs(Fraction(got) - exact) <= abs(Fraction(other) - exact)
            subnormal += 0 < got < 2.2250738585072014e-308
        assert subnormal > 50


class TestVariantSpec:
    def test_parse(self):
        assert VariantSpec.parse("type1") == TYPE1
        assert VariantSpec.parse("type2").type2
        assert VariantSpec.parse("overlap=2").overlap == 2
        assert VariantSpec.parse("gap=3").gap == 3
        # a rejected form names the accepted ones, not a Python-API hint
        for bad in ("bogus", "overlap=-1", "overlap=x", "overlap=", "overlap", "gap=0",
                    "gap=-2", "gap=1.5", "type3"):
            with pytest.raises(ValueError, match=r"expected type1, type2, overlap=L with "
                                                 r"an integer L >= 0 or gap=G with an "
                                                 r"integer G >= 1"):
                VariantSpec.parse(bad)

    def test_type2_excludes_overlap(self):
        with pytest.raises(ValueError):
            VariantSpec(overlap=1, type2=True)

    def test_overlap_must_be_an_integer(self):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="overlap must be an integer"):
                VariantSpec(overlap=bad)

    def test_with_overlap_refuses_a_negative_overlap(self):
        with pytest.raises(ValueError, match="use with_gap for negative overlap"):
            VariantSpec.with_overlap(-1)

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
        assert sum(t.values) == Fraction(1, 2)
        with pytest.raises(IndexError):
            t.value(5)

    def test_pmf_table_rejects_bad_mass(self):
        params = RunParams(1, 1, 0.5)
        with pytest.raises(ValueError):
            PmfTable(params, F, TYPE1, 1, (0.7, 0.7))
        with pytest.raises(ValueError):
            PmfTable(params, F, TYPE1, 1, (-0.1,))
        for bad in ((math.nan,), (0.5, math.nan), (math.inf,)):
            with pytest.raises(ValueError):
                PmfTable(params, F, TYPE1, 1, bad)

    def test_exact_pmf_table_mass_bound_is_the_double(self):
        # the bound is the exact value of the double 1 + 1e-9, as in float mode
        params = RunParams(1, 1, Fraction(1, 2))
        bound = Fraction(1 + 1e-9)
        PmfTable(params, F, TYPE1, 1, (Fraction(1, 2), bound - Fraction(1, 2)))
        over = bound - Fraction(1, 2) + Fraction(1, 10 ** 40)
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (Fraction(1, 2), over))
        assert str(err.value) == f"pmf mass exceeds 1: {Fraction(1, 2) + over!r}"
        # a reduced value can have a smaller denominator than the ones before it
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (Fraction(1, 8), Fraction(1, 2), Fraction(1, 2)))
        assert str(err.value) == "pmf mass exceeds 1: Fraction(9, 8)"

    def test_exact_pmf_table_rejects_bad_values(self):
        params = RunParams(1, 1, Fraction(1, 2))
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (Fraction(1, 4), Fraction(-1, 8)))
        assert str(err.value) == "pmf value out of [0, 1]: Fraction(-1, 8)"
        above = Fraction(1 + 1e-9) + Fraction(1, 2 ** 200)
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (0, above))
        assert str(err.value) == f"pmf value out of [0, 1]: {above!r}"
        # a single value at the bound passes
        PmfTable(params, F, TYPE1, 1, (Fraction(1 + 1e-9),))

    def test_exact_pmf_table_takes_int_zeros(self):
        # the DP oracle emits int 0 below the support
        params = RunParams(2, 1, Fraction(1, 2))
        t = PmfTable(params, F, TYPE1, 1, (0, Fraction(1, 4), Fraction(1, 8)))
        assert sum(t.values) == Fraction(3, 8)
        PmfTable(params, F, TYPE1, 1, (0, 0, 1))
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (0, 1, 1))
        assert str(err.value) == "pmf mass exceeds 1: 2"
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (0, Fraction(1), 1))
        assert str(err.value) == "pmf mass exceeds 1: Fraction(2, 1)"

    def test_exact_pmf_table_without_a_common_denominator(self):
        # 1/4 and 1/9 are reduced values over powers of 6, and neither
        # denominator divides the other, so the mass moves to their multiple
        params = RunParams(1, 1, Fraction(1, 6))
        PmfTable(params, F, TYPE1, 1, (Fraction(1, 4), Fraction(1, 9), Fraction(1, 6)))
        PmfTable(params, F, TYPE1, 1, (Fraction(1, 4), Fraction(3, 4) + Fraction(1, 10 ** 10)))
        with pytest.raises(ValueError) as err:
            PmfTable(params, F, TYPE1, 1, (Fraction(3, 4), Fraction(2, 9), Fraction(1, 27)))
        assert str(err.value) == "pmf mass exceeds 1: Fraction(109, 108)"

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
    """The cut-to-full shift by ``r*k`` as the recurrence route applies it."""

    @staticmethod
    def _cut_full(params, kind, order):
        return (moments_via_route(params, MomentRoute.RECURRENCE, kind, scheme, order)
                for scheme in (C, F))

    def test_factorial_shift_low_orders(self):
        # order 1: full = cut + rk; order 2: full = cut2 + 2rk cut1 + rk(rk-1)
        params = RunParams(3, 2, Fraction(2, 5))
        rk = 6
        cut, full = self._cut_full(params, MomentKind.FACTORIAL, 2)
        assert full.value(1) == cut.value(1) + rk
        assert full.value(2) == cut.value(2) + 2 * rk * cut.value(1) + rk * (rk - 1)

    def test_raw_shift_low_orders(self):
        params = RunParams(3, 2, Fraction(2, 5))
        rk = 6
        cut, full = self._cut_full(params, MomentKind.RAW, 2)
        assert full.value(1) == cut.value(1) + rk
        assert full.value(2) == cut.value(2) + 2 * rk * cut.value(1) + rk ** 2

    def test_geometric_mean_shift(self):
        # k = 1, r = 1, p = 1/2: cut mean 1 shifts to the full mean 2
        cut, full = self._cut_full(RunParams(1, 1, Fraction(1, 2)), MomentKind.FACTORIAL, 1)
        assert (cut.value(1), full.value(1)) == (1, 2)

    def test_waiting_time_mean_shift(self):
        # k = 2, r = 1, p = 1/2: cut raw mean 4 shifts to the full mean 6
        cut, full = self._cut_full(RunParams(2, 1, Fraction(1, 2)), MomentKind.RAW, 1)
        assert (cut.value(1), full.value(1)) == (4, 6)
