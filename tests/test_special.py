import math
import random
from fractions import Fraction
from operator import mul

import pytest

from runsdist import special
from runsdist.special import (HornerLadder, NonTerminatingSeries, ZeroDenominatorPochhammer,
                              binom, falling, fixed_point_horner, homogeneous_horner, hyp2f1)

from reference import EulerianTable, eulerian_number, eulerian_poly, rising, stirling2


class TestBinom:
    def test_small_values(self):
        assert binom(4, 2) == 6
        assert binom(0, 0) == 1
        assert binom(7, 7) == 1
        assert binom(5, 9) == 0

    def test_negative_bottom_is_zero_in_both_conventions(self):
        assert binom(10, -1) == 0
        assert binom(-3, -2) == 0

    def test_negative_top(self):
        assert binom(-1, 0) == 0

    def test_pascal_rule(self):
        for a in range(1, 41):
            for b in range(a + 1):
                assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)

    def test_shift_identity_zero_convention(self):
        # C(i-1, j-1) = C(i, j) - C(i-1, j) for i, j >= 1
        for i in range(1, 51):
            for j in range(1, 51):
                assert binom(i - 1, j - 1) == binom(i, j) - binom(i - 1, j)


class TestFactorials:
    def test_falling(self):
        assert falling(5, 2) == 20
        assert falling(5, 0) == 1
        assert falling(3, 5) == 0  # hits the zero factor
        assert falling(4, 3) == 24  # r + s - 1 = 4, s = 3
        assert falling(Fraction(1, 2), 2) == Fraction(1, 2) * Fraction(-1, 2)

    def test_rising(self):
        assert rising(3, 2) == 12
        assert rising(3, 0) == 1
        assert rising(-2, 4) == 0

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            falling(5, -1)
        with pytest.raises(ValueError):
            rising(5, -1)


class TestEulerian:
    def test_small_polynomials(self):
        t = Fraction(3, 7)
        assert eulerian_poly(0, t) == 1
        assert eulerian_poly(1, t) == 1
        assert eulerian_poly(2, t) == 1 + t
        assert eulerian_poly(3, t) == 1 + 4 * t + t ** 2

    def test_order4_coefficients(self):
        assert [eulerian_number(4, j) for j in range(4)] == [1, 11, 11, 1]

    def test_row_sums_and_symmetry(self):
        for i in range(1, 13):
            row = [eulerian_number(i, j) for j in range(i)]
            assert sum(row) == math.factorial(i)
            assert row == row[::-1]
            assert row[0] == 1

    def test_formula_matches_additive_recurrence(self):
        table = EulerianTable.build(12)
        for i in range(13):
            for j in range(max(i, 1)):
                assert table.number(i, j) == eulerian_number(i, j)

    def test_table_order_cap(self):
        table = EulerianTable.build(4)
        with pytest.raises(ValueError):
            table.number(5, 0)


def hyp_naive(a, b, c, z):
    """Independent direct summation of the defining series."""
    total = Fraction(0)
    i = 0
    while True:
        na, nb = rising(a, i), rising(b, i)
        if na == 0 or nb == 0:
            break
        total += Fraction(na * nb, rising(c, i) * math.factorial(i)) * z ** i
        i += 1
    return total


class TestHyp2F1:
    def test_trivial_cases(self):
        assert hyp2f1(0, 5, 3, Fraction(1, 2)) == 1
        assert hyp2f1(-1, 4, 2, Fraction(1, 3)) == 1 - Fraction(4, 3) / 2

    def test_negative_c_two_term(self):
        # j = 2, k = 2, p = 1/2: 2F1(-1, 1; -2; -1) = 1/2
        assert hyp2f1(-1, 1, -2, Fraction(-1)) == Fraction(1, 2)

    def test_against_naive_series(self):
        rng = random.Random(20240814)
        checked = 0
        while checked < 500:
            a = -rng.randint(0, 8)
            b = rng.randint(-8, 8)
            c = rng.randint(-12, 12)
            z = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            try:
                got = hyp2f1(a, b, c, z)
            except ZeroDenominatorPochhammer:
                continue
            assert got == hyp_naive(a, b, c, z)
            checked += 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorPochhammer):
            hyp2f1(-3, 5, -1, Fraction(1, 2))

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingSeries):
            hyp2f1(1, 2, 3, Fraction(1, 2))

    def test_complex_argument(self):
        z = 0.3 + 0.4j
        got = hyp2f1(-2, -1, 2, z)
        want = 1 + (-2) * (-1) / 2 * z + 0 * z * z
        assert abs(got - want) < 1e-15


class TestStirling2:
    def test_known_rows(self):
        assert [stirling2(4, j) for j in range(5)] == [0, 1, 7, 6, 1]
        assert stirling2(0, 0) == 1
        assert stirling2(6, 1) == 1
        assert stirling2(6, 6) == 1
        assert stirling2(5, 9) == 0

    def test_recurrence(self):
        for n in range(1, 12):
            for j in range(1, n + 1):
                assert stirling2(n, j) == j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def horner_direct(coeffs, x, d):
    """``sum_j coeffs[j] x^j d^(J-j)`` term by term, in integers."""
    xs, ds = [1], [1]
    for _ in coeffs[1:]:
        xs.append(xs[-1] * x)
        ds.append(ds[-1] * d)
    return sum(c * xs[j] * ds[-1 - j] for j, c in enumerate(coeffs) if c)


def horner_naive(coeffs, x, d):
    """``d^J sum_j coeffs[j] (x/d)^j`` by direct rational summation."""
    J = len(coeffs) - 1
    total = sum((Fraction(c) * Fraction(x, d) ** j for j, c in enumerate(coeffs)),
                Fraction(0))
    return total * Fraction(d) ** J


class TestHomogeneousHorner:
    def test_against_naive_rational_sum(self):
        rng = random.Random(20261018)
        for _ in range(400):
            J = rng.randint(0, 25)
            bound = 10 ** rng.randint(0, 30)
            coeffs = [rng.randint(-bound, bound) for _ in range(J + 1)]
            x = rng.randint(1, 10 ** rng.randint(1, 20))
            d = rng.randint(1, 10 ** rng.randint(1, 20))
            got = homogeneous_horner(coeffs, x, d)
            assert isinstance(got, int)
            assert got == horner_naive(coeffs, x, d)

    def test_single_coefficient(self):
        # J = 0: neither x nor d enters
        assert homogeneous_horner([7], 3, 5) == 7
        assert homogeneous_horner([-4], 10 ** 20, 9) == -4

    def test_empty_and_all_zero(self):
        assert homogeneous_horner([], 3, 5) == 0
        assert homogeneous_horner([0] * 12, 3, 5) == 0

    def test_leading_and_trailing_zeros(self):
        x, d = 6, 11
        # leading zeros multiply the value by x per zero
        assert homogeneous_horner([0, 0, 2, -3], x, d) == x ** 2 * (2 * d - 3 * x)
        # trailing zeros multiply it by d per zero
        assert homogeneous_horner([2, -3, 0, 0], x, d) == d ** 2 * (2 * d - 3 * x)
        assert homogeneous_horner([0, 5, 0], x, d) == 5 * x * d

    def test_alternating_binomial_cancellation(self):
        # sum_j (-1)^j C(J, j) x^j d^(J-j) = (d - x)^J, even when d - x is tiny
        for J in (1, 10, 60):
            coeffs = [(-1) ** j * math.comb(J, j) for j in range(J + 1)]
            assert homogeneous_horner(coeffs, 10 ** 9, 10 ** 9 + 1) == 1
            assert homogeneous_horner(coeffs, 7, 3) == (-4) ** J

    def test_long_lists_with_big_arguments(self):
        # lengths well past the plain-Horner leaf, so the halves are combined
        # at several levels
        rng = random.Random(4112)
        for _ in range(30):
            J = rng.randint(0, 400)
            bits = rng.randint(1, 400)
            coeffs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(J)]
            x = rng.getrandbits(rng.randint(1, 160)) | 1
            # an odd d multiplies, a power of two (a float p's) shifts
            for d in (rng.getrandbits(rng.randint(1, 160)) | 1, 1 << rng.randint(0, 160)):
                assert homogeneous_horner(coeffs, x, d) == horner_direct(coeffs, x, d)

    def test_zero_runs_across_split_points(self):
        rng = random.Random(77)
        x, d = 3 ** 20 + 2, 2 ** 31 - 1
        for n in (17, 32, 33, 100, 257, 400):
            cuts = sorted({n // 2, n // 4, 3 * n // 4, 16, n - 16})
            for cut in cuts:
                for lo, hi in ((cut - 5, cut + 5), (0, cut), (cut, n), (cut - 1, cut + 1)):
                    lo, hi = max(lo, 0), min(hi, n)
                    coeffs = [rng.randint(-10 ** 20, 10 ** 20) for _ in range(n)]
                    coeffs[lo:hi] = [0] * (hi - lo)
                    assert homogeneous_horner(coeffs, x, d) == horner_direct(coeffs, x, d)
            # every coefficient zero but one, at each position of a long list
            for j in range(0, n, 7):
                coeffs = [0] * n
                coeffs[j] = -5
                assert homogeneous_horner(coeffs, x, d) == -5 * x ** j * d ** (n - 1 - j)

    def test_long_alternating_binomial_cancellation(self):
        # (d - x)^J with d - x = 1 and J = 400: every digit of the terms cancels
        J = 400
        coeffs = [(-1) ** j * math.comb(J, j) for j in range(J + 1)]
        assert homogeneous_horner(coeffs, 10 ** 50, 10 ** 50 + 1) == 1


class TestFixedPointHorner:
    @staticmethod
    def exact(coeffs, x, s, head, t):
        """``head * sum_j coeffs[j] (x/2^s)^j / 2^t`` rounded once."""
        J = len(coeffs) - 1
        return float(Fraction(head * homogeneous_horner(coeffs, x, 1 << s), 1 << (s * J + t)))

    def test_rounds_the_exact_value_of_cancelling_sums(self):
        rng = random.Random(20261019)
        rounded = 0
        for _ in range(300):
            s = rng.randint(2, 400)
            x = rng.randrange(1 << (s - 1))
            J = rng.randint(0, 60)
            big = rng.randint(1, 600)
            coeffs = [rng.choice((1, -1)) * rng.getrandbits(big) for _ in range(J + 1)]
            head, t = rng.getrandbits(rng.randint(1, 200)) | 1, rng.randint(0, 900)
            got = fixed_point_horner(coeffs, x, s, head, t)
            assert got is None or got == self.exact(coeffs, x, s, head, t)
            rounded += got is not None
        assert rounded > 290

    def test_binomial_alternating_sum_cancels_to_a_tiny_value(self):
        # sum_j (-1)^j C(J, j) (1/4)^j = (3/4)^J, from terms up to C(J, J/2)/4^(J/2)
        J = 400
        coeffs = [(-1) ** j * math.comb(J, j) for j in range(J + 1)]
        assert fixed_point_horner(coeffs, 1, 2, 1, 0) == 0.75 ** J
        assert fixed_point_horner(coeffs, 1, 2, 3, 5) == float(Fraction(3, 32) * Fraction(3, 4) ** J)

    def test_signs_and_zero(self):
        assert fixed_point_horner([-5, 1], 1, 3, 1, 0) == -4.875
        # a zero sum is too close to call at any precision
        assert fixed_point_horner([1, -4], 1, 2, 1, 0) is None
        assert fixed_point_horner([], 1, 2, 1, 0) is None

    def test_no_precision_left_gives_none(self, monkeypatch):
        monkeypatch.setattr(special, "_FIXED_POINT_BITS", ())
        assert fixed_point_horner([3, 1], 1, 2, 1, 0) is None

    def test_needs_a_ratio_below_one_half(self):
        with pytest.raises(ValueError):
            fixed_point_horner([1, 1], 4, 3, 1, 0)
        with pytest.raises(ValueError):
            fixed_point_horner([1, 1], -1, 3, 1, 0)


class TestHornerLadder:
    """Every call equals the split Horner sum of the weighted coefficients."""

    @staticmethod
    def expected(coeffs, weights, x, d):
        return homogeneous_horner(map(mul, coeffs, weights), x, d)

    @staticmethod
    def count_splits(monkeypatch) -> list:
        """Make the ladder count its calls of the split Horner in the returned list's one item."""
        calls = [0]
        split = special.homogeneous_horner

        def counted(*args):
            calls[0] += 1
            return split(*args)

        monkeypatch.setattr(special, "homogeneous_horner", counted)
        return calls

    def test_growing_lengths_across_the_crossover(self, monkeypatch):
        splits = self.count_splits(monkeypatch)
        rng = random.Random(20261019)
        laddered = split = 0
        for _ in range(60):
            x = rng.getrandbits(rng.randint(1, 120)) | 1
            # an odd d and a power of two (a float p's) take the same path
            d = rng.choice((rng.getrandbits(rng.randint(1, 120)) | 1, 1 << rng.randint(0, 120)))
            w = 10 ** rng.randint(0, 6)
            weights = [rng.randint(-w, w) for _ in range(120)]
            ladder = HornerLadder(x, d, weights)
            step = max(x.bit_length(), d.bit_length())
            length = rng.randint(0, 3)
            for call in range(25):
                length = min(length + rng.choice((0, 0, 1, 1, 2, 7)), 120)
                bound = 10 ** rng.randint(0, 40)
                coeffs = [rng.randint(-bound, bound) for _ in range(length)]
                before = splits[0]
                got = ladder(coeffs)
                assert type(got) is int
                assert got == self.expected(coeffs, weights, x, d)
                ran_split = splits[0] > before
                # the first call and a sum whose entries would pass the crossover split
                assert ran_split == (call == 0 or (length - 1) * step > special._LADDER_BITS)
                split += ran_split
                laddered += not ran_split
        assert laddered > 100 and split > 100  # both paths ran

    def test_shorter_call_after_a_longer_one(self):
        x, d, weights = 5, 9, [3, -1, 4, -1, 5, -9, 2, -6]
        ladder = HornerLadder(x, d, weights)
        for length in (6, 6, 2, 0, 7, 3, 8):
            coeffs = list(range(1, length + 1))
            assert ladder(coeffs) == self.expected(coeffs, weights, x, d)

    def test_first_call_sums_by_split_horner_and_builds_no_ladder(self, monkeypatch):
        # a first call may be the only one, so it builds no ladder; the
        # second builds all of it, and no later call builds it again
        builds = []
        build = HornerLadder._build
        monkeypatch.setattr(HornerLadder, "_build", lambda self: builds.append(build(self)))
        coeffs = [(-1) ** j * math.comb(30, j) for j in range(31)]
        ones = [1] * 32
        ladder = HornerLadder(7, 3, ones)
        assert ladder(coeffs) == (3 - 7) ** 30 and ladder.ladder == [] and not builds
        assert ladder(coeffs) == (3 - 7) ** 30 and len(ladder.ladder) == 32
        assert len(ladder.dpow) == 33 and len(builds) == 1
        assert ladder(coeffs[:3]) == self.expected(coeffs[:3], ones, 7, 3)
        assert ladder([]) == 0 and ladder(coeffs + [5]) == self.expected(coeffs + [5], ones, 7, 3)
        # entries of about 101 bits stop the ladder at 2048 // 101 = 20 terms
        x, weights = (1 << 100) + 1, list(range(1, 41))
        capped = HornerLadder(x, 3, weights)
        for call, length in enumerate((10, 10, 5, 30, 21, 40, 0)):
            terms = [(-1) ** j * (j + 1) for j in range(length)]
            assert capped(terms) == self.expected(terms, weights, x, 3)
            assert len(capped.ladder) == (21 if call else 0)
        assert len(builds) == 2
        assert HornerLadder(10 ** 9, 10 ** 9 + 1, ones)(coeffs) == 1
        assert HornerLadder(3, 5, ones)([]) == 0
        assert HornerLadder(3, 5, [4])([7]) == 28
