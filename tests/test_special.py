import math
import random
from fractions import Fraction

import pytest

from runsdist.reference import EulerianTable
from runsdist.special import (NonTerminatingSeries, ZeroDenominatorPochhammer,
                              binom, eulerian_number, eulerian_poly, falling,
                              homogeneous_horner, hyp2f1, rising, stirling2)


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
            d = rng.getrandbits(rng.randint(1, 160)) | 1
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
