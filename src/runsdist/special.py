"""Integer-combinatorics and special-function primitives shared by all engines.

Binomial coefficients follow the zero-on-negative-top convention: ``C(a, b)``
is 0 whenever ``a < 0``, ``b < 0`` or ``b > a``. The combinatorial formulas of
the pmf engines disagree about negative upper arguments, and this is the
choice the enumeration oracle validates. The terminating Gauss
hypergeometric series rejects arguments whose series would not terminate or
would divide by zero. :func:`homogeneous_horner` is the one integer kernel
behind every exact alternating pmf sum; it combines halves of the sum by
binary splitting, so a long sum costs a few balanced big-integer products
rather than one long-by-short product per term. A table of such sums with
lengths that never fall runs on one :class:`HornerLadder`, which keeps the
power terms of the current length and costs one C-level dot product per
sum, growing by one multiplication per entry when the length grows. Its
first call sums by the split Horner and builds no ladder, because a single
index makes only that one call; the ladder grows from the second call on.
Its products are long by short, so past ``_LADDER_BITS`` = 2048 bits per
ladder entry it hands each sum to :func:`homogeneous_horner`. That crossover
was measured per call on the float and exact tables of the nested, double,
hypergeometric and Type II sums to index 250 (k 1 to 5, r 1 and 3), on a
2-vCPU x86-64 machine under CPython 3.11: the ladder took 0.51 to 0.78 of
the split Horner's time below 1024 bits and 0.64 to 0.93 below 2048, and
the double sum, whose brackets are the longest coefficients, took 1.46 of
it from 2048 to 3071 bits. When the denominator is a power of two and only
the nearest double of the sum is wanted, :func:`fixed_point_horner` sums it
in fixed point instead, with a fraction precision that doubles from 256 bits
until its error bound decides the rounding, so its integers stay a few
hundred bits above the cancellation of the sum instead of growing with every
term; its caller rounds the exact sum where no precision up to 4096 bits
decides. The pmf engines try it first for every float nested,
hypergeometric, pgf-expansion and Type II sum, single index and table
alike. Starting at 64, 128, 256 and 512 bits, the 84 outer sums of the
single-index nested and hypergeometric ops of three float benchmark blocks
(n 250 to 2,020) took 24.7, 20.6, 18.3 and 18.0 ms (best of 5, same
machine), so the schedule starts at 256. The polynomial helpers
(products, powers, and the power-series quotient) work on coefficient lists,
constant term first; they multiply out and expand the rational generating
function :func:`runsdist.core.rational_pgf`. Everything in this module is
pure and exact: integer arguments produce integers,
:class:`~fractions.Fraction` arguments stay exact, floats and complex values
work as well.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul


def binom(a: int, b: int) -> int:
    """Binomial coefficient ``C(a, b)`` as an exact integer, total over Z x Z.

    Zero outside ``0 <= b <= a``, negative ``a`` included.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


_HORNER_LEAF = 16  # below this many coefficients plain Horner beats splitting


def homogeneous_horner(coeffs, x: int, d: int) -> int:
    """Exact ``sum_j coeffs[j] x^j d^(J-j)`` with ``J = len(coeffs) - 1``.

    This is the integer numerator of ``sum_j coeffs[j] (x/d)^j`` over the
    common denominator ``d^J``, so an alternating rational sum is evaluated
    with plain integer additions and rounded by a single division; no
    rational is built per term. An empty list sums to 0.

    The sum is split in halves, ``H(lo..hi) = H(lo..mid) d^(hi-mid) +
    x^(mid-lo) H(mid..hi)``, so the big products pair operands of similar
    size instead of multiplying a long power by each short coefficient in
    turn. Each power of ``x`` and ``d`` is computed once per call, and short
    runs use the homogeneous Horner step ``acc = acc*d + coeffs[j]*x^j``.
    When ``d`` is a power of two, as for every float ``p``, each product
    with a power of ``d`` is a shift.
    """
    coeffs = list(coeffs)
    xpow: dict = {}
    dpow: dict = {}
    shift = d.bit_length() - 1 if d > 0 and not d & (d - 1) else None

    def split(lo: int, hi: int) -> int:
        if hi - lo <= _HORNER_LEAF:
            acc = 0
            xp = 1
            if shift is None:
                for c in coeffs[lo:hi]:
                    acc = acc * d + c * xp if c else acc * d
                    xp *= x
            else:
                for c in coeffs[lo:hi]:
                    acc = (acc << shift) + c * xp if c else acc << shift
                    xp *= x
            return acc
        mid = (lo + hi) // 2
        nx, nd = mid - lo, hi - mid
        if nx not in xpow:
            xpow[nx] = x ** nx
        if shift is not None:
            head = split(lo, mid) << (shift * nd)
        else:
            if nd not in dpow:
                dpow[nd] = d ** nd
            head = split(lo, mid) * dpow[nd]
        return head + xpow[nx] * split(mid, hi)

    return split(0, len(coeffs))


# the fraction bits fixed_point_horner tries in turn; past the last it gives up
_FIXED_POINT_BITS = (256, 512, 1024, 2048, 4096)


def fixed_point_horner(coeffs, x: int, s: int, head: int, t: int) -> float | None:
    """The double nearest ``head * sum_j coeffs[j] y^j / 2^t`` with ``y = x / 2^s``, or None.

    Needs ``0 <= x < 2^(s-1)``, so ``y < 1/2``, and ``head > 0``. Horner's
    rule runs from the top on integers with ``P`` fraction bits,
    ``A <- (coeffs[j] << P) + ((A x) >> s)``. Each shift rounds down by less
    than 1 and the later steps scale that by ``y``, so ``A <= 2^P S <
    A + 1/(1-y) < A + 2`` for the exact sum ``S``. When ``A - 2 > 0``, or
    ``A + 2 < 0``, and ``head (A -+ 2) / 2^(t+P)`` round to the same double
    (each by one correctly rounded integer division), the exact value, which
    lies between them, rounds to it too. Otherwise ``P`` doubles along
    ``_FIXED_POINT_BITS``; None means every precision was too close to call,
    and the caller rounds the exact sum instead.

    The integers hold about ``P`` bits plus the cancellation of the sum,
    where the exact sum over ``2^(s J)`` grows by ``s`` bits per term.
    """
    if not 0 <= x < 1 << (s - 1):
        raise ValueError("fixed_point_horner needs 0 <= x < 2^(s-1)")
    for bits in _FIXED_POINT_BITS:
        acc = 0
        for c in reversed(coeffs):
            acc = (c << bits) + ((acc * x) >> s)
        if acc > 2 or acc < -2:
            scale = 1 << (t + bits)
            low = head * (acc - 2) / scale
            if low == head * (acc + 2) / scale:
                return low
    return None


_LADDER_BITS = 2048  # past this size of a ladder entry the split Horner is quicker (see above)


class HornerLadder:
    """The sums ``homogeneous_horner(map(mul, coeffs, weights), x, d)`` of one table.

    A table evaluates many such sums with the same ``x``, ``d`` and
    ``weights`` and lengths that never fall. The ladder keeps
    ``weights[j] x^j d^(J-j)`` for ``j = 0 .. J``, the current length less
    one, so a call of that length is one C-level ``sum(map(mul, ...))``.
    A longer call multiplies the ladder by ``d`` (a shift when ``d`` is a
    power of two) once per added term and appends the new entries. The
    result is the same integer either way.

    The first call sums by :func:`homogeneous_horner` and builds no ladder:
    it may be the only call, and building the ladder costs two products per
    term. The ladder grows from the second call on. It costs ``J`` products
    per call, each of an entry of about ``J * max(bits(x), bits(d))`` bits
    by a coefficient, where the split Horner costs a few balanced products
    of that size. A call whose entries would pass ``_LADDER_BITS`` therefore
    goes to :func:`homogeneous_horner`, and so does a call shorter than the
    ladder. ``weights`` must reach the longest call.
    """

    def __init__(self, x: int, d: int, weights: list) -> None:
        self.x, self.d, self.weights = x, d, weights
        self.ladder: list = []  # weights[j] x^j d^(J-j), j = 0 .. J
        self.xpow = 1  # x^J, and 1 while the ladder is empty
        self.step = max(x.bit_length(), d.bit_length())
        self.shift = d.bit_length() - 1 if d > 0 and not d & (d - 1) else None
        self.called = False

    def __call__(self, coeffs) -> int:
        top = len(coeffs) - 1
        have = len(self.ladder) - 1
        if not self.called or top < have or top * self.step > _LADDER_BITS:
            self.called = True
            return homogeneous_horner(map(mul, coeffs, self.weights), self.x, self.d)
        if top > have:
            self._grow(have, top)
        return sum(map(mul, coeffs, self.ladder))

    def _grow(self, have: int, top: int) -> None:
        x, d, weights, shift = self.x, self.d, self.weights, self.shift
        grow = top - have
        if shift is not None:
            s = shift * grow
            ladder = [v << s for v in self.ladder]
        else:
            dpow = [1]
            for _ in range(grow):
                dpow.append(dpow[-1] * d)
            f = dpow[grow]
            ladder = [v * f for v in self.ladder]
        xpow = self.xpow
        for j in range(have + 1, top + 1):
            if j:
                xpow *= x
            term = weights[j] * xpow
            ladder.append(term << shift * (top - j) if shift is not None
                          else term * dpow[top - j])
        self.ladder, self.xpow = ladder, xpow


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_pow(base: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


def _series_div(num: list, den: list, length: int) -> list:
    """Power-series quotient to the given length; ``den[0]`` must be 1."""
    out = []
    for n in range(length):
        acc = num[n] if n < len(num) else 0
        for u in range(1, min(n, len(den) - 1) + 1):
            if den[u]:
                acc -= den[u] * out[n - u]
        out.append(acc)
    return out


def falling(a, j: int):
    """Falling factorial ``a (a-1) ... (a-j+1)``; equals 1 when ``j == 0``."""
    if j < 0:
        raise ValueError("falling factorial needs j >= 0")
    out = 1
    for i in range(j):
        out *= a - i
    return out


class NonTerminatingSeries(ValueError):
    """Neither upper parameter of the 2F1 is a nonpositive integer."""


class ZeroDenominatorPochhammer(ValueError):
    """The lower-parameter Pochhammer vanishes before the series terminates."""


def hyp2f1(a: int, b: int, c: int, z):
    """The terminating Gauss hypergeometric series 2F1(a, b; c; z).

    At least one of ``a, b`` must be a nonpositive integer so the series
    terminates (:class:`NonTerminatingSeries` otherwise), and the
    lower-parameter Pochhammer ``(c)_i`` must not vanish before the
    terminating index (:class:`ZeroDenominatorPochhammer` otherwise). Each
    term is obtained from the previous by one multiply/divide, so the
    evaluation is exact for rational ``z`` and overflow-free for float or
    complex ``z``.
    """
    stops = [-x for x in (a, b) if x <= 0]
    if not stops:
        raise NonTerminatingSeries(f"2F1({a}, {b}; {c}; z) does not terminate")
    m = min(stops)
    # (c)_i = c (c+1) ... (c+i-1) vanishes for some i <= m iff 1-m <= c <= 0.
    if 1 - m <= c <= 0:
        raise ZeroDenominatorPochhammer(f"(c)_i vanishes at i={1 - c} <= {m} for c={c}")
    total = 1
    term = 1
    for i in range(m):
        term = term * (a + i) * (b + i) * z / ((c + i) * (i + 1))
        total = total + term
    return total


def eulerian_number(i: int, j: int) -> int:
    """Entry ``A(i, j)`` of the Eulerian-number triangle, by alternating sum.

    ``A(i, j) = sum_s (-1)^s C(i+1, s) (j+1-s)^i`` for ``0 <= j <= i-1``;
    entries outside the triangle are 0, and ``A(0, 0) = 1`` by convention.
    """
    if i < 0:
        raise ValueError("order must be nonnegative")
    if i == 0:
        return 1 if j == 0 else 0
    if j < 0 or j > i - 1:
        return 0
    total = 0
    for s in range(j + 1):
        term = math.comb(i + 1, s) * (j + 1 - s) ** i
        total += -term if s & 1 else term
    return total


def eulerian_poly(i: int, t):
    """Evaluate the Eulerian polynomial ``A_i(t) = sum_j A(i, j) t^j``.

    ``A_0(t) = 1``; the triangle entries come from :func:`eulerian_number`.
    """
    if i == 0:
        return 1
    total = 0
    tp = 1
    for j in range(i):
        total = total + eulerian_number(i, j) * tp
        tp = tp * t
    return total


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple:
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for j in range(1, n + 1):
        row[j] = j * (prev[j] if j < len(prev) else 0) + prev[j - 1]
    return tuple(row)


def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind ``S(n, j)``; 0 outside ``0<=j<=n``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if j < 0 or j > n:
        return 0
    return _stirling2_row(n)[j]
