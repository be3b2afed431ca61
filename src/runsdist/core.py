"""Parameter types, trial-indexing bookkeeping, and shared result containers.

The library runs in one of two numeric modes, selected by the type of the
success probability: a ``float`` gives double precision, a
:class:`fractions.Fraction` gives exact rational arithmetic end to end. All
types here are immutable after construction and all operations are pure, so
values can be shared freely across threads (:class:`TermCounter`, a mutable
tally a caller passes in, is the one exception).

Each fact about a counting variant lives here, next to :class:`VariantSpec`:
its support start (:func:`support_min`) and its rational probability
generating function (:func:`rational_pgf`), from which the series engine of
:mod:`runsdist.roots` expands the pmf and :mod:`runsdist.moments` the
factorial moments. The engine modules share these through this module
instead of importing one another when they load.

Every exact engine ends with an integer over a power of the denominator
``d`` of ``p``. :class:`PowerRatio` turns such a pair into the canonical
:class:`~fractions.Fraction` by dividing both by ``gcd(num, d, d^e)`` until
it is 1, with no factoring of ``d`` and no general gcd of the constructor,
and rounds it correctly in float mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .special import _poly_mul, _poly_pow

Scalar = Union[float, Fraction]


class IndexScheme(Enum):
    """Trial-indexing convention.

    FULL counts Bernoulli trials starting from trial 1, so the waiting time
    for r nonoverlapping runs of length k is supported on ``n >= r*k``. CUT
    starts counting at the earliest attainable index, i.e.
    ``n_cut = n_full - r*k``.
    """

    FULL = "full"
    CUT = "cut"


@dataclass(frozen=True)
class RunParams:
    """The parameter triple: run length ``k``, run count ``r``, success ``p``."""

    k: int
    r: int
    p: Scalar

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if not isinstance(self.p, (float, Fraction)):
            raise TypeError("p must be a float (double mode) or Fraction (exact mode)")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p!r}")

    @property
    def q(self) -> Scalar:
        return 1 - self.p

    @property
    def exact(self) -> bool:
        """True in exact-rational mode."""
        return isinstance(self.p, Fraction)

    def finalize(self, value) -> Scalar:
        """An exact internal result in this mode: unchanged when exact, else rounded once."""
        return value if self.exact else float(value)

    def to_float(self) -> "RunParams":
        return self if not self.exact else RunParams(self.k, self.r, float(self.p))

    def to_exact(self) -> "RunParams":
        return self if self.exact else RunParams(self.k, self.r, Fraction(self.p))


def _coprime_fraction(num: int, den: int) -> Fraction:
    """The :class:`~fractions.Fraction` ``num/den``, given in lowest terms with ``den > 0``."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


class PowerRatio:
    """``num / d^e`` in one numeric mode, for ``d`` the denominator of ``p``.

    Every pmf engine in exact mode ends with an integer over a power of
    ``d``, where only the primes of ``d`` can divide out. So the canonical
    fraction divides ``num`` and ``den = d^e`` by ``g = gcd(num, d, den)``
    while ``g > 1``; once ``g`` is 1, no prime of ``d`` divides both. There
    is no factoring of ``d`` and no fallback to the constructor's gcd. Each
    ``g`` divides ``d``, so after ``t < e`` rounds ``den`` is still a
    multiple of ``d`` and ``g`` is ``gcd(num, d)``: one pass over ``num``,
    as the gcd takes the small ``d`` as an argument. Only a round after the
    ``e``-th takes the gcd with ``den`` too; taking it in every round made a
    3,000-entry exact recurrence table 5 to 10% slower. The fraction is then
    built by setting the two slots :class:`~fractions.Fraction` has on every
    supported Python. It equals ``Fraction(num, d**e)`` in numerator,
    denominator, hash and type. Float mode returns the correctly rounded
    ``num / d**e``, with the same bits as ``float(Fraction(num, d**e))`` but
    without reducing the fraction first.

    A table calls this with exponents that mostly rise, so the power of
    ``d`` is kept and multiplied up by the difference; a lower exponent is
    raised afresh. Raising ``d^e`` afresh for every entry made a 3,000-entry
    exact recurrence table (k=4, r=3, p=9/13) take 1.5 to 1.8 times as long
    (2 vCPUs, CPython 3.11).
    """

    __slots__ = ("d", "exact", "e", "power")

    def __init__(self, params: RunParams) -> None:
        self.d = params.p.as_integer_ratio()[1]  # for a float p, a power of two
        self.exact = params.exact
        self.e, self.power = 0, 1

    def __call__(self, num: int, e: int) -> Scalar:
        if e == self.e:
            den = self.power
        elif e > self.e:
            den = self.power = self.power * self.d ** (e - self.e)
            self.e = e
        else:
            den = self.d ** e
        if not self.exact:
            return num / den
        if not num:
            return _coprime_fraction(0, 1)
        t = 0  # rounds so far: den = d^e / (g_1 ... g_t) is a multiple of d while t < e
        while True:
            g = math.gcd(num, self.d) if t < e else math.gcd(num, self.d, den)
            if g == 1:
                return _coprime_fraction(num, den)
            num //= g
            den //= g
            t += 1


@dataclass(frozen=True)
class VariantSpec:
    """Run-counting variant.

    ``overlap`` is the number of trials consecutive runs may share: 0 is the
    nonoverlapping (Type I) family, ``k-1`` is the fully overlapping
    (Type III) family, and a negative value ``-g`` demands a gap of ``g``
    ignored trials after each completed run. ``type2`` selects the
    at-least-one-failure-between-runs (Type II) family and excludes any
    nonzero overlap.
    """

    overlap: int = 0
    type2: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.overlap, int) or isinstance(self.overlap, bool):
            raise ValueError("overlap must be an integer")
        if self.type2 and self.overlap != 0:
            raise ValueError("type2 excludes a nonzero overlap")

    @property
    def gap(self) -> int:
        return -self.overlap if self.overlap < 0 else 0

    @property
    def restart(self) -> int:
        """Run progress a completed run leaves behind: the overlap, ``-g`` for
        a gap of ``g`` trials that cannot count, -1 for Type II (blocked until
        a failure) and 0 for Type I."""
        return -1 if self.type2 else self.overlap

    @property
    def is_type1(self) -> bool:
        return not self.type2 and self.overlap == 0

    @property
    def is_overlap(self) -> bool:
        return self.overlap > 0

    @property
    def is_gap(self) -> bool:
        return self.overlap < 0

    def check_against(self, params: RunParams) -> None:
        """Validate the overlap bound ``overlap <= k-1``, which needs ``k``."""
        if self.overlap > params.k - 1:
            raise ValueError(f"overlap must be at most k-1 = {params.k - 1}, got {self.overlap}")

    def describe(self) -> str:
        if self.type2:
            return "type2"
        if self.overlap > 0:
            return f"overlap={self.overlap}"
        if self.overlap < 0:
            return f"gap={self.gap}"
        return "type1"

    @classmethod
    def type_ii(cls) -> "VariantSpec":
        return cls(type2=True)

    @classmethod
    def with_overlap(cls, ell: int) -> "VariantSpec":
        if ell < 0:
            raise ValueError("use with_gap for negative overlap")
        return cls(overlap=ell)

    @classmethod
    def with_gap(cls, g: int) -> "VariantSpec":
        if g < 1:
            raise ValueError("gap must be a positive integer")
        return cls(overlap=-g)

    @classmethod
    def parse(cls, text: str) -> "VariantSpec":
        """Parse 'type1', 'type2', 'overlap=L' (integer L >= 0) or 'gap=G' (integer G >= 1)."""
        if text in ("type1", "type2"):
            return cls(type2=text == "type2")
        name, _, value = text.partition("=")
        try:
            n = int(value)
        except ValueError:
            n = -1
        if name == "overlap" and n >= 0:
            return cls(overlap=n)
        if name == "gap" and n >= 1:
            return cls(overlap=-n)
        raise ValueError(f"unknown variant {text!r}; expected type1, type2, "
                         "overlap=L with an integer L >= 0 or gap=G with an integer G >= 1")


TYPE1 = VariantSpec()


def support_min(params: RunParams, variant: VariantSpec = TYPE1,
                scheme: IndexScheme = IndexScheme.FULL) -> int:
    """Smallest index with positive probability under the variant.

    Each run after the first adds ``k`` trials less the progress the run
    before leaves behind (:attr:`VariantSpec.restart`).
    """
    k, r = params.k, params.r
    base = k + (r - 1) * (k - variant.restart)
    return base if scheme is IndexScheme.FULL else base - r * k


def _den_poly(order: int, p, q, unit) -> list:
    """Coefficients of ``unit^(order+1) (1 - s) + q p^order s^(order+1)``.

    With ``unit = 1`` this is ``D_order(s) = 1 - s + q p^order s^(order+1)``;
    order 0 gives ``1 - p s``. With the numerators ``p = a``, ``q = b - a``
    and ``unit = b`` it is the integer polynomial ``b^(order+1) D_order(s)``
    of ``p = a/b``.
    """
    coeffs = [0] * (order + 2)
    coeffs[0] = unit ** (order + 1)
    coeffs[1] = coeffs[1] - unit ** (order + 1)
    coeffs[order + 1] = coeffs[order + 1] + q * p ** order
    return coeffs


def rational_pgf(params: RunParams, variant: VariantSpec = TYPE1) -> tuple:
    """The variant's generating function as ``(scale, shift, num, den)``.

    The pgf is ``scale * s^shift * num(s) / den(s)``: ``num`` and ``den`` are
    coefficient lists, constant term first, and the monomial stays factored
    out so a series expansion can apply it after the division. With
    ``D_l(s) = 1 - s + q p^l s^(l+1)`` the single-run pgf is
    ``G_k(s) = p^k s^k (1 - p s) / D_k(s)``, and the families are
    ``G_k^r`` (Type I), ``s^((r-1) g) G_k^r`` (gap ``g``),
    ``G_k^r / G_l^(r-1)`` (overlap ``l``) and
    ``G_k^r (q s / (1 - p s))^(r-1)`` (Type II, whose ``(1 - p s)^(r-1)``
    cancels). Float mode works on the stored double, with ``den[0] = 1``.
    Exact mode multiplies out the integer polynomials ``b^(l+1) D_l(s)`` and
    ``b - a s`` of ``p = a/b``, so ``scale``, ``num`` and ``den`` are
    integers and ``den[0] = b^((k+1) r)``.
    """
    variant.check_against(params)
    k, r = params.k, params.r
    if params.exact:
        p, unit = params.p.as_integer_ratio()
        q = unit - p
    else:
        p, unit = float(params.p), 1
        q = 1 - p
    den = _poly_pow(_den_poly(k, p, q, unit), r)
    shift = support_min(params, variant)
    if variant.type2:
        return p ** (r * k) * q ** (r - 1), shift, [unit, -p], den
    ell = max(variant.overlap, 0)
    num = _poly_mul([unit, -p], _poly_pow(_den_poly(ell, p, q, unit), r - 1))
    return p ** (r * k - (r - 1) * ell), shift, num, den


class NumericFailure(RuntimeError):
    """A numeric method cannot return a value within its stated accuracy or bound, so it raised.

    The root engine's errors, the float recurrence's underflow, the summation
    route's open window and Monte Carlo's trial cap derive from it; the CLI
    reports each by name with exit code 2 without loading the root engine.
    """


class TermCounter:
    """Counts evaluated sum terms, for the complexity-bound assertions."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


# the mass bound of every pmf table, as the exact value of the double 1 + 1e-9
_MASS_BOUND = Fraction(1 + 1e-9)


@dataclass(frozen=True)
class PmfTable:
    """Probabilities for a contiguous range of waiting times.

    ``values[i]`` is the probability at ``n = n_min + i`` under the declared
    scheme and variant.
    """

    params: RunParams
    scheme: IndexScheme
    variant: VariantSpec
    n_min: int
    values: tuple

    def __post_init__(self) -> None:
        if all(type(v) is Fraction or type(v) is int for v in self.values):
            self._check_exact()
            return
        total = 0
        for v in self.values:  # written so that a NaN fails too
            if not 0 <= v <= 1 + 1e-9:
                raise ValueError(f"pmf value out of [0, 1]: {v!r}")
            total += v
        if not total <= 1 + 1e-9:
            raise ValueError(f"pmf mass exceeds 1: {total!r}")

    def _check_exact(self) -> None:
        """The same verdicts on exact values, computed on their integer parts.

        Each value is compared with the exact rational ``1 + 1e-9`` by
        cross-multiplying, and the mass is summed on integers over a running
        common denominator. Values over powers of one denominator, as every
        exact table is, step it by a small factor; two denominators of which
        neither divides the other move it to their least common multiple.
        """
        bn, bd = _MASS_BOUND.numerator, _MASS_BOUND.denominator
        total, top = 0, 1  # the mass so far is total / top
        for v in self.values:
            num, den = v.numerator, v.denominator
            if num < 0 or (num > den and num * bd > bn * den):
                raise ValueError(f"pmf value out of [0, 1]: {v!r}")
            scale, rem = divmod(den, top) if den > top else divmod(top, den)
            if rem:
                g = math.gcd(top, den)
                total, top = total * (den // g) + num * (top // g), top // g * den
            elif den > top:
                total, top = total * scale + num, den
            else:
                total += num * scale
        if total * bd > bn * top:
            raise ValueError(f"pmf mass exceeds 1: {sum(self.values)!r}")

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def value(self, n: int) -> Scalar:
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]

    def items(self):
        for i, v in enumerate(self.values):
            yield self.n_min + i, v


class MomentKind(Enum):
    FACTORIAL = "factorial"
    RAW = "raw"
    CENTRAL = "central"


@dataclass(frozen=True)
class MomentSet:
    """Moments of one kind, orders 1..N; order 0 is implicitly 1."""

    kind: MomentKind
    scheme: IndexScheme
    values: tuple

    @property
    def order_max(self) -> int:
        return len(self.values)

    def value(self, order: int) -> Scalar:
        if order == 0:
            return 1
        if not 1 <= order <= self.order_max:
            raise IndexError(f"order {order} outside 1..{self.order_max}")
        return self.values[order - 1]


def convert_index(n: int, src: IndexScheme, dst: IndexScheme, params: RunParams) -> int:
    """Shift a trial index between schemes: ``n_cut = n_full - r*k``."""
    if src is dst:
        return n
    rk = params.r * params.k
    return n - rk if dst is IndexScheme.CUT else n + rk
