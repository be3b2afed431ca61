"""Parameter types, trial-indexing bookkeeping, and shared result containers.

The library runs in one of two numeric modes, selected by the type of the
success probability: a ``float`` gives double precision, a
:class:`fractions.Fraction` gives exact rational arithmetic end to end. All
types here are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .special import binom, falling

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

    def exact_p(self) -> Fraction:
        """The success probability as an exact rational.

        In float mode this is the exact binary value of the stored double, so
        exact-internal computations agree with float-mode inputs bit for bit.
        """
        return self.p if isinstance(self.p, Fraction) else Fraction(self.p)

    def finalize(self, value) -> Scalar:
        """An exact internal result in this mode: unchanged when exact, else rounded once."""
        return value if self.exact else float(value)

    def ratio(self, num: int, den: int) -> Scalar:
        """The exact quotient ``num / den`` of two integers in this mode.

        Float mode rounds the quotient once, correctly, with the same bits as
        ``float(Fraction(num, den))`` but without reducing the fraction first.
        """
        return Fraction(num, den) if self.exact else num / den

    def to_float(self) -> "RunParams":
        return self if not self.exact else RunParams(self.k, self.r, float(self.p))

    def to_exact(self) -> "RunParams":
        return self if self.exact else RunParams(self.k, self.r, Fraction(self.p))


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
            raise ValueError(
                f"overlap must be at most k-1 = {params.k - 1}, got {self.overlap}")

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
        """Parse 'type1', 'type2', 'overlap=L' or 'gap=G'."""
        if text == "type1":
            return cls()
        if text == "type2":
            return cls.type_ii()
        if text.startswith("overlap="):
            return cls.with_overlap(int(text.split("=", 1)[1]))
        if text.startswith("gap="):
            return cls.with_gap(int(text.split("=", 1)[1]))
        raise ValueError(f"unknown variant {text!r}")


TYPE1 = VariantSpec()
TYPE2 = VariantSpec(type2=True)


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
        total = 0
        for v in self.values:
            if v < 0 or v > 1 + 1e-9:
                raise ValueError(f"pmf value out of [0, 1]: {v!r}")
            total += v
        if total > 1 + 1e-9:
            raise ValueError(f"pmf mass exceeds 1: {total!r}")

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

    def total_mass(self) -> Scalar:
        return sum(self.values)


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


def shift_moments(ms: MomentSet, a: int) -> MomentSet:
    """Full-scheme moments of ``X + a`` from the factorial or raw moments of ``X``.

    The shift mixes orders: factorial moments shift through falling
    factorials, ``M_(n)(X+a) = sum_i C(n, i) M_(n-i)(X) (a)_(i)``, and raw
    moments through plain powers ``a^i``. Shifting cut-scheme moments by
    ``a = r*k`` gives the full scheme; shifting full-scheme moments by
    ``(r-1) g`` gives the minimum-gap variant. Central moments do not move
    under a shift and are rejected.
    """
    if ms.kind is MomentKind.CENTRAL:
        raise ValueError("central moments do not change under a shift")
    power = falling if ms.kind is MomentKind.FACTORIAL else pow
    out = []
    for n in range(1, ms.order_max + 1):
        out.append(sum(binom(n, i) * ms.value(n - i) * power(a, i)
                       for i in range(n + 1)))
    return MomentSet(ms.kind, IndexScheme.FULL, tuple(out))
