"""Independent ground truth for every engine.

Three layers, deliberately dumb: a forward dynamic program over the run-state
machine (exact in rational mode, where it carries every mass as an integer
over a power of the denominator of ``p`` and builds one fraction per
absorbed entry), a 2^n brute force that scans every
sequence (the oracle for the oracle), and a vectorized Monte Carlo driven by
the Philox counter-based generator (named so results are reproducible across
machines). All three speak every counting semantics: nonoverlapping
(Type I), at-least-one-failure-between (Type II), ell-overlapping (Type III
at ell = k-1), and the minimum-gap variant.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import TYPE1, IndexScheme, PmfTable, RunParams, VariantSpec


class CountingMode(Enum):
    NON_OVERLAPPING = "non-overlapping"          # Type I
    FAILURE_SEPARATED = "failure-separated"      # Type II
    OVERLAP = "overlap"                          # Type III at ell = k-1
    GAP = "gap"


@dataclass(frozen=True)
class CountingSemantics:
    """Which events count as a completed run, and what happens afterwards."""

    mode: CountingMode
    overlap: int = 0
    gap: int = 0

    def __post_init__(self) -> None:
        if self.mode is CountingMode.OVERLAP and self.overlap < 1:
            raise ValueError("overlap semantics needs overlap >= 1")
        if self.mode is CountingMode.GAP and self.gap < 1:
            raise ValueError("gap semantics needs gap >= 1")
        if self.mode is not CountingMode.OVERLAP and self.overlap:
            raise ValueError("overlap only applies to overlap semantics")
        if self.mode is not CountingMode.GAP and self.gap:
            raise ValueError("gap only applies to gap semantics")

    @classmethod
    def from_variant(cls, variant: VariantSpec) -> "CountingSemantics":
        if variant.type2:
            return cls(CountingMode.FAILURE_SEPARATED)
        if variant.overlap > 0:
            return cls(CountingMode.OVERLAP, overlap=variant.overlap)
        if variant.overlap < 0:
            return cls(CountingMode.GAP, gap=variant.gap)
        return cls(CountingMode.NON_OVERLAPPING)

    def to_variant(self) -> VariantSpec:
        if self.mode is CountingMode.FAILURE_SEPARATED:
            return VariantSpec(type2=True)
        if self.mode is CountingMode.OVERLAP:
            return VariantSpec(overlap=self.overlap)
        if self.mode is CountingMode.GAP:
            return VariantSpec(overlap=-self.gap)
        return TYPE1


def sequence_waiting_time(seq, k: int, r: int,
                          semantics: CountingSemantics) -> int | None:
    """Trial index at which the r-th run completes, by direct scan."""
    mode = semantics.mode
    runs = prog = cool = 0
    sat = False
    for t, success in enumerate(seq, start=1):
        if cool:
            cool -= 1
            continue
        if not success:
            prog = 0
            sat = False
            continue
        if sat:
            continue
        prog += 1
        if prog == k:
            runs += 1
            if runs == r:
                return t
            prog = 0
            if mode is CountingMode.FAILURE_SEPARATED:
                sat = True
            elif mode is CountingMode.OVERLAP:
                prog = semantics.overlap
            elif mode is CountingMode.GAP:
                cool = semantics.gap
    return None


def dp_waiting_time(params: RunParams, semantics: CountingSemantics,
                    n_max: int) -> tuple:
    """Exact pmf over ``[1, n_max]`` plus the not-yet-absorbed mass.

    Forward DP over (runs done, run progress, cooldown, saturated); the
    cooldown counter decrements on every trial regardless of outcome, and a
    Type II run stays saturated (extra successes do not re-credit) until a
    failure re-arms it. In exact mode every mass after ``t`` trials is kept
    as an integer over ``den^t`` (``den`` the denominator of ``p``), so a
    trial multiplies by the numerators of ``p`` and ``q`` and a cooldown
    trial by ``den``; one fraction is built per absorbed entry.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k, r = params.k, params.r
    if params.exact:
        den = params.p.denominator
        p, q, stay = params.p.numerator, den - params.p.numerator, den
    else:
        p, q, stay = params.p, params.q, 1
    mode = semantics.mode
    states = {(0, 0, 0, False): 1}
    absorbed = []
    scale = 1
    for _ in range(n_max):
        new = defaultdict(int)
        hit = 0
        for (runs, prog, cool, sat), mass in states.items():
            if cool:
                new[(runs, 0, cool - 1, False)] += mass * stay
                continue
            new[(runs, 0, 0, False)] += mass * q
            win = mass * p
            if sat:
                new[(runs, 0, 0, True)] += win
                continue
            if prog + 1 == k:
                if runs + 1 == r:
                    hit += win
                elif mode is CountingMode.FAILURE_SEPARATED:
                    new[(runs + 1, 0, 0, True)] += win
                elif mode is CountingMode.OVERLAP:
                    new[(runs + 1, semantics.overlap, 0, False)] += win
                elif mode is CountingMode.GAP:
                    new[(runs + 1, 0, semantics.gap, False)] += win
                else:
                    new[(runs + 1, 0, 0, False)] += win
            else:
                new[(runs, prog + 1, 0, False)] += win
        states = dict(new)
        if params.exact:
            scale *= stay
            hit = Fraction(hit, scale) if hit else 0
        absorbed.append(hit)
    deficit = sum(states.values())
    if params.exact:
        deficit = Fraction(deficit, scale)
    table = PmfTable(params, IndexScheme.FULL, semantics.to_variant(), 1,
                     tuple(absorbed))
    return table, deficit


def dp_waiting_time_pmf(params: RunParams, semantics: CountingSemantics,
                        n_max: int) -> PmfTable:
    return dp_waiting_time(params, semantics, n_max)[0]


def brute_force_pmf(params: RunParams, semantics: CountingSemantics,
                    n_max: int) -> PmfTable:
    """Enumerate all 2^n_max sequences and classify each by direct scan."""
    if not 1 <= n_max <= 22:
        raise ValueError("brute force is capped at n_max <= 22")
    k, r = params.k, params.r
    p, q = params.p, params.q
    ppow = [p ** i for i in range(n_max + 1)]
    qpow = [q ** i for i in range(n_max + 1)]
    pmf = [0] * (n_max + 1)
    for seq in itertools.product((True, False), repeat=n_max):
        w = sequence_waiting_time(seq, k, r, semantics)
        if w is not None:
            ns = sum(seq)
            pmf[w] += ppow[ns] * qpow[n_max - ns]
    return PmfTable(params, IndexScheme.FULL, semantics.to_variant(), 1,
                    tuple(pmf[1:]))


def count_runs_type2(seq, k: int) -> int:
    """Number of maximal success blocks of length >= k in a fixed sequence."""
    count = run = 0
    for success in seq:
        if success:
            run += 1
            if run == k:
                count += 1
        else:
            run = 0
    return count


def brute_force_run_count_dist(params: RunParams, n: int) -> dict:
    """Exact distribution of the Type II run count over ``n`` trials."""
    if not 1 <= n <= 22:
        raise ValueError("brute force is capped at n <= 22")
    p, q = params.p, params.q
    ppow = [p ** i for i in range(n + 1)]
    qpow = [q ** i for i in range(n + 1)]
    dist: dict = defaultdict(int)
    for seq in itertools.product((True, False), repeat=n):
        ns = sum(seq)
        dist[count_runs_type2(seq, params.k)] += ppow[ns] * qpow[n - ns]
    return dict(dist)


@dataclass(frozen=True)
class MonteCarloResult:
    samples: int
    seed: int
    mean: float
    variance: float
    skewness: float
    counts: tuple  # counts[i] is the number of waiting times equal to i

    def histogram_items(self):
        for n, c in enumerate(self.counts):
            if c:
                yield n, c


def monte_carlo(params: RunParams, semantics: CountingSemantics,
                samples: int, seed: int) -> MonteCarloResult:
    """Simulate Bernoulli streams with a seeded Philox generator.

    Column-by-column vectorized stepping of the same state machine the DP
    uses; absorbed samples are compacted away so the work scales with the
    number of still-running streams. Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    p = float(params.p)
    k, r = params.k, params.r
    mode = semantics.mode
    idx = np.arange(samples)
    prog = np.zeros(samples, np.int32)
    runs = np.zeros(samples, np.int32)
    cool = np.zeros(samples, np.int32)
    sat = np.zeros(samples, bool)
    wait = np.zeros(samples, np.int64)
    t = 0
    while idx.size:
        t += 1
        if t > 10_000_000:
            raise RuntimeError("simulation failed to absorb; check parameters")
        succ = rng.random(idx.size) < p
        cooling = cool > 0
        cool[cooling] -= 1
        active = ~cooling
        failed = active & ~succ
        prog[failed] = 0
        sat[failed] = False
        advancing = active & succ & ~sat
        prog[advancing] += 1
        done = prog >= k
        if done.any():
            runs[done] += 1
            fin = done & (runs >= r)
            cont = done & ~fin
            prog[cont] = 0
            if mode is CountingMode.FAILURE_SEPARATED:
                sat[cont] = True
            elif mode is CountingMode.OVERLAP:
                prog[cont] = semantics.overlap
            elif mode is CountingMode.GAP:
                cool[cont] = semantics.gap
            if fin.any():
                wait[idx[fin]] = t
                keep = ~fin
                idx = idx[keep]
                prog = prog[keep]
                runs = runs[keep]
                cool = cool[keep]
                sat = sat[keep]
    mean = float(wait.mean())
    var = float(wait.var(ddof=1)) if samples > 1 else 0.0
    centered = wait - mean
    m2 = float(np.mean(centered ** 2))
    m3 = float(np.mean(centered ** 3))
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    counts = np.bincount(wait)
    return MonteCarloResult(samples=samples, seed=seed, mean=mean, variance=var,
                            skewness=skew, counts=tuple(int(c) for c in counts))
