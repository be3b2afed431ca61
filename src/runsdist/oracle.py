"""Independent ground truth for every engine.

Three layers, deliberately dumb: a forward dynamic program over the run-state
machine (exact in rational mode, where it carries every mass as an integer
over a power of the denominator of ``p`` and builds one fraction per
absorbed entry), a 2^n brute force that scans every
sequence (the oracle for the oracle), and a vectorized Monte Carlo driven by
the Philox counter-based generator (named so results are reproducible across
machines). All three speak every counting semantics: nonoverlapping
(Type I), at-least-one-failure-between (Type II), ell-overlapping (Type III
at ell = k-1), and the minimum-gap variant; an overlap of k or more, which
no engine computes, is rejected with a ``ValueError`` before any work starts.

The families differ in one fact, :attr:`VariantSpec.restart`: the run
progress a completed run leaves behind (the overlap, ``-g`` for a gap, -1
for Type II). All three oracles share one state, the runs done and a signed
run progress: a negative progress marks a trial that cannot advance a run,
which a gap leaves one trial at a time and Type II on a failure. Each public
oracle turns its :class:`CountingSemantics` into a :class:`VariantSpec` once,
on entry, and reads the dynamics off that.

Only :func:`monte_carlo` needs numpy, and it imports numpy when it runs, so
importing this module (and the package) leaves numpy unloaded.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .core import TYPE1, IndexScheme, PmfTable, PowerRatio, RunParams, VariantSpec


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


def _completions(seq, k: int, variant: VariantSpec):
    """Yield the trial at which each run of ``seq`` completes, by direct scan.

    The progress is signed: a completed run restarts it at
    ``variant.restart``, and a negative progress cannot advance a run. A gap
    progress climbs back to 0 one trial at a time whatever the outcome; the
    Type II -1 waits for a failure.
    """
    type2, restart = variant.type2, variant.restart
    prog = 0
    for t, success in enumerate(seq, start=1):
        if prog < 0 and not type2:
            prog += 1
        elif not success:
            prog = 0
        elif prog >= 0:
            prog += 1
            if prog == k:
                yield t
                prog = restart


def sequence_waiting_time(seq, k: int, r: int,
                          semantics: CountingSemantics) -> int | None:
    """Trial index at which the r-th run completes, by direct scan.

    ``None`` when ``seq`` ends first. An overlap of ``k`` or more is
    rejected with the ``ValueError`` of the other oracles.
    """
    variant = semantics.to_variant()
    variant.check_run_length(k)
    return next(itertools.islice(_completions(seq, k, variant), r - 1, None), None)


def dp_waiting_time(params: RunParams, semantics: CountingSemantics,
                    n_max: int) -> tuple:
    """Exact pmf over ``[1, n_max]`` plus the not-yet-absorbed mass.

    Forward DP over (runs done, signed run progress), with the moves of
    :func:`_completions`. In exact mode every mass after ``t`` trials is kept
    as an integer over ``den^t`` (``den`` the denominator of ``p``), so a
    trial multiplies by the numerators of ``p`` and ``q`` and a gap trial by
    ``den``; one fraction is built per absorbed entry, by
    :class:`~runsdist.core.PowerRatio`.
    """
    variant = semantics.to_variant()
    variant.check_against(params)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k, r = params.k, params.r
    if params.exact:
        den = params.p.denominator
        p, q, stay = params.p.numerator, den - params.p.numerator, den
    else:
        p, q, stay = params.p, params.q, 1
    type2, restart = variant.type2, variant.restart
    ratio = PowerRatio(params)
    states = {(0, 0): 1}
    absorbed = []
    for t in range(1, n_max + 1):
        new = defaultdict(int)
        hit = 0
        for (runs, prog), mass in states.items():
            if prog < 0 and not type2:
                new[(runs, prog + 1)] += mass * stay
                continue
            new[(runs, 0)] += mass * q
            win = mass * p
            if prog < 0:
                new[(runs, prog)] += win
            elif prog + 1 < k:
                new[(runs, prog + 1)] += win
            elif runs + 1 < r:
                new[(runs + 1, restart)] += win
            else:
                hit += win
        states = dict(new)
        if params.exact:
            hit = ratio(hit, t) if hit else 0
        absorbed.append(hit)
    deficit = sum(states.values())
    if params.exact:
        deficit = ratio(deficit, n_max)
    return PmfTable(params, IndexScheme.FULL, variant, 1, tuple(absorbed)), deficit


def dp_waiting_time_pmf(params: RunParams, semantics: CountingSemantics,
                        n_max: int) -> PmfTable:
    return dp_waiting_time(params, semantics, n_max)[0]


def brute_force_pmf(params: RunParams, semantics: CountingSemantics,
                    n_max: int) -> PmfTable:
    """Enumerate all 2^n_max sequences and classify each by direct scan."""
    variant = semantics.to_variant()
    variant.check_against(params)
    if not 1 <= n_max <= 22:
        raise ValueError("brute force is capped at n_max <= 22")
    k, r = params.k, params.r
    p, q = params.p, params.q
    ppow = [p ** i for i in range(n_max + 1)]
    qpow = [q ** i for i in range(n_max + 1)]
    pmf = [0] * (n_max + 1)
    for seq in itertools.product((True, False), repeat=n_max):
        w = next(itertools.islice(_completions(seq, k, variant), r - 1, None), None)
        if w is not None:
            ns = sum(seq)
            pmf[w] += ppow[ns] * qpow[n_max - ns]
    return PmfTable(params, IndexScheme.FULL, variant, 1, tuple(pmf[1:]))


def brute_force_run_count_dist(params: RunParams, n: int) -> dict:
    """Exact distribution of the Type II run count over ``n`` trials.

    The count is the number of maximal success blocks of length ``>= k``: a
    Type II scan completes one run in each.
    """
    if not 1 <= n <= 22:
        raise ValueError("brute force is capped at n <= 22")
    p, q = params.p, params.q
    ppow = [p ** i for i in range(n + 1)]
    qpow = [q ** i for i in range(n + 1)]
    type2 = VariantSpec.type_ii()
    dist: dict = defaultdict(int)
    for seq in itertools.product((True, False), repeat=n):
        ns = sum(seq)
        runs = sum(1 for _ in _completions(seq, params.k, type2))
        dist[runs] += ppow[ns] * qpow[n - ns]
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
    uses: each trial draws one uniform per still-running stream, in stream
    order, and absorbed streams are compacted away so the work scales with
    the number of streams left. A stream's state is its run progress and its
    run count; a negative progress marks a stream that cannot advance yet (-1
    a saturated Type II run waiting for a failure, -c a gap stream with c
    cooldown trials left), so one trial is two in-place array operations on
    the progress. Deterministic for a fixed seed.
    """
    variant = semantics.to_variant()
    variant.check_against(params)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    p = float(params.p)
    k, r = params.k, params.r
    type2, gap, restart = variant.type2, variant.gap, variant.restart
    idx = np.arange(samples)
    prog = np.zeros(samples, np.int32)
    runs = np.zeros(samples, np.int32)
    wait = np.zeros(samples, np.int64)
    t = 0
    while idx.size:
        t += 1
        if t > 10_000_000:
            raise RuntimeError("simulation failed to absorb; check parameters")
        succ = rng.random(idx.size) < p
        if type2:
            prog += prog >= 0
            prog *= succ
        elif gap:
            prog += 1
            prog *= succ | (prog <= 0)
        else:
            prog += 1
            prog *= succ
        done = np.flatnonzero(prog >= k)
        if done.size:
            prog[done] = restart
            runs[done] += 1
            fin = done[runs[done] >= r]
            if fin.size:
                wait[idx[fin]] = t
                # one index list gathers every array, faster than a mask each
                keep = np.ones(idx.size, bool)
                keep[fin] = False
                keep = np.flatnonzero(keep)
                idx = idx[keep]
                prog = prog[keep]
                runs = runs[keep]
    mean = float(wait.mean())
    var = float(wait.var(ddof=1)) if samples > 1 else 0.0
    centered = wait - mean
    m2 = float(np.mean(centered ** 2))
    m3 = float(np.mean(centered ** 3))
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    counts = np.bincount(wait)
    return MonteCarloResult(samples=samples, seed=seed, mean=mean, variance=var,
                            skewness=skew, counts=tuple(int(c) for c in counts))
