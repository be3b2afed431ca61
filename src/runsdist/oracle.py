"""Independent ground truth for every engine.

Three layers, deliberately dumb: a forward dynamic program over the run-state
machine (exact in rational mode, where it carries every mass as an integer
over a power of the denominator of ``p`` and builds one fraction per
absorbed entry), a 2^n brute force that scans every
sequence (the oracle for the oracle), and a vectorized Monte Carlo driven by
the Philox counter-based generator (named so results are reproducible across
machines), which steps its streams in segments of ``_DRAW_BLOCK``, through
one reused block of doubles and one success mask, and keeps 9 bytes of state
per sample (10 when ``r > 1``); every other temporary is at most one
segment long, but for the histogram and the moments' two power tables, one
8-byte entry per waiting time up to the longest. All three speak every
counting semantics: nonoverlapping (Type I), at-least-one-failure-between
(Type II), ell-overlapping (Type III at ell = k-1), and the minimum-gap
variant; an overlap of k or more, which no engine computes, is rejected with
a ``ValueError`` before any work starts.

The families differ in one fact, :attr:`VariantSpec.restart`: the run
progress a completed run leaves behind (the overlap, ``-g`` for a gap, -1
for Type II). All three oracles share one state, the runs done and a signed
run progress: a negative progress marks a trial that cannot advance a run,
which a gap leaves one trial at a time and Type II on a failure. Each public
oracle turns its :class:`CountingSemantics` into a :class:`VariantSpec` once,
on entry, and reads the dynamics off that. The brute force classifies each
sequence by one direct scan, :func:`_completions`; the single-sequence
scanner and the Type II run-count brute force that the tests read it
through live in ``tests/reference.py``, outside the package.

Only :func:`monte_carlo` needs numpy, and it imports numpy when it runs, so
importing this module (and the package) leaves numpy unloaded.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .core import (TYPE1, IndexScheme, NumericFailure, PmfTable, PowerRatio, RunParams,
                   VariantSpec)


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
        p, den = params.p.as_integer_ratio()
        q, stay = den - p, den
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


_TRIALS_MAX = 10_000_000  # trials a Monte Carlo run takes before it gives up
_DRAW_BLOCK = 1 << 16  # streams stepped per segment: uniforms drawn per generator call
_PAIRWISE_BLOCK = 128  # numpy sums at most this many doubles in one unrolled loop


class SimulationNotAbsorbed(NumericFailure):
    """A Monte Carlo run reached its trial cap with streams still waiting for their runs."""


def _pairwise_gathered_sums(tables: tuple, keys, leaf: int) -> tuple:
    """``float(np.add.reduce(table[keys]))`` for each table, gathering one leaf at a time.

    numpy sums a float64 array pairwise: it halves the length, rounds the first
    half down to a multiple of 8 and splits no further at 128 elements or
    fewer. This splits ``keys`` the same way, down to leaves of at most
    ``leaf`` keys, and lets numpy sum each leaf's gather, so every addition is
    numpy's own and the sums are bit-identical, in scratch memory of one leaf.
    """
    n = keys.size
    if n <= leaf or n <= _PAIRWISE_BLOCK:
        return tuple(float(table[keys].sum()) for table in tables)
    half = n // 2
    half -= half % 8
    left = _pairwise_gathered_sums(tables, keys[:half], leaf)
    right = _pairwise_gathered_sums(tables, keys[half:], leaf)
    return tuple(a + b for a, b in zip(left, right))


def monte_carlo(params: RunParams, semantics: CountingSemantics,
                samples: int, seed: int) -> MonteCarloResult:
    """Simulate Bernoulli streams with a seeded Philox generator.

    Column-by-column vectorized stepping of the same state machine the DP
    uses: each trial draws one uniform per still-running stream, in stream
    order, and absorbed streams are compacted away so the work scales with
    the number of streams left. A trial walks the live streams in segments
    of ``_DRAW_BLOCK``: it draws the segment's uniforms into one reused
    float64 block, compares them into a reused success mask, steps the
    segment's progress in place and moves its survivors down to a write
    cursor, which never passes the segment being read; chunked draws are the
    same doubles in the same order as one large draw, so the block size
    changes no result. A stream's state is its int32 index, its run progress
    and its run count (kept only when ``r > 1``, as at ``r = 1`` every
    completion finishes its stream), int8 while ``k``, the gap and ``r`` are
    at most 127 and int32 otherwise, and its int32 waiting time, which the
    trial cap keeps below 2^31; so ``samples`` must be below 2^31 too. A
    negative progress marks a stream that cannot advance yet (-1 a saturated
    Type II run waiting for a failure, -c a gap stream with c cooldown trials
    left), so one step is two in-place array operations on the progress. The
    histogram and the moments are summed a segment or a pairwise leaf at a
    time, with the bits of numpy's whole-array ``bincount``, ``mean`` and
    ``var``; besides one segment's scratch they hold at most three arrays of
    one 8-byte entry per waiting time up to the longest, the histogram and
    the squared and cubed deviations. Deterministic for a fixed seed.
    """
    variant = semantics.to_variant()
    variant.check_against(params)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples >= 2 ** 31:  # stream indices and waiting times are int32
        raise ValueError("samples must be below 2**31")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    p = float(params.p)
    k, r = params.k, params.r
    type2, gap, restart = variant.type2, variant.gap, variant.restart
    state = np.int8 if max(k, gap, r) <= 127 else np.int32
    block = np.empty(min(samples, _DRAW_BLOCK))
    mask = np.empty(block.size, bool)
    idx = np.arange(samples, dtype=np.int32)
    prog = np.zeros(samples, state)
    runs = np.zeros(samples, state) if r > 1 else None
    live = (idx, prog) if runs is None else (idx, prog, runs)
    wait = np.zeros(samples, np.int32)
    n, t = samples, 0
    while n:
        t += 1
        if t > _TRIALS_MAX:
            raise SimulationNotAbsorbed(f"streams still running after {_TRIALS_MAX} trials; "
                                        "check parameters")
        cursor = 0
        for lo in range(0, n, _DRAW_BLOCK):
            hi = min(lo + _DRAW_BLOCK, n)
            succ = np.less(rng.random(out=block[:hi - lo]), p, out=mask[:hi - lo])
            pr = prog[lo:hi]
            if type2:
                pr += pr >= 0
                pr *= succ
            elif gap:
                pr += 1
                pr *= succ | (pr <= 0)
            else:
                pr += 1
                pr *= succ
            # nonzero()[0] is flatnonzero on a 1-d array without its per-call ravel,
            # which a long walk pays once a trial
            fin = done = (pr >= k).nonzero()[0]
            if done.size and runs is not None:
                pr[done] = restart
                rs = runs[lo:hi]
                done_runs = rs[done] + 1
                rs[done] = done_runs
                fin = done[done_runs >= r]
            # survivors move down, in order; the cursor never passes lo
            if fin.size:
                wait[idx[lo:hi][fin]] = t
                # one index list gathers every array, faster than a mask each
                keep = np.ones(hi - lo, bool)
                keep[fin] = False
                keep = keep.nonzero()[0]
                for a in live:
                    a[cursor:cursor + keep.size] = a[lo:hi][keep]
                cursor += keep.size
            else:
                if cursor < lo:
                    for a in live:
                        a[cursor:cursor + hi - lo] = a[lo:hi]
                cursor += hi - lo
        n = cursor
    mean = float(wait.mean())
    # t is the longest wait; a segment's bincount casts only that segment to
    # intp, and a later segment's histogram stops at its own longest wait
    counts = np.bincount(wait[:_DRAW_BLOCK], minlength=t + 1)
    for lo in range(_DRAW_BLOCK, samples, _DRAW_BLOCK):
        part = np.bincount(wait[lo:lo + _DRAW_BLOCK])
        counts[:part.size] += part
    # the powers once per waiting time, gathered a leaf at a time: the same
    # elements in the same order, summed as numpy sums the gathered array;
    # squaring in place (** 2 is np.square, one exact product) keeps two
    # tables, not three
    squares = np.arange(t + 1, dtype=np.float64) - mean
    cubes = squares ** 3
    np.square(squares, out=squares)
    s2, s3 = _pairwise_gathered_sums((squares, cubes), wait, _DRAW_BLOCK)
    del squares, cubes
    # var(ddof=1) and mean of the squared deviations divide the same sum
    var = s2 / (samples - 1) if samples > 1 else 0.0
    m2, m3 = s2 / samples, s3 / samples
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    return MonteCarloResult(samples=samples, seed=seed, mean=mean, variance=var,
                            skewness=skew, counts=tuple(int(c) for c in counts))
