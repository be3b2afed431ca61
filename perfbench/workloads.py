"""Seeded op streams for the two benchmark workloads and their four parts.

An op is one call into one public function of one ``runsdist`` module (or
one CLI subprocess), plus a check of its result. Ops come in groups that
share one parameter point; a group's first ops compute the references its
later ops are checked against. Every function is looked up on its module at
call time, so the traced run can wrap it in a span.

Parameter points come from ``random.Random`` streams keyed by part, seed
and group index, so the same seed gives the same op list. Each part steps
the parameters that set an op's cost through a fixed order across groups
(k, the (k, r) cell, the denominator, the Monte Carlo family); the seed
picks everything else. That keeps the mix of costs in a pass the same from
seed to seed.

An op list is one pass of about twenty seconds. A run goes through it
again and again until its time is up, so every run measures the same ops
several times over, and a run on a slow stretch of the host measures the
same mix as one on a fast stretch.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import runsdist.moments as MOM
import runsdist.oracle as ORA
import runsdist.pmf as PMF
import runsdist.roots as ROOTS
from runsdist.core import IndexScheme, MomentKind, RunParams, VariantSpec
from runsdist.moments import MomentRoute
from runsdist.oracle import CountingMode, CountingSemantics
from runsdist.pmf import MuselliForm, PmfEngine, TermCounter

from checks import (all_close, csv_rows, exact_equal, float_equal, rel_close,
                    within_se)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")

FULL, CUT = IndexScheme.FULL, IndexScheme.CUT
SEM_T1 = CountingSemantics(CountingMode.NON_OVERLAPPING)
SEM_T2 = CountingSemantics(CountingMode.FAILURE_SEPARATED)

EXACT_ENGINES = (PmfEngine.RECURRENCE_PG, PmfEngine.RECURRENCE_CH,
                 PmfEngine.FULLSUM_CH, PmfEngine.NESTED_SUM, PmfEngine.HYP_SUM,
                 PmfEngine.PGF_EXPANSION)

# Wall-clock budget of one CLI subprocess. In-process ops have none: their
# parameters are chosen so that every call returns within seconds.
CLI_BUDGET_S = 10.0


class Crash(RuntimeError):
    """A CLI subprocess exited with an unexpected code and a traceback."""


@dataclass
class Op:
    key: str                      # the call and its arguments
    layer: str                    # module entered: pmf, roots, moments, oracle, cli
    label: str                    # engine, route or stage name for the metrics
    call: Callable[[Any], Any]    # call(tracer) -> result; the timed region
    check: Callable[[Any], str | None]
    depth: int | None = None      # float-tail depth bucket
    extra: Callable[[Any, Any], None] | None = field(default=None, repr=False)


def _pt(params: RunParams) -> str:
    return f"k={params.k} r={params.r} p={params.p}"


def _store(ctx: dict, name: str, value, check=None):
    """Keep ``value`` as a reference for later ops in the group."""
    def run(result):
        ctx[name] = value(result)
        return check(result) if check else None
    return run


def _against(ctx: dict, name: str, compare):
    def run(result):
        if name not in ctx:
            return f"reference {name} missing"
        return compare(result, ctx[name])
    return run


# ---------------------------------------------------------------- exact-grid

EXACT_SPAN = 80          # table width: [rk, rk + 80]
MUSELLI_N_MAX = 200
COUNTS_N_MAX = 30


def _rational(rng: random.Random, d_max: int) -> Fraction:
    d = rng.randint(2, d_max)
    return Fraction(rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1]), d)


def _dp_head_check(params: RunParams, lo: int):
    """The DP table is zero below the support and ``p^lo`` at its start."""
    def check(table):
        head = table.values[:lo]
        if any(v != 0 for v in head[:-1]) or head[-1] != params.p ** lo:
            return "DP table does not start with zeros then p^(support)"
        return None
    return check


def exact_grid_group(k: int, r: int, p: Fraction, gap: int, n_counts: int) -> list:
    params = RunParams(k, r, p)
    pt = _pt(params)
    rk = r * k
    ctx: dict = {}
    ops = []

    def dp_op(name, sem, lo, hi):
        first = lo - (r - 1) * sem.gap
        return Op(f"dp_waiting_time_pmf {sem.mode.value} gap={sem.gap} {pt} n<={hi}",
                  "oracle", "dp",
                  lambda tr: ORA.dp_waiting_time_pmf(params, sem, hi),
                  _store(ctx, name, lambda t: t.values[lo - 1:hi],
                         _dp_head_check(params, first) if not sem.gap else None))

    def table_op(engine, scheme, variant, lo, hi, ref):
        return Op(f"pmf_table {engine.value}@{scheme.value} {variant.describe()} "
                  f"{pt} n=[{lo},{hi}]", "pmf", engine.value,
                  lambda tr: PMF.pmf_table(params, engine, lo, hi, scheme, variant),
                  _against(ctx, ref, lambda t, v: exact_equal(t.values, v)))

    ops.append(dp_op("dp", SEM_T1, rk, rk + EXACT_SPAN))
    for engine in EXACT_ENGINES:
        ops.append(table_op(engine, FULL, VariantSpec(), rk, rk + EXACT_SPAN, "dp"))
    for engine in EXACT_ENGINES:
        ops.append(table_op(engine, CUT, VariantSpec(), 0, EXACT_SPAN, "dp"))
    gap_lo = rk + (r - 1) * gap
    ops.append(dp_op("dp_gap", CountingSemantics(CountingMode.GAP, gap=gap),
                     gap_lo, gap_lo + EXACT_SPAN))
    for engine in EXACT_ENGINES:
        ops.append(table_op(engine, FULL, VariantSpec.with_gap(gap), gap_lo,
                            gap_lo + EXACT_SPAN, "dp_gap"))

    # Type II: both Muselli forms against the DP oracle
    t2_lo = PMF.support_min(params, VariantSpec.type_ii())
    ops.append(Op(f"dp_waiting_time_pmf type2 {pt} n<={MUSELLI_N_MAX}", "oracle", "dp",
                  lambda tr: ORA.dp_waiting_time_pmf(params, SEM_T2, MUSELLI_N_MAX),
                  _store(ctx, "dp_t2", lambda t: t.values[t2_lo - 1:])))
    for engine in (PmfEngine.MUSELLI_ORIGINAL, PmfEngine.MUSELLI_ALT):
        ops.append(table_op(engine, FULL, VariantSpec.type_ii(), t2_lo,
                            MUSELLI_N_MAX, "dp_t2"))

    # run-count distribution at one n: sums to exactly 1, both forms agree
    m_max = (n_counts + 1) // (k + 1)
    for form in (MuselliForm.ORIGINAL, MuselliForm.ALT):
        def counts(tr, form=form):
            return [PMF.counts_muselli(params, n_counts, c, form) for c in range(m_max + 1)]

        def check(dist, form=form):
            if sum(dist) != 1:
                return f"run-count distribution sums to {sum(dist)}"
            if form is MuselliForm.ORIGINAL:
                ctx["counts"] = dist
                return None
            return _against(ctx, "counts", exact_equal)(dist)

        ops.append(Op(f"counts_muselli {form.value} {pt} n={n_counts}", "pmf",
                      "muselli-counts", counts, check))
    return ops


# Denominator of each group's p, in group order: the sums' integers grow with
# its bits, so it follows a fixed schedule over 2..20 like k and r do.
EXACT_DENOMINATORS = (20, 7, 16, 11, 13, 9, 18, 5, 17, 12, 19, 8, 15, 10, 14, 6, 3, 4, 2, 20)


def exact_grid(seed: int, n_groups: int) -> list:
    """Groups stepping through the (k, r) cells and denominators in a fixed order.

    Five consecutive groups hold every k and at least three values of r, and
    the denominator follows ``EXACT_DENOMINATORS``, so the cost mix of a pass
    is the same for every seed. The seed picks the numerator from the middle
    half (the sums' integers grow with the bits of both ``a`` and ``d - a``),
    the gap and the run-count index.
    """
    ops = []
    for g in range(n_groups):
        rng = random.Random(f"exact-grid:{seed}:{g}")
        k = 1 + g % 5
        r = 1 + (g % 5 + g // 5) % 4
        d = EXACT_DENOMINATORS[g % len(EXACT_DENOMINATORS)]
        coprime = [a for a in range(1, d) if math.gcd(a, d) == 1]
        p = Fraction(rng.choice([a for a in coprime if d <= 4 * a <= 3 * d] or coprime), d)
        ops.extend(exact_grid_group(k, r, p, rng.randint(1, 3),
                                    rng.randint(k + 1, COUNTS_N_MAX)))
    return ops


# ---------------------------------------------------------------- float-tail

DEPTHS = (250, 500, 1000, 2000)
HYP_DEPTH_MAX = 1000       # hyp-sum costs ~5 s per index at n=2000
FULLSUM_DEPTH_MAX = 500
PGF_DEPTH_MAX = 250
# non-dyadic multiples of 1/20: each has a full 53-bit binary expansion
FLOAT_TAIL_P = tuple(i / 20 for i in range(2, 19) if i not in (5, 10, 15))


def dominant_root(k: int, p: float) -> float:
    """Largest root of ``z^k - q (z^(k-1) + p z^(k-2) + ... + p^(k-1))``."""
    q = 1 - p
    lo, hi = 0.0, 1.0
    for _ in range(80):
        z = (lo + hi) / 2
        f = z ** k - q * sum(p ** j * z ** (k - 1 - j) for j in range(k))
        lo, hi = (z, hi) if f < 0 else (lo, z)
    return lo


def _tail_representable(k: int, p: float) -> bool:
    """The pmf at the deepest index stays far above the double underflow."""
    return (DEPTHS[-1] + 20) * math.log10(dominant_root(k, p)) > -250


def _counted(name: str, fn):
    """Traced runs pass a ``TermCounter`` and record its count."""
    def call(tr):
        if tr is None:
            return fn(None)
        counter = TermCounter()
        result = fn(counter)
        tr.add(name, counter.count)
        return result
    return call


def _nested_bits(params: RunParams, n: int):
    """Traced runs also record the size of the exact value nested-sum rounds."""
    def extra(tr, result):
        v = PMF.pmf_nested_sum(params.to_exact(), n, FULL)
        tr.maximum("pmf.exact_bits_max", v.numerator.bit_length() + v.denominator.bit_length())
    return extra


def float_tail_stages(params: RunParams, ns: tuple, full_engines: bool = True) -> list:
    """The ops of one point: root set-up first, then one list per depth."""
    pt = _pt(params)
    ctx: dict = {}
    stages = [[
        Op(f"solve_roots {pt}", "roots", "solve",
           lambda tr: ROOTS.solve_roots(params),
           _store(ctx, "system", lambda s: s,
                  lambda s: None if len(s.roots) == params.k else "wrong root count")),
        Op(f"recover_coefficients {pt}", "roots", "recover",
           lambda tr: ROOTS.recover_coefficients(ctx["system"]),
           _store(ctx, "coeffs", lambda c: c)),
    ]]
    for depth, n in zip(DEPTHS, ns):
        ref = f"nested{n}"
        ops = []
        stages.append(ops)
        ops.append(Op(f"pmf_nested_sum {pt} n={n}", "pmf", "nested-sum",
                      _counted("pmf.nested-sum.terms",
                               lambda c, n=n: PMF.pmf_nested_sum(params, n, FULL, c)),
                      _store(ctx, ref, lambda v: v,
                             lambda v: None if type(v) is float and v > 0 else "not a positive float"),
                      depth, _nested_bits(params, n)))
        if full_engines and depth <= HYP_DEPTH_MAX:
            ops.append(Op(f"pmf_hyp {pt} n={n}", "pmf", "hyp-sum",
                          lambda tr, n=n: PMF.pmf_hyp(params, n, FULL),
                          _against(ctx, ref, float_equal), depth))
        ops.append(Op(f"pmf_table recurrence-pg {pt} n={n}", "pmf", "recurrence-pg",
                      lambda tr, n=n: PMF.pmf_table(params, PmfEngine.RECURRENCE_PG, n, n).values[0],
                      _against(ctx, ref, rel_close), depth))
        ops.append(Op(f"pmf_root_based {pt} n={n}", "roots", "root-based",
                      _counted("pmf.root-based.terms",
                               lambda c, n=n: ROOTS.pmf_root_based(ctx["coeffs"], n, c)),
                      _against(ctx, ref, rel_close), depth))
        if full_engines and depth <= FULLSUM_DEPTH_MAX:
            m = n - params.r * params.k
            ops.append(Op(f"pmf_fullsum_ch {pt} n_cut={m}", "pmf", "fullsum-ch",
                          lambda tr, m=m: PMF.pmf_fullsum_ch(params, m),
                          _against(ctx, ref, rel_close), depth))
        if full_engines and depth <= PGF_DEPTH_MAX:
            ops.append(Op(f"pmf_pgf_expansion {pt} n={n}", "pmf", "pgf-expansion",
                          lambda tr, n=n: PMF.pmf_pgf_expansion(params, n),
                          _against(ctx, ref, rel_close), depth))
    return stages


def float_tail_group(params: RunParams, ns: tuple, full_engines: bool = True) -> list:
    return [op for stage in float_tail_stages(params, ns, full_engines) for op in stage]


def float_tail(seed: int, n_blocks: int) -> list:
    """Blocks of four points, k = 2..5, in rounds that each hold every k and depth.

    k and r follow a fixed schedule (the inner sums cost about (r+1)/k per
    term); the seed picks p and the depths. After the four points' root
    set-up, round t runs point i at depth (i + t) mod 4, so a run cut off
    anywhere has measured nearly the same mix of k and depth for every seed.
    """
    ops = []
    allowed = {k: [p for p in FLOAT_TAIL_P if _tail_representable(k, p)] for k in range(2, 6)}
    for b in range(n_blocks):
        points = []
        for k in range(2, 6):
            rng = random.Random(f"float-tail:{seed}:{b}:{k}")
            p = rng.choice(allowed[k])
            ns = tuple(d + rng.randrange(20) for d in DEPTHS)
            r = 1 + (k + b) % 4   # every (k, r) pair once in four blocks
            points.append(float_tail_stages(RunParams(k, r, p), ns))
        for point in points:
            ops.extend(point[0])
        for t in range(len(DEPTHS)):
            for i, point in enumerate(points):
                ops.extend(point[1 + (i + t) % len(DEPTHS)])
    return ops


# ---------------------------------------------------------------- moments-mc

ROUTES = tuple(MomentRoute)
ROUTE_SCHEMES = {
    MomentRoute.RECURRENCE: (CUT, FULL),
    MomentRoute.PARTITION: (CUT, FULL),
    MomentRoute.PGF: (FULL,),
    MomentRoute.ROOT: (FULL,),
    MomentRoute.SUMMATION: (CUT, FULL),
}
MOMENT_P = tuple(i / 20 for i in range(4, 17))
MOMENT_MEAN_MAX = 100
MOMENT_WIDE = (4, 3, 0.2)            # mean 2340: the routes' slowest point
# Central moments go to order 4, where the closed forms stop. The pgf route's
# central moments miss 1e-9 relative at some of these points, at any order
# from 3 (see known_bad), so the timed workload asks it for none.
CENTRAL_ORDER_MAX = {route: 4 for route in MomentRoute}
CENTRAL_ORDER_MAX[MomentRoute.PGF] = 0
EXACT_ORDER = 12
MC_FAMILIES = ("type1", "type2", "overlap=1", "gap=2")
MC_SHORT = (2, 2, 0.5, 2 * 10 ** 5)  # k, r, p, samples: many samples, short walks
# Few samples, long walks: ~5000 steps, set by the slowest of 1000 walks.
# Sixteen runs per walk keep that maximum, and so the op's cost, within ~10 %.
MC_LONG = (4, 16, 0.3, 10 ** 3)
MC_DP_N = 600                      # DP table length for the short-walk references


def _scales(kind: MomentKind, ref) -> tuple | None:
    """Central moments are judged on the scale ``sd^j``: order 1 is zero."""
    if kind is not MomentKind.CENTRAL:
        return None
    return tuple(max(abs(v), abs(ref[1]) ** (j / 2)) for j, v in enumerate(ref, start=1))


def _route_op(params, route, kind, scheme, order, ctx, ref):
    pt = _pt(params)

    def check(ms):
        if ms.order_max != order:
            return f"{ms.order_max} orders, expected {order}"
        if route is MomentRoute.PARTITION and ref not in ctx:
            ctx[ref] = ms.values
            return None
        return _against(ctx, ref, lambda got, want: (
            exact_equal(got, want[:order]) if params.exact
            else all_close(got, want[:order], scales=_scales(kind, want)[:order]
                           if kind is MomentKind.CENTRAL else None)))(ms.values)

    return Op(f"moments_via_route {route.value} {kind.value}@{scheme.value} {pt} "
              f"order={order}", "moments", f"route.{route.value}",
              lambda tr: MOM.moments_via_route(params, route, kind, scheme, order),
              check)


def moment_point_ops(params: RunParams, order: int, ctx: dict,
                     central_order: dict = CENTRAL_ORDER_MAX) -> list:
    ops = []
    routes = [MomentRoute.PARTITION] + [x for x in ROUTES if x is not MomentRoute.PARTITION]
    for kind in (MomentKind.FACTORIAL, MomentKind.RAW, MomentKind.CENTRAL):
        central = kind is MomentKind.CENTRAL
        for scheme in (FULL,) if central else (CUT, FULL):
            ref = f"{kind.value}@{scheme.value}"
            for route in routes:
                if central_order[route] if central else scheme in ROUTE_SCHEMES[route]:
                    ops.append(_route_op(params, route, kind, scheme,
                                         central_order[route] if central else order,
                                         ctx, ref))
    return ops


def closed_form_ops(params: RunParams, ctx: dict) -> list:
    pt = _pt(params)
    cmp = exact_equal if params.exact else all_close

    def vs_central(index):
        return _against(ctx, "central@full", lambda v, want: cmp((v,), (want[index],)))

    def vs_centrals(ms, want):
        return cmp(ms.values[1:], want[1:4])

    return [
        Op(f"mean {pt}", "moments", "closed_form", lambda tr: MOM.mean(params),
           _against(ctx, "raw@full", lambda v, want: cmp((v,), want[:1]))),
        Op(f"variance {pt}", "moments", "closed_form", lambda tr: MOM.variance(params),
           vs_central(1)),
        Op(f"central_moments {pt}", "moments", "closed_form",
           lambda tr: MOM.central_moments(params, 4),
           _against(ctx, "central@full", vs_centrals)),
    ]


def gap_ops(params: RunParams, g: int, order: int) -> list:
    """Gap moments against a sum over the gap pmf from the recurrence engine."""
    pt = _pt(params)
    variant = VariantSpec.with_gap(g)
    ops = []
    for kind in (MomentKind.FACTORIAL, MomentKind.RAW):
        def check(ms, kind=kind):
            # twice the summation route's first window: the tail left out is
            # far below 1e-9 of every moment up to order 5
            n_max = 2 * MOM.summation_window(params) + (params.r - 1) * g
            table = PMF.pmf_table(params, PmfEngine.RECURRENCE_PG, 1, n_max, variant=variant)
            return all_close(ms.values, MOM.moments_from_table(table, order, kind).values)
        ops.append(Op(f"gap_moments g={g} {kind.value} {pt} order={order}", "roots",
                      "gap", lambda tr, kind=kind: ROOTS.gap_moments(params, g, order, kind),
                      check))
    return ops


def overlap_ops(params: RunParams, ell: int, order: int) -> list:
    """Overlap factorial moments through the roots, against the pgf series."""
    pt = _pt(params)
    ctx: dict = {}
    variant = VariantSpec.with_overlap(ell)

    def check(ms):
        n_max = MOM.summation_window(params)
        table = ROOTS.series_pmf(params, n_max, variant)
        ref = MOM.moments_from_table(table, order, MomentKind.FACTORIAL)
        return all_close(ms.values, ref.values, 1e-8)

    return [
        Op(f"solve_roots {pt}", "roots", "solve", lambda tr: ROOTS.solve_roots(params),
           _store(ctx, "system", lambda s: s)),
        Op(f"recover_coefficients ell={ell} {pt}", "roots", "recover",
           lambda tr: ROOTS.recover_coefficients(ctx["system"], ell=ell),
           _store(ctx, "coeffs", lambda c: c)),
        Op(f"factorial_moments_root ell={ell} {pt} order={order}", "roots", "moments",
           lambda tr: ROOTS.factorial_moments_root(ctx["coeffs"], order), check),
    ]


_MC_REFS: dict = {}


def mc_reference(params: RunParams, family: str) -> tuple:
    """Mean, variance and fourth central moment of the waiting time."""
    key = (params, family)
    if key not in _MC_REFS:
        if family == "type1":
            cm = MOM.central_moments(params.to_exact(), 4)
            _MC_REFS[key] = (float(MOM.mean(params.to_exact())), float(cm.value(2)),
                             float(cm.value(4)))
        else:
            sem = CountingSemantics.from_variant(VariantSpec.parse(family))
            table, deficit = ORA.dp_waiting_time(params, sem, MC_DP_N)
            if deficit > 1e-13:
                raise ValueError(f"DP reference misses mass {deficit:.2e}")
            mu = sum(n * v for n, v in table.items())
            var = sum((n - mu) ** 2 * v for n, v in table.items())
            m4 = sum((n - mu) ** 4 * v for n, v in table.items())
            _MC_REFS[key] = (mu, var, m4)
    return _MC_REFS[key]


def mc_op(k: int, r: int, p: float, samples: int, family: str, mc_seed: int) -> Op:
    params = RunParams(k, r, p)
    sem = CountingSemantics.from_variant(VariantSpec.parse(family))

    def check(res):
        if sum(res.counts) != samples:
            return "histogram does not hold every sample"
        mu, var, m4 = mc_reference(params, family)
        return (within_se(res.mean, mu, math.sqrt(var / samples))
                or within_se(res.variance, var, math.sqrt((m4 - var ** 2) / samples)))

    def extra(tr, res):
        counts = res.counts
        tr.add("oracle.mc.samples", samples)
        tr.add("oracle.mc.steps", len(counts) - 1)
        tr.add("oracle.mc.stream_steps", sum(n * c for n, c in enumerate(counts)))

    return Op(f"monte_carlo {family} {_pt(params)} samples={samples} seed={mc_seed}",
              "oracle", "mc", lambda tr: ORA.monte_carlo(params, sem, samples, mc_seed),
              check, extra=extra)


def moment_group(params: RunParams, order: int, rng: random.Random) -> list:
    ctx: dict = {}
    ops = moment_point_ops(params, order, ctx) + closed_form_ops(params, ctx)
    ops += gap_ops(params, rng.randint(1, 3), order)
    if params.k > 1:
        ops += overlap_ops(params, rng.randint(1, params.k - 1), min(order, 3))
    return ops


def _mean_per_run(k: int, p: float) -> float:
    return (1 - p ** k) / ((1 - p) * p ** k)


def moments_mc(seed: int, n_groups: int) -> list:
    """A fixed wide point first, then groups stepping through (k, r, p, order).

    The routes' cost grows with the mean (the pgf and summation routes walk
    the tail), so p sits at the first, second or third quarter of the values
    of ``MOMENT_P`` that keep the mean per run at most ``MOMENT_MEAN_MAX``;
    twelve groups hold every k with each of the three. The exact points'
    denominators step through 2..10. The seed picks the numerators, the gap,
    the overlap and the Monte Carlo seeds. The wide point, where the pgf and
    summation routes take ~0.5 s, runs once at the start of every pass.
    """
    ops = moment_group(RunParams(*MOMENT_WIDE), 5, random.Random(f"moments-mc:{seed}"))
    for g in range(n_groups):
        rng = random.Random(f"moments-mc:{seed}:{g}")
        k, r = 1 + g % 4, 1 + (g // 4) % 3
        allowed = [p for p in MOMENT_P if _mean_per_run(k, p) <= MOMENT_MEAN_MAX]
        p = allowed[len(allowed) * (1 + g % 3) // 4]
        ops += moment_group(RunParams(k, r, p), 3 + g % 3, rng)
        d = 2 + 5 * g % 9
        a = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        exact = RunParams(1 + (g + 2) % 4, 1 + (g // 4 + 1) % 3, Fraction(a, d))
        ectx: dict = {}
        for kind, scheme in ((MomentKind.FACTORIAL, CUT), (MomentKind.RAW, CUT),
                             (MomentKind.RAW, FULL), (MomentKind.CENTRAL, FULL)):
            ref = f"{kind.value}@{scheme.value}"
            for route in (MomentRoute.PARTITION, MomentRoute.RECURRENCE):
                ops.append(_route_op(exact, route, kind, scheme, EXACT_ORDER, ectx, ref))
        ops += closed_form_ops(exact, ectx)
        if g % 2 == 0:   # short and long walks take turns; families rotate
            ops.append(mc_op(*MC_SHORT, MC_FAMILIES[g // 2 % 4], rng.getrandbits(32)))
        else:
            ops.append(mc_op(*MC_LONG, "type1", rng.getrandbits(32)))
    return ops


# ---------------------------------------------------------------- cli

README_COMMANDS = (
    ("pmf-type1", 0, "pmf --k 2 --r 1 --p 1/2 --n-min 2 --n-max 5 --engine recurrence-pg"),
    ("pmf-type2", 0, "pmf --k 1 --r 1 --p 0.5 --n-min 1 --n-max 1 --engine muselli-alt "
                     "--variant type2"),
    ("pmf-counts", 0, "pmf --k 2 --r 1 --p 1/2 --n-min 3 --n-max 8 "
                      "--engine muselli-counts-alt --variant type2"),
    ("moments-partition", 0, "moments --k 2 --r 1 --p 1/2 --kind central --order-max 4 "
                             "--route partition"),
    ("moments-root-overlap", 0, "moments --k 2 --r 2 --p 0.5 --kind factorial --route root "
                                "--variant overlap=1"),
    ("compare-pass", 0, "compare --k 3 --r 2 --p 0.4 --n-min 6 --n-max 100 --engines "
                        "recurrence-pg,recurrence-ch,fullsum-ch,nested-sum,hyp-sum,"
                        "pgf-expansion,root-based --tolerance 1e-11"),
    ("compare-mismatch", 1, "compare --k 2 --r 1 --p 0.5 --n-min 2 --n-max 10 --engines "
                            "recurrence-pg@full,recurrence-ch@cut"),
    ("simulate", 0, "simulate --k 2 --r 1 --p 0.5 --samples 1000000 --seed 7"),
)


def run_cli(args: list, budget: float = CLI_BUDGET_S) -> tuple:
    """One CLI subprocess; raises ``subprocess.TimeoutExpired`` past the budget."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "runsdist.cli", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=budget)
    return proc.returncode, proc.stdout, proc.stderr


def cli_op(key: str, args: list, code: int, check) -> Op:
    def call(tr):
        sid = tr.open(f"cli.{args[0]}") if tr else None
        try:
            got = run_cli(args)
        finally:
            if tr:
                tr.close(sid)
        if got[0] != code and "Traceback" in got[2]:
            raise Crash(got[2].strip().splitlines()[-1])
        return got

    def verify(got):
        if got[0] != code:
            return f"exit code {got[0]} != {code}: {got[2].strip()[-200:]}"
        return check(got[1])

    return Op(f"cli {key}: {' '.join(args)}", "cli", f"cli.{args[0]}", call, verify)


def _golden(name: str):
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
        want = fh.read()

    def check(out):
        return None if out == want else "stdout differs from the golden output"
    return check


def _compare_line(expect_pass: bool):
    def check(out):
        last = out.rstrip("\n").split("\n")[-1]
        ok = last.startswith("# PASS ") if expect_pass else last.startswith("# FAIL ")
        return None if ok else f"verdict line {last!r}"
    return check


def _csv_reason(rows) -> str | None:
    return rows if isinstance(rows, str) else None


def readme_op(name: str, code: int, cmd: str) -> Op:
    golden = _golden(name)
    checks = [golden]
    if name.startswith("compare"):
        checks.append(_compare_line(code == 0))
    if name.startswith(("pmf", "moments")):
        sub = name.split("-")[0]
        checks.append(lambda out, sub=sub: _csv_reason(csv_rows(out, sub)))
    if name == "simulate":
        checks.append(_simulate_check(10 ** 6))
    return cli_op(name, cmd.split(), code, lambda out: next(
        (bad for bad in (c(out) for c in checks) if bad), None))


def _simulate_check(samples: int):
    """The empirical mean printed is within 5 SE of the analytic mean printed."""
    def check(out):
        head = out.split("\n")[:3]
        fields = dict(item.split("=", 1) for line in head[1:] for item in line[2:].split())
        mean, ana_mean = float(fields["empirical_mean"]), float(fields["analytic_mean"])
        ana_var = float(fields["analytic_variance"])
        rows = [line.split(",") for line in out.split("\n")[4:] if line]
        if sum(int(row[1]) for row in rows) != samples:
            return "histogram does not hold every sample"
        if any(row[2] != repr(int(row[1]) / samples) for row in rows):
            return "a frequency is not count / samples"
        if repr(sum(int(n) * int(c) for n, c, _ in rows) / samples) != fields["empirical_mean"]:
            return "empirical mean is not the histogram mean"
        return within_se(mean, ana_mean, math.sqrt(ana_var / samples))
    return check


# The seeded simulate op runs at one point; the seed picks its random seed.
# Its cost grows with the mean waiting time, and these ops rank just above
# the other CLI commands, at the tail, so a seeded point would move
# op_tail_ms with the seed.
SIM_SEEDED_POINT = (2, 2, 0.6)


def seeded_cli_ops(rng: random.Random) -> list:
    """CLI commands at seeded parameter points, checked against the library."""
    k, r = rng.randint(1, 4), rng.randint(1, 3)
    p = _rational(rng, 12)
    params = RunParams(k, r, p)
    engine = rng.choice(EXACT_ENGINES)
    lo = r * k
    hi = lo + 20

    def pmf_check(out):
        rows = csv_rows(out, "pmf")
        if isinstance(rows, str):
            return rows
        ref = ORA.dp_waiting_time_pmf(params, SEM_T1, hi).values[lo - 1:hi]
        return exact_equal([Fraction(row[-1]) for row in rows], ref) or next(
            (f"value text {row[-1]!r} is not {str(v)!r}" for row, v in zip(rows, ref)
             if row[-1] != str(v)), None)

    def moments_check(out):
        rows = csv_rows(out, "moments")
        if isinstance(rows, str):
            return rows
        ref = MOM.moments_via_route(params, MomentRoute.RECURRENCE, MomentKind.RAW, FULL, 4)
        return exact_equal([Fraction(row[-1]) for row in rows], ref.values)

    samples = 10 ** 5
    sim_seed = rng.getrandbits(31)
    sim_params = RunParams(*SIM_SEEDED_POINT)

    def simulate_check(out):
        head = out.split("\n")[2]
        want = (f"# analytic_mean={MOM.mean(sim_params)!r} "
                f"analytic_variance={MOM.variance(sim_params)!r}")
        return (None if head == want else f"analytic line {head!r}") or \
            _simulate_check(samples)(out)

    return [
        cli_op("pmf-seeded", ["pmf", "--k", str(k), "--r", str(r), "--p", str(p),
                              "--n-min", str(lo), "--n-max", str(hi),
                              "--engine", engine.value], 0, pmf_check),
        cli_op("moments-seeded", ["moments", "--k", str(k), "--r", str(r), "--p", str(p),
                                  "--kind", "raw", "--order-max", "4",
                                  "--route", "partition"], 0, moments_check),
        cli_op("simulate-seeded", ["simulate", "--k", str(sim_params.k),
                                   "--r", str(sim_params.r), "--p", str(sim_params.p),
                                   "--samples", str(samples),
                                   "--seed", str(sim_seed)], 0, simulate_check),
    ]


def cli(seed: int, n_groups: int) -> list:
    ops = []
    for g in range(n_groups):
        rng = random.Random(f"cli:{seed}:{g}")
        group = [readme_op(*cmd) for cmd in README_COMMANDS] + seeded_cli_ops(rng)
        rng.shuffle(group)
        ops.extend(group)
    return ops


# ---------------------------------------------------------------- known-bad

ROOT_EDGE_FAILING = ((3, 8, 0.5), (3, 10, 0.5), (3, 12, 0.5), (3, 20, 0.5), (80, 1, 0.5))
PGF_CENTRAL_FAILING = (((2, 3, 0.6), 3), ((4, 3, 0.7), 5))
CLI_FAILING = (
    ("moments-pgf-k6", "moments --k 6 --r 1 --p 0.1 --kind factorial --route pgf"),
    ("moments-summation-k6", "moments --k 6 --r 1 --p 0.1 --kind factorial "
                             "--route summation"),
    ("simulate-type2-k4", "simulate --k 4 --r 1 --p 0.3 --samples 1000 --variant type2"),
)


def known_bad() -> list:
    """Ops that fail on the library as it stands; kept out of the timed workloads.

    The root edge points are checked like the float-tail ones, the CLI cases
    must exit 0 with CSV output within the per-op budget.
    """
    ops = []
    for k, r, p in ROOT_EDGE_FAILING:
        ops.extend(float_tail_group(RunParams(k, r, p), DEPTHS, full_engines=False))
    for point, order in PGF_CENTRAL_FAILING:
        ops.extend(op for op in moment_point_ops(RunParams(*point), order, {},
                                                 dict.fromkeys(MomentRoute, order))
                   if op.key.startswith(("moments_via_route partition central",
                                         "moments_via_route pgf central")))
    for name, cmd in CLI_FAILING:
        ops.append(cli_op(name, cmd.split(), 0, lambda out: None))
    return ops


# ---------------------------------------------------------------- registry

# A workload's pass is its parts' op lists, one after the other: groups of
# exact-grid and float-tail in ``pmf``, of moments-mc and cli in
# ``moments-cli``. On the machine in README.md the parts take about 7 s,
# 11 s, 8 s and 12 s, so a pass takes about 18 s and 20 s. The host's speed
# shifts in stretches of 30 to 100 s, so two workloads with runs twice as
# long average over those stretches where four shorter ones each sat in
# one. Each op's latency is its mean over the run, so a longer pass costs
# repeats, not coverage.
WORKLOADS = {
    "pmf": ((exact_grid, 10), (float_tail, 1)),
    "moments-cli": ((moments_mc, 12), (cli, 3)),
}


def generate(name: str, seed: int) -> list:
    """The op list of one workload: one pass, which a run repeats."""
    return [op for make, n_groups in WORKLOADS[name] for op in make(seed, n_groups)]
