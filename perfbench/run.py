"""runsdist benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload pmf --seed 1 --seconds 55 --trace 0

Runs the workload's ops in order, one at a time, for ``--seconds`` seconds
and checks every result. The op list is one pass of a few seconds; the run
goes through it again and again, so it measures the same ops several times,
and the end-to-end metrics are taken over each op's mean latency. The last
line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run first runs the ops untraced for half the time, then runs the same
ops again with spans around every public call, and reports the difference as
the tracing overhead. Details and spans go to ``perfbench/out/``.

    python3 perfbench/run.py --known-bad

runs the ops that fail on the library as it stands, once each, and prints
how each one fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 8   # half before the ops, half after
WORKLOAD_NAMES = ("pmf", "moments-cli")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PMF_LABELS = ("recurrence-pg", "recurrence-ch", "fullsum-ch", "nested-sum", "hyp-sum",
              "pgf-expansion", "root-based", "muselli-original", "muselli-alt",
              "muselli-counts")
ROUTE_LABELS = ("recurrence", "partition", "pgf", "root", "summation")
ROOT_STAGES = {
    "solve": ("roots.solve_roots",),
    "recover": ("roots.recover_coefficients",),
    "eval": ("roots.pmf_root_based",),
    "series": ("roots.series_pmf", "roots.pgf_series"),
    "moments": ("roots.factorial_moments_root",),
    "gap": ("roots.gap_moments",),
}
CLI_SUBS = ("pmf", "moments", "compare", "simulate")
LAYERS = ("pmf", "roots", "moments", "oracle", "cli", "bench")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order.

    Busy times are reported as a share of the traced op time (%), so that a
    layer a workload never enters reads 0 rather than a constant time.
    """
    names = [(f"{layer}.self_pct", "%") for layer in LAYERS]
    for e in PMF_LABELS:
        names += [(f"pmf.{e}.busy_pct", "%"), (f"pmf.{e}.calls", "count")]
    names += [("pmf.nested-sum.terms", "count"), ("pmf.root-based.terms", "count"),
              ("pmf.exact_bits_max", "bit")]
    names += [(f"roots.{s}.busy_pct", "%") for s in ROOT_STAGES]
    names += [("roots.recover.attempts", "count"), ("roots.recover.failed", "count"),
              ("roots.recovery_residual_max", "abs")]
    for route in ROUTE_LABELS:
        names += [(f"moments.{route}.busy_pct", "%"), (f"moments.{route}.calls", "count"),
                  (f"moments.{route}.failed", "count")]
    names += [("moments.closed_form.busy_pct", "%"),
              ("moments.summation.window_max", "n")]
    names += [("oracle.dp.busy_pct", "%"), ("oracle.dp.calls", "count"),
              ("oracle.mc.busy_pct", "%"), ("oracle.mc.steps", "count"),
              ("oracle.mc.stream_steps", "count"), ("oracle.mc.samples_per_s", "1/s"),
              ("oracle.mc.steps_per_s", "1/s")]
    names += [(f"cli.{sub}.busy_pct", "%") for sub in CLI_SUBS]
    names += [("cli.timeouts", "count"), ("cli.crashes", "count")]
    names += [("setup.python_start_ms", "ms"), ("setup.import_ms", "ms"),
              ("setup.generate_ms", "ms")]
    names += [("trace.overhead_pct", "%"), ("trace.spans", "count")]
    return names


# ---------------------------------------------------------------- set-up

def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, generate, report."""
    from workloads import generate
    t1 = time.perf_counter()
    generate(workload, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - _T0, "generate_s": t2 - t1, "script_s": t2 - _T0}))


def measure_setup(workload: str, seed: int, repeats: int) -> dict:
    """Fresh interpreter to first op, ``repeats`` times."""
    walls, probes = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"walls": walls, "probes": probes}


def setup_summary(*parts: dict) -> dict:
    """Medians over set-up measurements taken before and after the ops."""
    walls = [w for part in parts for w in part["walls"]]
    probes = [p for part in parts for p in part["probes"]]
    return {
        "setup_s": statistics.median(walls),
        "python_start_s": statistics.median(w - p["script_s"] for w, p in zip(walls, probes)),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "generate_s": statistics.median(p["generate_s"] for p in probes),
        "walls": walls,
    }


# ---------------------------------------------------------------- run

def execute(ops: list, seconds: float | None = None, count: int | None = None,
            tracer=None) -> list:
    """Run ops in order, wrapping around, until the time or the count is used up.

    A timed run always finishes its first pass, so every op is measured.
    Returns one ``(op, elapsed_s, cause, message)`` per op; ``cause`` is None
    for a verified op, else raised, wrong, crash or budget.
    """
    from workloads import Crash

    rows = []
    start = time.perf_counter()
    i = 0
    while (count is None or i < count) and (
            seconds is None or i < len(ops) or time.perf_counter() - start < seconds):
        op = ops[i % len(ops)]
        cause = msg = None
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
            sid = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            result = op.call(tracer)
        except subprocess.TimeoutExpired as err:
            cause, msg = "budget", f"no answer within {err.timeout} s"
        except Exception as err:  # an op that raises is counted, the run goes on
            cause = "crash" if isinstance(err, Crash) else "raised"
            msg = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid, raised=cause is not None)
            tracer.enabled = False
        if cause is None:
            try:
                msg = op.check(result)
            except Exception as err:  # a check that cannot read the result fails it
                msg = f"check raised {type(err).__name__}: {err}"
            if msg:
                cause = "wrong"
            elif tracer is not None and op.extra is not None:
                op.extra(tracer, result)
        rows.append((op, elapsed, cause, msg))
        i += 1
    return rows


def per_op(rows: list, n_ops: int) -> list:
    """``(mean_s, failed)`` of each op of the pass over all its repeats.

    Every op of the pass counts once, however many times the run got to it,
    so the mix behind the metrics is the pass whether the run ended early
    or late in one; averaging each op over the run spreads its repeats over
    the host's fast and slow stretches alike.
    """
    times, failed = [[] for _ in range(n_ops)], [False] * n_ops
    for i, (_, elapsed, cause, _) in enumerate(rows):
        times[i % n_ops].append(elapsed)
        failed[i % n_ops] |= cause is not None
    return [(statistics.fmean(t), bad) for t, bad in zip(times, failed)]


def latency_stats(ops: list) -> dict:
    """Median and tail of the per-op latencies; a failed op is slower than every success.

    The median is the mean of the latencies ranked in the middle tenth. The
    ops of a workload are of a few kinds, with gaps between their costs; a
    single middle value jumps across such a gap when two ops near it swap
    places, while the mean of the tenth around it moves by a share.
    """
    lat = sorted(math.inf if bad else mean for mean, bad in ops)
    n = len(lat)
    tail_index = max(n - 11, 0)   # ten ops lie beyond it
    return {
        "p50_s": statistics.fmean(lat[int(0.45 * n):math.ceil(0.55 * n)]),
        "tail_s": lat[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "ops_beyond_tail": n - 1 - tail_index,
        "ops": n,
    }


def end_to_end(rows: list, n_ops: int, setup: dict) -> tuple:
    ops = per_op(rows, n_ops)
    ok = sum(1 for _, bad in ops if not bad)
    busy = sum(mean for mean, _ in ops)
    stats = latency_stats(ops)
    values = {
        "ops_per_s": ok / busy,
        "op_p50_ms": 1e3 * stats["p50_s"],
        "op_tail_ms": 1e3 * stats["tail_s"],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
    }
    return values, stats


def per_layer(tracer, rows: list, untraced_busy: float, setup: dict) -> tuple:
    """Per-layer metrics from the traced pass; also the detail in seconds."""
    st = tracer.self_times()
    busy = sum(row[1] for row in rows)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / busy

    def self_of(*names) -> float:
        return sum(st[n][2] for n in names if n in st)

    layer_self = defaultdict(float)
    for name, (_, _, self_s, _) in st.items():
        layer_self[name.split(".", 1)[0]] += self_s
    by_label = defaultdict(list)
    for op, elapsed, cause, _ in rows:
        by_label[op.label].append((elapsed, cause, op.depth))

    m, detail = {}, {"busy_s": {}, "index_ms": {}, "self_s": {n: v[2] for n, v in st.items()}}
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = pct(layer_self[layer])
    for e in PMF_LABELS:
        got = by_label.get(e, [])
        m[f"pmf.{e}.busy_pct"] = pct(sum(x[0] for x in got))
        m[f"pmf.{e}.calls"] = len(got)
        detail["busy_s"][f"pmf.{e}"] = sum(x[0] for x in got)
        for depth in sorted({x[2] for x in got if x[2]}):
            detail["index_ms"][f"pmf.{e}.index_ms.n{depth}"] = 1e3 * statistics.median(
                x[0] for x in got if x[2] == depth)
    m["pmf.nested-sum.terms"] = tracer.counts["pmf.nested-sum.terms"]
    m["pmf.root-based.terms"] = tracer.counts["pmf.root-based.terms"]
    m["pmf.exact_bits_max"] = tracer.maxima.get("pmf.exact_bits_max", 0)
    for stage, names in ROOT_STAGES.items():
        m[f"roots.{stage}.busy_pct"] = pct(self_of(*names))
        detail["busy_s"][f"roots.{stage}"] = self_of(*names)
    recover = st.get("roots.recover_coefficients", (0, 0.0, 0.0, 0))
    m["roots.recover.attempts"] = recover[0]
    m["roots.recover.failed"] = recover[3]
    m["roots.recovery_residual_max"] = tracer.maxima.get("roots.recovery_residual_max", 0.0)
    for route in ROUTE_LABELS:
        got = by_label.get(f"route.{route}", [])
        m[f"moments.{route}.busy_pct"] = pct(sum(x[0] for x in got))
        m[f"moments.{route}.calls"] = len(got)
        m[f"moments.{route}.failed"] = sum(1 for x in got if x[1])
        detail["busy_s"][f"moments.{route}"] = sum(x[0] for x in got)
    closed = sum(x[0] for x in by_label.get("closed_form", []))
    m["moments.closed_form.busy_pct"] = pct(closed)
    m["moments.summation.window_max"] = tracer.maxima.get("moments.summation.window_max", 0)
    dp_s = self_of("oracle.dp_waiting_time_pmf", "oracle.dp_waiting_time")
    mc_s = self_of("oracle.monte_carlo")
    m["oracle.dp.busy_pct"] = pct(dp_s)
    m["oracle.dp.calls"] = st.get("oracle.dp_waiting_time", (0,))[0]
    m["oracle.mc.busy_pct"] = pct(mc_s)
    m["oracle.mc.steps"] = tracer.counts["oracle.mc.steps"]
    m["oracle.mc.stream_steps"] = tracer.counts["oracle.mc.stream_steps"]
    m["oracle.mc.samples_per_s"] = tracer.counts["oracle.mc.samples"] / mc_s if mc_s else 0.0
    m["oracle.mc.steps_per_s"] = tracer.counts["oracle.mc.steps"] / mc_s if mc_s else 0.0
    detail["busy_s"].update({"oracle.dp": dp_s, "oracle.mc": mc_s,
                             "moments.closed_form": closed})
    for sub in CLI_SUBS:
        got = by_label.get(f"cli.{sub}", [])
        m[f"cli.{sub}.busy_pct"] = pct(sum(x[0] for x in got))
        if got:
            detail["busy_s"][f"cli.{sub}"] = sum(x[0] for x in got)
            detail[f"cli.{sub}.wall_ms"] = 1e3 * statistics.median(x[0] for x in got)
    cli_rows = [row for row in rows if row[0].layer == "cli"]
    m["cli.timeouts"] = sum(1 for row in cli_rows if row[2] == "budget")
    m["cli.crashes"] = sum(1 for row in cli_rows if row[2] == "crash")
    m["setup.python_start_ms"] = 1e3 * setup["python_start_s"]
    m["setup.import_ms"] = 1e3 * setup["import_s"]
    m["setup.generate_ms"] = 1e3 * setup["generate_s"]
    m["trace.overhead_pct"] = 100.0 * (busy - untraced_busy) / untraced_busy
    m["trace.spans"] = len(tracer.spans)
    detail["trace.overhead_s"] = busy - untraced_busy
    detail["trace.traced_busy_s"] = busy
    detail["trace.untraced_busy_s"] = untraced_busy
    # one client, one thread: nothing queues, so every layer's wait is zero
    detail["wait_s"] = {layer: 0.0 for layer in LAYERS}
    return m, detail


def failure_report(rows: list) -> dict:
    causes = defaultdict(list)
    for op, _, cause, msg in rows:
        if cause:
            causes[cause].append(f"{op.key}: {msg}")
    return dict(causes)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))


def write_out(name: str, payload: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer, instrument
    from workloads import generate

    before = measure_setup(workload, seed, SETUP_REPEATS // 2)
    ops = generate(workload, seed)
    if not trace:
        rows = execute(ops, seconds=seconds)
        setup = setup_summary(before, measure_setup(workload, seed, SETUP_REPEATS // 2))
        metrics, stats = end_to_end(rows, len(ops), setup)
        units = dict(END_TO_END)
        by_label = defaultdict(lambda: [0, 0.0])
        for op, elapsed, _, _ in rows:
            by_label[op.label][0] += 1
            by_label[op.label][1] += elapsed
        extra = {"latency": stats, "by_label": by_label, "passes": len(rows) / len(ops),
                 "per_op_ms": [1e3 * mean for mean, _ in per_op(rows, len(ops))]}
    else:
        plain = execute(ops, seconds=seconds / 2)
        tracer = Tracer()
        restore = instrument(tracer)
        try:
            rows = execute(ops, count=len(plain), tracer=tracer)
        finally:
            restore()
        setup = setup_summary(before, measure_setup(workload, seed, SETUP_REPEATS // 2))
        metrics, extra = per_layer(tracer, rows, sum(row[1] for row in plain), setup)
        units = dict(per_layer_names())
        write_out(f"spans-{workload}-s{seed}.json",
                  {"fields": ["id", "parent", "op", "name", "start", "end", "raised"],
                   "ops": [row[0].key for row in rows], "spans": tracer.spans})
        rows = plain + rows
    failures = failure_report(rows)
    failed = sum(len(v) for v in failures.values())
    print(f"workload {workload} seed {seed}: {len(rows)} ops, {failed} failed")
    for cause, items in failures.items():
        print(f"  {cause}: {len(items)}, e.g. {items[0]}")
    write_out(f"{workload}-s{seed}-t{int(trace)}.json",
              {"metrics": metrics, "detail": extra, "setup": setup, "failures": failures})
    emit(failed == 0, len(rows), failed, metrics, units)
    return 0


def run_known_bad() -> int:
    from workloads import known_bad

    ops = known_bad()
    rows = execute(ops, count=len(ops))
    for op, elapsed, cause, msg in rows:
        status = "ok" if cause is None else f"FAILED ({cause})"
        print(f"{status:<18} {elapsed:7.2f} s  {op.key}" + (f"\n{'':28}{msg}" if msg else ""))
    print(json.dumps({"attempted": len(rows), "failed": sum(1 for r in rows if r[2]),
                      "by_cause": {c: len(v) for c, v in failure_report(rows).items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-bad", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "runsdist", "__init__.py")):
        print(f"runsdist sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.known_bad:
        return run_known_bad()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
