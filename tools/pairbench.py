"""Run the benchmark in a parent tree and in this one, in pairs, and write BENCH_<N>.json.

Usage: python tools/pairbench.py PARENT_TREE --pr N [--pairs 10] [--seconds 55]

Each pair runs ``python3 TREE/perfbench/run.py --workload W --seed 0
--seconds T --trace 0`` once in each tree: the parent first in odd pairs,
this tree first in even ones. ``run.py`` puts its own tree's ``src/`` on
``sys.path``, so each run measures its own tree's code; the last line of its
stdout is the JSON summary that is read. The workloads and the end-to-end
metrics, with their direction and bound, come from this tree's
``BENCHMARK.json``; the workloads run one after the other.

``BENCH_<N>.json``, written at the root of this tree, holds per workload and
metric both medians and interquartile ranges (quartiles interpolated between
the runs), the ratio of the change's median to the parent's, the parent's IQR
as a share of its median, the change's wins over the pairs (ties count for
neither), ``resolved`` (the parent's IQR share is within the metric's bound),
``within_bound`` (the change's median is not worse than the parent's by more
than the bound) and ``gain`` (the change won at least nine pairs in ten and
its median is better by more than the parent's IQR). It also holds every
run's metrics and verdict, both trees' commits and whether either had
uncommitted changes (``null`` outside a git checkout), ``nproc`` and the
Python version. Two trees whose ``perfbench/`` differ would run different
benchmarks, so the tool refuses them.

Both trees run cold, which the record states as ``"bytecode": "cold"``:
before the first pair the tool removes every ``__pycache__`` under each
tree's ``src/`` and ``perfbench/``, and it runs every subprocess with
``PYTHONDONTWRITEBYTECODE=1``, so each compiles the package from source, as
a fresh checkout does, while the standard library keeps its installed
bytecode. Without bytecode a CLI subprocess pays for compiling the package,
so ``startup_ms`` times ``STARTUP_RUNS`` alternating rounds of each of
``STARTUP`` in both trees: a bare interpreter, the CLI's import and one exact
``pmf`` command. Per command it records each tree's median and IQR and the
change's wins over the rounds (ties count for neither). On 2 vCPUs, 15 rounds
were too few: a bare interpreter's median read 46.3 ms in one tree and
55.4 ms in the other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEED = 0  # every run's --seed, so both trees run the same op list
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # every subprocess runs cold
STARTUP_RUNS = 41
STARTUP = {  # the start-up subprocesses timed in each tree, run with its src/ on the path
    "python": ["-c", "pass"],
    "import": ["-c", "import runsdist.cli"],
    "pmf": ["-m", "runsdist.cli", "pmf", "--k", "2", "--r", "1", "--p", "1/2",
            "--n-min", "2", "--n-max", "5", "--engine", "recurrence-pg"],
}


def bench_digest(tree: Path) -> dict:
    """sha256 of every file under ``tree/perfbench``, leaving out run outputs and caches."""
    root = tree / "perfbench"
    return {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*"))
            if f.is_file() and not {"out", "__pycache__"} & set(f.relative_to(root).parts)}


def git_state(tree: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    # a tree exported from git carries no .git, and git would answer for the repo around it
    if commit is None or git("rev-parse", "--show-toplevel") != str(tree.resolve()):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(git("status", "--porcelain"))}


def clear_bytecode(tree: Path) -> None:
    for part in ("src", "perfbench"):
        for cache in sorted((tree / part).rglob("__pycache__")):
            shutil.rmtree(cache)


def startup_ms(trees: dict) -> dict:
    """Per ``STARTUP`` entry, both trees' wall-time median and IQR in ms and the change's wins."""
    times = {side: {name: [] for name in STARTUP} for side in trees}
    for i in range(STARTUP_RUNS):
        for side in sorted(trees, reverse=bool(i % 2)):
            env = dict(ENV, PYTHONPATH=str(trees[side] / "src"))
            for name, args in STARTUP.items():
                start = time.perf_counter()
                # no timeout: with one, the wait polls on sleeps of up to 50 ms
                subprocess.run([sys.executable, *args], cwd=trees[side], env=env, check=True,
                               stdout=subprocess.DEVNULL)
                times[side][name].append((time.perf_counter() - start) * 1e3)
    out = {}
    for name in STARTUP:
        parent, change = times["parent"][name], times["change"][name]
        out[name] = {"parent_median": statistics.median(parent), "parent_iqr": iqr(parent),
                     "change_median": statistics.median(change), "change_iqr": iqr(change),
                     "wins": sum(c < p for p, c in zip(parent, change)), "rounds": STARTUP_RUNS}
    return out


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=ENV, capture_output=True, text=True,
                          timeout=seconds + 600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}


def iqr(values: list) -> float | None:
    """The distance between the quartiles; ``None`` for one run, which has no spread."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Paired verdicts on one metric; ``parent[i]`` and ``change[i]`` are pair ``i``.

    With one pair the parent's spread is unknown, so nothing is resolved and
    no gain is shown.
    """
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    share = None if spread is None else spread / abs(pm) if pm else 0.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    return {"parent_median": pm, "change_median": cm, "ratio": cm / pm if pm else None,
            "parent_iqr": spread, "change_iqr": iqr(change), "parent_iqr_share": share,
            "wins": wins, "pairs": len(parent),
            "resolved": share is not None and share <= bound,
            "within_bound": sign * (cm - pm) >= -bound * abs(pm),
            "gain": spread is not None and wins >= 0.9 * len(parent)
            and sign * (cm - pm) > spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json written")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent = args.parent.resolve()
    if bench_digest(parent) != bench_digest(HERE):
        parser.error(f"{parent}/perfbench differs from {HERE}/perfbench")
    spec = json.loads((HERE / "BENCHMARK.json").read_text())

    trees = {"parent": parent, "change": HERE}
    for tree in trees.values():
        clear_bytecode(tree)
    record = {
        "pr": args.pr, "pairs": args.pairs, "seconds": args.seconds, "seed": SEED,
        "trees": {side: git_state(tree) for side, tree in trees.items()},
        "nproc": os.cpu_count(), "python": platform.python_version(), "bytecode": "cold",
        "startup_ms": startup_ms(trees), "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, args.seconds)
                runs[side].append(run)
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{m['name']}={run['metrics'][m['name']]:.4g}"
                                 for m in spec["end_to_end"]), file=sys.stderr)
        record["workloads"][workload] = {
            "metrics": {m["name"]: compare([r["metrics"][m["name"]] for r in runs["parent"]],
                                           [r["metrics"][m["name"]] for r in runs["change"]],
                                           m["better"], m["bound"])
                        for m in spec["end_to_end"]},
            "runs": runs,
        }
    out = HERE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
