"""Self-check of the benchmark: its verifiers catch wrong results, its op
lists follow the seed, and ``BENCHMARK.json`` names the metrics it prints.

    python3 perfbench/selfcheck.py

For the first group of each part of each workload, every op is run once; then each
result is perturbed (a Fraction's last numerator digit changed, a float
moved by 1e-6 relative, one digit of CLI output changed, a Monte Carlo mean
moved by ten standard errors) and must fail its own check, or, for an op
whose result is a reference for later ops, make a later op in the group
fail. Exits 1 on any miss.
"""

import dataclasses
import json
import math
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from fractions import Fraction  # noqa: E402

from runsdist.core import MomentSet, PmfTable  # noqa: E402
from runsdist.oracle import MonteCarloResult  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402


def bump_fraction(v: Fraction) -> Fraction:
    text = str(abs(v.numerator))
    digit = str((int(text[-1]) + 1) % 10)
    num = int(text[:-1] + digit) * (1 if v.numerator >= 0 else -1)
    return Fraction(num, v.denominator)


def bump_last_nonzero(values) -> list:
    values = list(values)
    i = max(i for i, v in enumerate(values) if v != 0)
    values[i] = perturb(values[i])
    return values


def bump_text(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def perturb(result):
    """A wrong copy of an op result, or None when it holds no number to change."""
    if isinstance(result, Fraction):
        return bump_fraction(result)
    if isinstance(result, float):
        return result * (1 + 1e-6)
    if isinstance(result, PmfTable):
        return types.SimpleNamespace(values=tuple(bump_last_nonzero(result.values)))
    if isinstance(result, MomentSet):
        return dataclasses.replace(result, values=tuple(bump_last_nonzero(result.values)))
    if isinstance(result, list) and result and isinstance(result[0], Fraction):
        return bump_last_nonzero(result)
    if isinstance(result, MonteCarloResult):
        se = math.sqrt(result.variance / result.samples)
        return dataclasses.replace(result, mean=result.mean + 10 * se)
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], str):
        return (result[0], bump_text(result[1]), result[2])
    return None


def fails(op, result) -> bool:
    """As the runner judges it: a check that raises fails the op."""
    try:
        return bool(op.check(result))
    except Exception:  # noqa: BLE001 - same rule as run.execute
        return True


def check_verifiers(workload: str, seed: int) -> list:
    ops = [op for make, _ in W.WORKLOADS[workload] for op in make(seed, 1)]
    problems, skipped, results = [], 0, []
    for op in ops:  # in order: a check stores the references later ops need
        results.append(op.call(None))
        bad = op.check(results[-1])
        if bad:
            problems.append(f"{workload}: real result fails: {op.key}: {bad}")
    for i, (op, res) in enumerate(zip(ops, results)):
        bad = perturb(res)
        if bad is None:
            skipped += 1
            continue
        caught = fails(op, bad)
        if not caught:  # a reference: a later op must now disagree with it
            caught = any(fails(later, r) for later, r in zip(ops[i + 1:], results[i + 1:]))
        op.check(res)   # put the true reference back
        if not caught:
            problems.append(f"{workload}: perturbed result passes: {op.key}")
    print(f"{workload}: {len(ops)} ops, {len(ops) - skipped} perturbed, "
          f"{skipped} without a number to perturb")
    return problems


def check_seeds() -> list:
    problems = []
    for workload in run.WORKLOAD_NAMES:
        a = [op.key for op in W.generate(workload, 11)]
        b = [op.key for op in W.generate(workload, 11)]
        c = [op.key for op in W.generate(workload, 12)]
        if a != b:
            problems.append(f"{workload}: one seed gave two op lists")
        if a == c:
            problems.append(f"{workload}: two seeds gave one op list")
    fixed = [f"cli {name}: {cmd}" for name, _, cmd in W.README_COMMANDS]
    for seed in (11, 12):
        keys = {op.key for op in W.generate("moments-cli", seed)}
        if not all(key in keys for key in fixed):
            problems.append(f"cli seed {seed}: a README command is missing")
    return problems


def check_benchmark_json() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if list(run.WORKLOAD_NAMES) != list(W.WORKLOADS):
        problems.append("run.py and workloads.py name different workloads")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_names())):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def main() -> int:
    problems = check_seeds() + check_benchmark_json()
    for workload in run.WORKLOAD_NAMES:
        problems += check_verifiers(workload, 5)
    for line in problems:
        print("FAIL", line)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
