"""Spans around calls into ``runsdist``, recorded from outside the program.

:func:`instrument` replaces every public function of the ``pmf``, ``roots``,
``moments`` and ``oracle`` modules, wherever a ``runsdist`` module holds a
reference to it, with a wrapper that opens a span. Calls between modules go
through those references, so a span's children are the public calls it made.
``special`` and ``core`` are not wrapped: their helpers run millions of times
per op, and their time stays inside the callers' spans.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from fractions import Fraction

import runsdist
import runsdist.cli
import runsdist.core
import runsdist.moments
import runsdist.oracle
import runsdist.pmf
import runsdist.roots
import runsdist.special

TRACED_MODULES = (runsdist.pmf, runsdist.roots, runsdist.moments, runsdist.oracle)
ALL_MODULES = TRACED_MODULES + (runsdist, runsdist.cli, runsdist.core, runsdist.special)


class Tracer:
    """In-memory spans ``[id, parent, op, name, start, end, raised]`` and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.op_id = None
        self.enabled = False          # spans only inside an op's timed call
        self.counts: dict = defaultdict(float)
        self.maxima: dict = {}

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter(), None, False])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, raised: bool = False) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[6] = raised
        self.stack.pop()

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> dict:
        """Span name -> (calls, total duration, self time, raised count)."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for sid, _, _, name, t0, t1, raised in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
            row[3] += raised
        return dict(out)


def _exact_bits(values) -> int:
    return max((v.numerator.bit_length() + v.denominator.bit_length()
                for v in values if isinstance(v, Fraction)), default=0)


# What a traced call reports about its result, beyond its span.
RESULT_HOOKS = {
    "recover_coefficients": lambda tr, res: tr.maximum("roots.recovery_residual_max",
                                                       res.recovery_residual),
    "summation_window": lambda tr, res: tr.maximum("moments.summation.window_max", res),
    "pmf_table": lambda tr, res: tr.maximum("pmf.exact_bits_max", _exact_bits(res.values)),
}


def _wrap(fn, tracer: Tracer):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    hook = RESULT_HOOKS.get(fn.__name__)

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, raised=True)
            raise
        tracer.close(sid)
        if hook:
            hook(tracer, result)
        return result

    traced.__wrapped__ = fn
    return traced


def instrument(tracer: Tracer):
    """Wrap the public functions; returns a callable that undoes it."""
    wrappers = {}
    for mod in TRACED_MODULES:
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[id(obj)] = _wrap(obj, tracer)
    replaced = []
    for mod in ALL_MODULES:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                replaced.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    def restore():
        for mod, name, obj in replaced:
            setattr(mod, name, obj)
    return restore
