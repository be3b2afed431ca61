"""Verifiers for benchmark op results.

Each verifier returns ``None`` when the result is right and a short reason
string when it is wrong. The runner counts a reason as a ``wrong`` failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

REL_TOL = 1e-9


def exact_equal(got, ref) -> str | None:
    """Bit equality of two sequences of exact rationals."""
    got, ref = tuple(got), tuple(ref)
    if len(got) != len(ref):
        return f"length {len(got)} != {len(ref)}"
    for i, (g, r) in enumerate(zip(got, ref)):
        if type(g) is not Fraction:
            return f"item {i} is {type(g).__name__}, not Fraction"
        if g != r:
            return f"item {i}: {g} != {r}"
    return None


def float_equal(got, ref) -> str | None:
    """Equality of two doubles, both computed exactly and rounded once."""
    if type(got) is not float:
        return f"{type(got).__name__}, not float"
    return None if got == ref else f"{got!r} != {ref!r}"


def rel_close(got, ref, tol: float = REL_TOL, scale: float | None = None) -> str | None:
    """``|got - ref| <= tol * scale``; the scale defaults to ``|ref|``."""
    got, ref = float(got), float(ref)
    bound = tol * (abs(ref) if scale is None else scale)
    if not math.isfinite(got) or abs(got - ref) > bound:
        return f"{got!r} vs {ref!r}: off by {abs(got - ref):.3e} > {bound:.3e}"
    return None


def all_close(got, ref, tol: float = REL_TOL, scales=None) -> str | None:
    got, ref = tuple(got), tuple(ref)
    if len(got) != len(ref):
        return f"length {len(got)} != {len(ref)}"
    for i, (g, r) in enumerate(zip(got, ref)):
        bad = rel_close(g, r, tol, None if scales is None else scales[i])
        if bad:
            return f"item {i}: {bad}"
    return None


def within_se(value: float, expected: float, se: float, nse: float = 5.0) -> str | None:
    """A sample statistic within ``nse`` standard errors of its expectation."""
    if abs(value - expected) > nse * se:
        return f"{value!r} is {abs(value - expected) / se:.1f} SE from {expected!r}"
    return None


CSV_COLUMNS = {
    "pmf": "k,r,p,scheme,variant,engine,n,value",
    "moments": "k,r,p,scheme,variant,kind,route,order,value",
}


def csv_rows(text: str, sub: str) -> list | str:
    """Parse CLI CSV output under the column contract, or return a reason."""
    if "\r" in text:
        return "CR in output"
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with LF"
    lines = lines[:-1]
    if not lines or lines[0] != CSV_COLUMNS[sub]:
        return f"header {lines[0] if lines else ''!r}"
    width = CSV_COLUMNS[sub].count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        return "row width differs from header"
    return rows
