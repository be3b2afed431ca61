"""Print the pmf engines' values at random points, to compare two checkouts bit for bit.

Usage: python tools/bitcheck.py SEED COUNT

Draws COUNT points from SEED: ``k <= 5``, ``r <= 4``, ``p`` either an exact
``a/d`` with ``d <= 20`` or a float, and an index ``n <= 60``. For each point
it prints one line holding the ``type`` and ``repr`` of every single-index
pmf function (the Type II forms and the run counts with ``r_count`` 0..6
included), of one table per engine in ``pmf.ENGINES`` starting at or below
``3k+3`` and up to 20 indices wide, and the ``TermCounter`` counts of the
engines that take one. An error prints as its name and message. The output
depends only on SEED, COUNT and the library, so ``cmp`` of two checkouts'
outputs is a bit-identity check, and two runs of one checkout must match.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from runsdist.core import TYPE1, IndexScheme, RunParams, TermCounter, VariantSpec  # noqa: E402
from runsdist.pmf import (ENGINES, EngineFamily, MuselliForm, counts_muselli,  # noqa: E402
                          pmf_fullsum_ch, pmf_hyp, pmf_muselli, pmf_nested_sum,
                          pmf_pgf_expansion, pmf_table)

F, C = IndexScheme.FULL, IndexScheme.CUT


def _show(fn, *args, **kwargs) -> str:
    try:
        value = fn(*args, **kwargs)
    except Exception as err:  # the error is part of the output
        return f"{type(err).__name__}: {err}"
    value = getattr(value, "values", value)  # a PmfTable prints its values
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(f"{type(v).__name__}:{v!r}" for v in value) + "]"
    return f"{type(value).__name__}:{value!r}"


def _counted(fn, *args, **kwargs) -> str:
    counter = TermCounter()
    return f"{_show(fn, *args, counter=counter, **kwargs)}#{counter.count}"


def point(rng: random.Random) -> str:
    k, r = rng.randint(1, 5), rng.randint(1, 4)
    if rng.random() < 0.5:
        d = rng.randint(2, 20)
        p = Fraction(rng.randint(1, d - 1), d)
    else:
        p = rng.uniform(0.05, 0.95)
    params = RunParams(k, r, p)
    n = rng.randint(1, 60)
    rk = r * k
    cells = [f"k={k} r={r} p={p!r} n={n}",
             _counted(pmf_nested_sum, params, n, F),
             _counted(pmf_nested_sum, params, n - rk, C),
             _show(pmf_hyp, params, n, F),
             _show(pmf_fullsum_ch, params, n - rk),
             _show(pmf_pgf_expansion, params, n)]
    for form in MuselliForm:
        cells.append(_show(pmf_muselli, params, n, form))
        cells += [_show(counts_muselli, params, n, count, form) for count in range(7)]
    for engine, spec in ENGINES.items():
        lo = rng.randint(0 if spec.scheme is C else 1, 3 * k + 3)
        hi = lo + rng.randint(0, 20)
        if spec.family is EngineFamily.COUNTS:  # the evaluator the CLI calls
            table = _show(spec.evaluate, params, lo, hi, 0, None)
        else:
            variant = VariantSpec.type_ii() if spec.family is EngineFamily.TYPE2 else TYPE1
            if spec.overlap and k > 1 and rng.random() < 0.5:
                variant = VariantSpec.with_overlap(rng.randint(1, k - 1))
            table = _counted(pmf_table, params, engine, lo, hi, spec.scheme, variant)
        cells.append(f"{engine.value}@{lo}..{hi}={table}")
    return " ".join(cells)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    seed, count = map(int, argv)
    rng = random.Random(seed)
    for i in range(count):
        print(i, point(rng))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
