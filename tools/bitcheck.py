"""Print the pmf engines' and moment routes' values at random points, to compare two checkouts.

Usage: python tools/bitcheck.py SEED COUNT

Draws COUNT points from SEED: ``k <= 5``, ``r <= 4``, ``p`` either an exact
``a/d`` with ``d <= 20`` or a float, and an index ``n <= 60``; about one
point in eight is deep instead, with ``n`` in ``[200, 600]``, where the power
ladder of an exact table can pass ``_LADDER_BITS`` and hand its sums to the
split Horner. A second stream, seeded by SEED and the point's number, draws
an order up to 6 (up to 10 for an exact ``p``), a gap ``g`` in 1..3 and an
overlap ``l`` in 1..k-1, which fix the point's families: type1, the gap,
the overlap when ``k > 1``, and type2. For each point it prints one line
holding the ``type`` and ``repr`` of every single-index pmf function (the
Type II forms and the run counts with ``r_count`` 0..6 included), then, for
each engine in ``pmf.ENGINES``, one range up to 20 indices wide, starting at
or below ``3k+3`` (in ``[200, 600]`` at a deep point): ``pmf_table`` of
every family with the ``TermCounter`` count, or, for a run-count engine,
its record's evaluator as the CLI calls it. The moment cells follow:
``moments_via_route`` for every route, kind, scheme and family, where
``summation`` runs only while the Type I mean is at most ``MEAN_MAX``, as
its table spans 30 standard deviations; ``central_moments``, both ``mean``
schemes, ``variance`` and ``gap_moments``. A request the library refuses
prints as its refusal. While the mean is at most ``MEAN_MAX`` the line ends
in one seeded ``monte_carlo`` run, drawn from a third stream: one of the
point's families, at most 500 samples and a seed, with the ``repr`` of the
mean, variance and skewness and the counts; every 100th point adds a second
run from the same stream, with samples in ``(2^16, 3·2^16]``, so its draws
span more than one of ``oracle._DRAW_BLOCK``'s blocks.
An error prints as its name and message. The output depends only on SEED,
COUNT and the library, so ``cmp`` of two checkouts' outputs is a
bit-identity check, and two runs of one checkout must match.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from runsdist.core import (TYPE1, IndexScheme, MomentKind, RunParams, TermCounter,  # noqa: E402
                           VariantSpec)
from runsdist.moments import (MomentRoute, central_moments, mean,  # noqa: E402
                              moments_via_route, variance)
from runsdist.oracle import CountingSemantics, monte_carlo  # noqa: E402
from runsdist.pmf import (ENGINES, EngineFamily, MuselliForm, counts_muselli,  # noqa: E402
                          pmf_fullsum_ch, pmf_hyp, pmf_muselli, pmf_nested_sum,
                          pmf_pgf_expansion, pmf_table)
from runsdist.roots import gap_moments  # noqa: E402

F, C = IndexScheme.FULL, IndexScheme.CUT
MEAN_MAX = 200.0  # the summation route and Monte Carlo run only up to this mean


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


def _wide(params: RunParams) -> bool:
    """Is the Type I mean above ``MEAN_MAX``?"""
    return mean(params) > MEAN_MAX


def families(k: int, g: int, ell: int) -> list:
    """Type I, the gap ``g``, the overlap ``ell`` when ``k > 1``, and Type II."""
    overlap = [VariantSpec.with_overlap(ell)] if k > 1 else []
    return [TYPE1, VariantSpec.with_gap(g), *overlap, VariantSpec.type_ii()]


def moment_cells(params: RunParams, order: int, g: int, variants: list) -> list:
    """The moment cells at one point: every route, kind and scheme for every family."""
    cells = [f"order={order} g={g}"]
    for route in MomentRoute:
        if route is MomentRoute.SUMMATION and _wide(params):
            continue
        cells += [f"{route.value}:{kind.value}@{scheme.value}:{variant.describe()}="
                  + _show(moments_via_route, params, route, kind, scheme, order, variant)
                  for variant in variants for kind in MomentKind for scheme in (C, F)]
    cells += [f"central_moments={_show(central_moments, params, min(order, 4))}",
              f"mean={_show(mean, params)}", f"mean@cut={_show(mean, params, C)}",
              f"variance={_show(variance, params)}"]
    cells += [f"gap_moments:{kind.value}={_show(gap_moments, params, g, order, kind)}"
              for kind in (MomentKind.FACTORIAL, MomentKind.RAW)]
    return cells


def monte_carlo_cell(params: RunParams, variants: list, rng: random.Random,
                     samples: tuple = (1, 500)) -> str:
    """One seeded Monte Carlo run of one of ``variants``, ``samples`` bounds included."""
    variant, samples, seed = rng.choice(variants), rng.randint(*samples), rng.randrange(2 ** 32)

    def run():
        res = monte_carlo(params, CountingSemantics.from_variant(variant), samples, seed)
        return res.mean, res.variance, res.skewness, res.counts

    return f"monte_carlo:{variant.describe()}:{samples}:{seed}={_show(run)}"


def point(rng: random.Random, mrng: random.Random, crng: random.Random,
          wide_draws: bool = False) -> str:
    k, r = rng.randint(1, 5), rng.randint(1, 4)
    if rng.random() < 0.5:
        d = rng.randint(2, 20)
        p = Fraction(rng.randint(1, d - 1), d)
    else:
        p = rng.uniform(0.05, 0.95)
    params = RunParams(k, r, p)
    deep = rng.random() < 1 / 8
    n = rng.randint(200, 600) if deep else rng.randint(1, 60)
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
    order = mrng.randint(1, 10 if params.exact else 6)
    g, ell = mrng.randint(1, 3), mrng.randint(1, k - 1) if k > 1 else 0
    variants = families(k, g, ell)
    for engine, spec in ENGINES.items():
        if deep:
            lo = rng.randint(200, 600)
        else:
            lo = rng.randint(0 if spec.scheme is C else 1, 3 * k + 3)
        hi = lo + rng.randint(0, 20)
        if spec.family is EngineFamily.COUNTS:  # the evaluator the CLI calls
            cells.append(f"{engine.value}@{lo}..{hi}="
                         + _show(spec.evaluate, params, lo, hi, 0, None))
            continue
        cells += [f"{engine.value}@{lo}..{hi}:{variant.describe()}="
                  + _counted(pmf_table, params, engine, lo, hi, spec.scheme, variant)
                  for variant in variants]
    cells += moment_cells(params, order, g, variants)
    if not _wide(params):
        cells.append(monte_carlo_cell(params, variants, crng))
        if wide_draws:
            cells.append(monte_carlo_cell(params, variants, crng, (2 ** 16 + 1, 3 * 2 ** 16)))
    return " ".join(cells)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    seed, count = map(int, argv)
    rng = random.Random(seed)
    for i in range(count):
        print(i, point(rng, random.Random(f"moments:{seed}:{i}"),
                       random.Random(f"monte_carlo:{seed}:{i}"), i % 100 == 0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
