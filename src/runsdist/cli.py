"""Command-line front end: pmf tables, moment tables, engine comparison
reports, and Monte Carlo runs, as CSV (default) or JSON.

Output contract: CSV uses a '.' decimal separator, LF line endings, and a
fixed column order; floats are printed with shortest round-trip repr (17
significant digits suffice to reconstruct them exactly) and exact mode prints
fraction strings. Exit codes: 0 success, 1 comparison failure, 2 usage
error or a numeric failure, which stderr names.

The commands parse their flags and leave every other check to the library:
:func:`main` reports a ``ValueError`` it raises as a usage error with the
library's message, and a :class:`~runsdist.core.NumericFailure` by name.
Each flag is declared once, in ``_FLAGS``, and :func:`_emit` writes every
CSV table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .core import IndexScheme, MomentKind, NumericFailure, RunParams, VariantSpec
from .moments import MomentRoute, moments_via_route, shape_from_central
from .oracle import CountingSemantics, monte_carlo
from .pmf import ENGINES, EngineFamily, PmfEngine, pmf_table

ENGINE_IDS = tuple(e.value for e in PmfEngine)
ROUTE_IDS = tuple(route.value for route in MomentRoute)
SCHEME_IDS = tuple(scheme.value for scheme in IndexScheme)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _params(parser: argparse.ArgumentParser, args) -> RunParams:
    exact = "/" in args.p or args.exact
    try:
        p = Fraction(args.p) if exact else float(args.p)
    except (ValueError, ZeroDivisionError) as err:
        parser.error(f"--p: cannot parse {args.p!r}: {err}")
    return RunParams(args.k, args.r, p)


def _emit(columns: tuple, rows: list, fmt: str = "csv") -> None:
    """Write ``rows``, each a tuple in ``columns`` order, to stdout as CSV or JSON."""
    out = sys.stdout
    if fmt == "json":
        payload = [{c: str(v) if isinstance(v, Fraction) else float(v) if isinstance(v, float)
                    else v for c, v in zip(columns, row)} for row in rows]
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(map(_fmt, row)) + "\n")


def cmd_pmf(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = VariantSpec.parse(args.variant)
    engine, scheme = PmfEngine(args.engine), IndexScheme(args.scheme)
    spec = ENGINES[engine]
    if spec.family is EngineFamily.COUNTS:  # not a waiting time, so not a pmf_table
        spec.check(params, scheme, variant, args.n_min, args.n_max)
        values = spec.evaluate(params, args.n_min, args.n_max, 0, None)
    else:
        values = pmf_table(params, engine, args.n_min, args.n_max,
                           scheme=scheme, variant=variant).values
    base = (params.k, params.r, params.p, scheme.value, variant.describe(), engine.value)
    _emit(("k", "r", "p", "scheme", "variant", "engine", "n", "value"),
          [(*base, n, v) for n, v in enumerate(values, start=args.n_min)], args.format)
    return 0


def cmd_moments(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = VariantSpec.parse(args.variant)
    kind, route = MomentKind(args.kind), MomentRoute(args.route)
    scheme = IndexScheme(args.scheme)
    order_max = args.order_max
    # the shape rows read central orders 2..4; an order_max below 1 reaches the library as given
    central = kind is MomentKind.CENTRAL and order_max >= 1
    ms = moments_via_route(params, route, kind, scheme,
                           max(order_max, 4) if central else order_max, variant)
    rows = [(order, ms.value(order)) for order in range(1, order_max + 1)]
    if central:
        skewness, excess = shape_from_central(ms)
        rows += [("skewness", skewness), ("excess_kurtosis", excess)]
    base = (params.k, params.r, params.p, scheme.value, variant.describe(), kind.value,
            route.value)
    _emit(("k", "r", "p", "scheme", "variant", "kind", "route", "order", "value"),
          [(*base, *row) for row in rows], args.format)
    return 0


def cmd_compare(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = VariantSpec.parse(args.variant)
    specs = []
    for item in filter(None, map(str.strip, args.engines.split(","))):
        eng_id, at, sch = item.partition("@")
        if at and sch not in SCHEME_IDS:
            parser.error(f"--engines: unknown scheme {sch!r}")
        if eng_id not in ENGINE_IDS:
            parser.error(f"--engines: unknown engine {eng_id!r}; "
                         f"valid ids: {', '.join(ENGINE_IDS)}")
        specs.append((PmfEngine(eng_id), IndexScheme(sch or args.scheme)))
    if len(specs) < 2:
        parser.error("--engines: need at least two engines to compare")

    columns = [map(float, pmf_table(params, engine, args.n_min, args.n_max, scheme=scheme,
                                    variant=variant).values) for engine, scheme in specs]
    rows = [(n, *vals, max(vals) - min(vals))
            for n, *vals in zip(range(args.n_min, args.n_max + 1), *columns)]
    worst = max(row[-1] for row in rows)
    _emit(("n", *(f"{e.value}@{s.value}" for e, s in specs), "max_abs_diff"), rows)
    ok = worst <= args.tolerance
    sys.stdout.write(f"# {'PASS' if ok else 'FAIL'} max_abs_diff={worst!r} "
                     f"tolerance={args.tolerance!r}\n")
    return 0 if ok else 1


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = VariantSpec.parse(args.variant)
    result = monte_carlo(params, CountingSemantics.from_variant(variant),
                         args.samples, args.seed)
    ana_mean, ana_var = analytic_mean_variance(params, variant)
    out = sys.stdout
    out.write(f"# k={params.k} r={params.r} p={_fmt(params.p)} "
              f"variant={variant.describe()} samples={args.samples} seed={args.seed}\n")
    out.write(f"# empirical_mean={result.mean!r} "
              f"empirical_variance={result.variance!r} "
              f"empirical_skewness={result.skewness!r}\n")
    out.write(f"# analytic_mean={ana_mean!r} analytic_variance={ana_var!r}\n")
    _emit(("n", "count", "frequency"),
          [(n, c, c / args.samples) for n, c in result.histogram_items()])
    return 0


def analytic_mean_variance(params: RunParams, variant: VariantSpec) -> tuple:
    """Exact mean and variance of a variant, each rounded once, for simulation reports."""
    fm = moments_via_route(params.to_exact(), MomentRoute.PGF, MomentKind.FACTORIAL,
                           IndexScheme.FULL, 2, variant)
    mu = fm.value(1)
    return float(mu), float(fm.value(2) + mu - mu * mu)


# every flag, declared once; each command lists the flags it takes, in order
_FLAGS = {
    "--k": dict(type=int, required=True, help="run length (>= 1)"),
    "--r": dict(type=int, required=True, help="number of runs (>= 1)"),
    "--p": dict(required=True, help="success probability; 'a/b' selects exact mode, "
                                    "a decimal selects float mode"),
    "--exact": dict(action="store_true", help="force exact rational mode even for a decimal --p"),
    "--n-min": dict(type=int, required=True),
    "--n-max": dict(type=int, required=True),
    "--engine": dict(required=True, choices=ENGINE_IDS),
    "--engines": dict(required=True, help="comma-separated engine ids, each optionally "
                                          "suffixed @full or @cut to pin its scheme"),
    "--kind": dict(choices=("factorial", "raw", "central"), required=True),
    "--order-max": dict(type=int, default=4),
    "--route": dict(choices=ROUTE_IDS, default="partition"),
    "--samples": dict(type=int, required=True),
    "--seed": dict(type=int, default=0),
    "--scheme": dict(choices=SCHEME_IDS, default="full"),
    "--variant": dict(default="type1", help="type1 | type2 | overlap=L | gap=G"),
    "--tolerance": dict(type=float, default=1e-11),
    "--format": dict(choices=("csv", "json"), default="csv"),
}
_PARAMS = ("--k", "--r", "--p", "--exact")
_COMMANDS = (
    ("pmf", cmd_pmf, "tabulate a pmf engine over an index range",
     (*_PARAMS, "--n-min", "--n-max", "--engine", "--scheme", "--variant", "--format")),
    ("moments", cmd_moments, "tabulate moments by a chosen route",
     (*_PARAMS, "--kind", "--order-max", "--route", "--scheme", "--variant", "--format")),
    ("compare", cmd_compare, "cross-check engines over a range",
     (*_PARAMS, "--n-min", "--n-max", "--engines", "--scheme", "--variant", "--tolerance")),
    ("simulate", cmd_simulate, "Monte Carlo run with a fixed seed",
     (*_PARAMS, "--samples", "--seed", "--variant")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runsdist",
        description="Waiting-time distribution of success runs in Bernoulli "
                    "trials: pmf engines, moments, comparisons, simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in _COMMANDS:
        sub = subs.add_parser(name, help=summary)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # numpy loads lazily, inside the commands, so this default is in place
    # before OpenBLAS starts; its thread pool costs start-up time and the
    # root engine's k*r-unknown systems gain nothing from it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except NumericFailure as err:  # before any output; exit 1 would read as a mismatch
        print(f"{parser.prog} {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # the library refused the request
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
