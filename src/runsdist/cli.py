"""Command-line front end: pmf tables, moment tables, engine comparison
reports, and Monte Carlo runs, as CSV (default) or JSON.

Output contract: CSV uses a '.' decimal separator, LF line endings, and a
fixed column order; floats are printed with shortest round-trip repr (17
significant digits suffice to reconstruct them exactly) and exact mode prints
fraction strings. Exit codes: 0 success, 1 comparison failure, 2 usage
error or a numeric failure, which stderr names.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .core import IndexScheme, MomentKind, NumericFailure, RunParams, VariantSpec
from .moments import MomentRoute, factorial_moments_pgf, moments_via_route, shape_from_central
from .oracle import CountingSemantics, monte_carlo
from .pmf import ENGINES, EngineFamily, PmfEngine, pmf_table

ENGINE_IDS = tuple(e.value for e in PmfEngine)
ROUTE_IDS = tuple(route.value for route in MomentRoute)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _params(parser: argparse.ArgumentParser, args) -> RunParams:
    exact = "/" in args.p or args.exact
    try:
        p = Fraction(args.p) if exact else float(args.p)
    except (ValueError, ZeroDivisionError) as err:
        parser.error(f"--p: cannot parse {args.p!r}: {err}")
    try:
        return RunParams(args.k, args.r, p)
    except (TypeError, ValueError) as err:
        parser.error(f"--k/--r/--p: {err}")


def _variant(parser: argparse.ArgumentParser, args, params: RunParams) -> VariantSpec:
    try:
        variant = VariantSpec.parse(args.variant)
        variant.check_against(params)
    except ValueError as err:
        parser.error(f"--variant: {err}")
    return variant


def _emit(rows: list, columns: tuple, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        payload = [{c: (row[c] if not isinstance(row[c], (float, Fraction))
                        else (str(row[c]) if isinstance(row[c], Fraction)
                              else float(row[c])))
                    for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    out.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            cells.append(_fmt(v) if isinstance(v, (float, Fraction)) else str(v))
        out.write(",".join(cells) + "\n")


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True, help="run length (>= 1)")
    sub.add_argument("--r", type=int, required=True, help="number of runs (>= 1)")
    sub.add_argument("--p", required=True,
                     help="success probability; 'a/b' selects exact mode, a decimal selects float mode")
    sub.add_argument("--exact", action="store_true",
                     help="force exact rational mode even for a decimal --p")


def cmd_pmf(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = _variant(parser, args, params)
    engine = PmfEngine(args.engine)
    spec = ENGINES[engine]
    scheme = IndexScheme(args.scheme)
    if args.n_max < args.n_min:
        parser.error("--n-max must be at least --n-min")
    try:
        if spec.family is EngineFamily.COUNTS:
            spec.check(params, scheme, variant, args.n_min)
            values = spec.evaluate(params, args.n_min, args.n_max, 0, None)
        else:
            values = pmf_table(params, engine, args.n_min, args.n_max,
                               scheme=scheme, variant=variant).values
    except ValueError as err:
        parser.error(str(err))

    base = dict(k=params.k, r=params.r, p=params.p, scheme=scheme.value,
                variant=variant.describe(), engine=engine.value)
    rows = [dict(base, n=n, value=v) for n, v in enumerate(values, start=args.n_min)]
    _emit(rows, ("k", "r", "p", "scheme", "variant", "engine", "n", "value"),
          args.format)
    return 0


def cmd_moments(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = _variant(parser, args, params)
    kind = MomentKind(args.kind)
    route = MomentRoute(args.route)
    scheme = IndexScheme(args.scheme)
    order_max = args.order_max
    if order_max < 1:
        parser.error("--order-max must be >= 1")

    try:
        ms = moments_via_route(params, route, kind, scheme,
                               max(order_max, 4) if kind is MomentKind.CENTRAL
                               else order_max, variant)
    except ValueError as err:
        parser.error(str(err))

    rows = []
    base = dict(k=params.k, r=params.r, p=params.p, scheme=scheme.value,
                variant=variant.describe(), kind=kind.value, route=route.value)
    for order in range(1, order_max + 1):
        rows.append(dict(base, order=order, value=ms.value(order)))
    if kind is MomentKind.CENTRAL:
        skewness, excess = shape_from_central(ms)
        rows.append(dict(base, order="skewness", value=skewness))
        rows.append(dict(base, order="excess_kurtosis", value=excess))
    _emit(rows, ("k", "r", "p", "scheme", "variant", "kind", "route", "order",
                 "value"), args.format)
    return 0


def cmd_compare(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = _variant(parser, args, params)
    default_scheme = IndexScheme(args.scheme)
    specs = []
    for item in args.engines.split(","):
        item = item.strip()
        if not item:
            continue
        if "@" in item:
            eng_id, _, sch = item.partition("@")
            try:
                sch_val = IndexScheme(sch)
            except ValueError:
                parser.error(f"--engines: unknown scheme {sch!r}")
        else:
            eng_id, sch_val = item, default_scheme
        if eng_id not in ENGINE_IDS:
            parser.error(f"--engines: unknown engine {eng_id!r}; "
                         f"valid ids: {', '.join(ENGINE_IDS)}")
        engine = PmfEngine(eng_id)
        if ENGINES[engine].family is EngineFamily.COUNTS:
            parser.error(f"--engines: {eng_id} is not a waiting-time engine")
        specs.append((engine, sch_val))
    if len(specs) < 2:
        parser.error("--engines: need at least two engines to compare")
    if args.n_max < args.n_min:
        parser.error("--n-max must be at least --n-min")

    columns = []
    for engine, scheme in specs:
        try:
            table = pmf_table(params, engine, args.n_min, args.n_max,
                              scheme=scheme, variant=variant)
        except ValueError as err:
            parser.error(str(err))
        columns.append([float(v) for v in table.values])

    out = sys.stdout
    labels = [f"{e.value}@{s.value}" for e, s in specs]
    out.write("n," + ",".join(labels) + ",max_abs_diff\n")
    worst = 0.0
    for i, n in enumerate(range(args.n_min, args.n_max + 1)):
        vals = [col[i] for col in columns]
        spread = max(vals) - min(vals)
        worst = max(worst, spread)
        out.write(",".join([str(n)] + [repr(v) for v in vals] + [repr(spread)]))
        out.write("\n")
    ok = worst <= args.tolerance
    out.write(f"# {'PASS' if ok else 'FAIL'} max_abs_diff={worst!r} "
              f"tolerance={args.tolerance!r}\n")
    return 0 if ok else 1


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    params = _params(parser, args)
    variant = _variant(parser, args, params)
    try:
        result = monte_carlo(params, CountingSemantics.from_variant(variant),
                             args.samples, args.seed)
    except ValueError as err:
        parser.error(str(err))
    ana_mean, ana_var = analytic_mean_variance(params, variant)
    out = sys.stdout
    out.write(f"# k={params.k} r={params.r} p={_fmt(params.p)} "
              f"variant={variant.describe()} samples={args.samples} seed={args.seed}\n")
    out.write(f"# empirical_mean={result.mean!r} "
              f"empirical_variance={result.variance!r} "
              f"empirical_skewness={result.skewness!r}\n")
    out.write(f"# analytic_mean={ana_mean!r} analytic_variance={ana_var!r}\n")
    out.write("n,count,frequency\n")
    for n, c in result.histogram_items():
        out.write(f"{n},{c},{c / args.samples!r}\n")
    return 0


def analytic_mean_variance(params: RunParams, variant: VariantSpec) -> tuple:
    """Exact mean and variance of a variant, each rounded once, for simulation reports."""
    fm = factorial_moments_pgf(params.to_exact(), 2, variant)
    mu = fm.value(1)
    return float(mu), float(fm.value(2) + mu - mu * mu)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runsdist",
        description="Waiting-time distribution of success runs in Bernoulli "
                    "trials: pmf engines, moments, comparisons, simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("pmf", help="tabulate a pmf engine over an index range")
    _add_param_flags(sp)
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--engine", required=True, choices=ENGINE_IDS)
    sp.add_argument("--scheme", choices=("full", "cut"), default="full")
    sp.add_argument("--variant", default="type1",
                    help="type1 | type2 | overlap=L | gap=G")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_pmf)

    sm = subs.add_parser("moments", help="tabulate moments by a chosen route")
    _add_param_flags(sm)
    sm.add_argument("--kind", choices=("factorial", "raw", "central"),
                    required=True)
    sm.add_argument("--order-max", type=int, default=4)
    sm.add_argument("--route", choices=ROUTE_IDS, default="partition")
    sm.add_argument("--scheme", choices=("full", "cut"), default="full")
    sm.add_argument("--variant", default="type1")
    sm.add_argument("--format", choices=("csv", "json"), default="csv")
    sm.set_defaults(func=cmd_moments)

    sc = subs.add_parser("compare", help="cross-check engines over a range")
    _add_param_flags(sc)
    sc.add_argument("--n-min", type=int, required=True)
    sc.add_argument("--n-max", type=int, required=True)
    sc.add_argument("--engines", required=True,
                    help="comma-separated engine ids, each optionally "
                         "suffixed @full or @cut to pin its scheme")
    sc.add_argument("--scheme", choices=("full", "cut"), default="full")
    sc.add_argument("--variant", default="type1")
    sc.add_argument("--tolerance", type=float, default=1e-11)
    sc.set_defaults(func=cmd_compare)

    ss = subs.add_parser("simulate", help="Monte Carlo run with a fixed seed")
    _add_param_flags(ss)
    ss.add_argument("--samples", type=int, required=True)
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--variant", default="type1")
    ss.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except NumericFailure as err:  # before any output; exit 1 would read as a mismatch
        print(f"{parser.prog} {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
