"""Command-line front end: pmf tables, moment tables, engine comparison
reports, and Monte Carlo runs, as CSV (default) or JSON.

Output contract: CSV uses a '.' decimal separator, LF line endings, and a
fixed column order; floats are printed with shortest round-trip repr (17
significant digits suffice to reconstruct them exactly) and exact mode prints
fraction strings. Exit codes: 0 success, 1 comparison failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .core import IndexScheme, MomentKind, RunParams, VariantSpec, shift_moments
from .moments import MomentRoute, mean, moments_via_route, variance
from .oracle import CountingSemantics, monte_carlo
from .pmf import ENGINES, EngineFamily, PmfEngine, pmf_table
from .roots import factorial_moments_root, recover_coefficients, solve_roots

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
        if variant.type2:
            parser.error("--variant type2: Type II moments are not supported")
        if variant.is_overlap:
            if route is not MomentRoute.ROOT:
                parser.error("--variant overlap requires --route root")
            if kind is not MomentKind.FACTORIAL:
                parser.error("--variant overlap supports --kind factorial only")
            if scheme is not IndexScheme.FULL:
                parser.error("--variant overlap requires --scheme full")
            system = solve_roots(params.to_float())
            coeffs = recover_coefficients(system, ell=variant.overlap)
            ms = factorial_moments_root(coeffs, order_max)
        else:
            if variant.is_gap and scheme is not IndexScheme.FULL:
                parser.error("--variant gap requires --scheme full")
            central = kind is MomentKind.CENTRAL
            ms = moments_via_route(params, route, kind, scheme,
                                   max(order_max, 4) if central else order_max)
            if variant.is_gap and not central:
                ms = shift_moments(ms, (params.r - 1) * variant.gap)
    except ValueError as err:
        parser.error(str(err))

    rows = []
    base = dict(k=params.k, r=params.r, p=params.p, scheme=scheme.value,
                variant=variant.describe(), kind=kind.value, route=route.value)
    for order in range(1, order_max + 1):
        rows.append(dict(base, order=order, value=ms.value(order)))
    if kind is MomentKind.CENTRAL:
        var = float(ms.value(2))
        sigma = var ** 0.5
        rows.append(dict(base, order="skewness",
                         value=float(ms.value(3)) / sigma ** 3))
        rows.append(dict(base, order="excess_kurtosis",
                         value=(float(ms.value(4)) - 3 * var ** 2) / var ** 2))
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
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    semantics = CountingSemantics.from_variant(variant)
    result = monte_carlo(params, semantics, args.samples, args.seed)
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
    """Reference mean and variance for a variant, for simulation reports."""
    fp = params.to_float()
    if variant.type2:
        # No closed Type II moments here; sum the pmf until the mass closes.
        from .pmf import pmf_muselli as _pmf2

        mean_acc = var_acc = mass = 0.0
        n = 0
        tail = 0
        while tail < 200 and n < 10_000_000:
            n += 1
            v = _pmf2(fp, n)
            mass += v
            mean_acc += n * v
            var_acc += n * n * v
            tail = tail + 1 if 1 - mass < 1e-12 else 0
        return mean_acc, var_acc - mean_acc ** 2
    if variant.is_overlap:
        system = solve_roots(fp)
        coeffs = recover_coefficients(system, ell=variant.overlap)
        ms = factorial_moments_root(coeffs, 2)
        mu = ms.value(1)
        return mu, ms.value(2) + mu - mu * mu
    mu = mean(fp)
    if variant.is_gap:
        mu += (params.r - 1) * variant.gap
    return mu, variance(fp)


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
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
