"""The README's examples run as written and print what it says they print.

The Python quick start runs against the package's top-level names, and each
line of it that ends in a literal comment evaluates to that literal. Each
``runsdist`` command of the README runs in-process and must print the bytes
recorded for it in ``perfbench/golden/`` (read only here), and every engine
and route value those bytes hold is within 1e-11 relative of the exact value
at the same double ``p``.
"""

import ast
import csv
import re
import shlex
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from runsdist import cli
from runsdist.core import IndexScheme, MomentKind, RunParams, VariantSpec, convert_index
from runsdist.moments import MomentRoute, moments_via_route
from runsdist.oracle import CountingSemantics, dp_waiting_time_pmf
from runsdist.pmf import ENGINES, EngineFamily, PmfEngine

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# golden output and exit code of each README command, in README order
GOLDEN = (("pmf-type1", 0), ("pmf-type2", 0), ("pmf-counts", 0),
          ("moments-partition", 0), ("moments-root-overlap", 0),
          ("compare-pass", 0), ("compare-mismatch", 1), ("simulate", 0))


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands() -> list:
    lines = "".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("runsdist ")]


COMMANDS = _commands()


def test_quick_start_runs_and_matches_its_comments():
    (block,) = _blocks("python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == want, line
        checked += 1
    assert checked == 2


def test_every_cli_example_has_a_golden_output():
    assert len(COMMANDS) == len(GOLDEN)


def _golden(name: str) -> str:
    return (ROOT / "perfbench" / "golden" / f"{name}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("argv, golden", list(zip(COMMANDS, GOLDEN)),
                         ids=[name for name, _ in GOLDEN])
def test_cli_example_prints_its_golden_output(capsys, argv, golden):
    name, want_code = golden
    want = _golden(name)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == want_code
    assert capsys.readouterr().out == want


def _shape(cm) -> dict:
    """Skewness and excess kurtosis of exact central moments, to 50 digits."""
    m2, m3, m4 = (cm.value(j) for j in (2, 3, 4))
    with localcontext() as ctx:
        ctx.prec = 50
        d2, d3 = (Decimal(v.numerator) / v.denominator for v in (m2, m3))
        skewness = Fraction(d3 / (d2 * d2.sqrt()))
    return {"skewness": skewness, "excess_kurtosis": m4 / m2 ** 2 - 3}


def _exact_values(args, rows: list) -> list:
    """``(label, printed value, exact value)`` of every engine or route value in ``rows``.

    The exact value is the library's in exact mode at the double ``p`` the
    command ran with: the DP oracle for a waiting-time pmf, the run-count
    engine's own record for a run count, the ``pgf`` route for a moment.
    """
    p = Fraction(args.p) if "/" in args.p or args.exact else Fraction(float(args.p))
    params = RunParams(args.k, args.r, p)
    variant = VariantSpec.parse(args.variant)
    if args.command == "moments":
        kind, scheme = MomentKind(args.kind), IndexScheme(args.scheme)
        central = kind is MomentKind.CENTRAL
        ms = moments_via_route(params, MomentRoute.PGF, kind, scheme,
                               max(args.order_max, 4) if central else args.order_max, variant)
        exact = {str(j): ms.value(j) for j in range(1, ms.order_max + 1)}
        exact.update(_shape(ms) if central else {})
        return [(f"order {row['order']}", row["value"], exact[row["order"]]) for row in rows]
    columns = ([("value", f"{args.engine}@{args.scheme}")] if args.command == "pmf" else
               [(c, c) for c in rows[0] if c not in ("n", "max_abs_diff")])
    n_max = max(int(row["n"]) for row in rows)
    dp = dp_waiting_time_pmf(params, CountingSemantics.from_variant(variant),
                             n_max + params.r * params.k)  # n_max of either scheme
    out = []
    for column, label in columns:
        engine, _, scheme = label.partition("@")
        spec = ENGINES[PmfEngine(engine)]
        for row in rows:
            n = int(row["n"])
            if spec.family is EngineFamily.COUNTS:
                exact = spec.evaluate(params, n, n, 0, None)[0]
            else:
                exact = dp.value(convert_index(n, IndexScheme(scheme), IndexScheme.FULL, params))
            out.append((f"{label} n={n}", row[column], exact))
    return out


# the Monte Carlo output and the deliberately mismatched comparison hold no such values
VALUED = [(argv, name) for argv, (name, _) in zip(COMMANDS, GOLDEN)
          if name not in ("simulate", "compare-mismatch")]


@pytest.mark.parametrize("argv, name", VALUED, ids=[name for _, name in VALUED])
def test_golden_values_are_within_1e_11_of_the_exact_values(argv, name):
    args = cli.build_parser().parse_args(argv)
    rows = list(csv.DictReader(line for line in _golden(name).splitlines()
                               if not line.startswith("#")))
    checked = _exact_values(args, rows)
    assert len(checked) >= len(rows)
    off = [(label, printed, float(exact)) for label, printed, exact in checked
           if abs(Fraction(printed) - exact) > abs(exact) * Fraction(1, 10 ** 11)]
    assert not off, f"{name}: values off the exact ones by more than 1e-11 relative: {off}"
