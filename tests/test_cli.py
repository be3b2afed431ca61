import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from runsdist import cli, moments, oracle
from runsdist.core import IndexScheme, MomentKind, RunParams, VariantSpec
from runsdist.moments import MomentRoute, mean, moments_via_route, variance
from runsdist.oracle import CountingMode, CountingSemantics, dp_waiting_time

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


ENGINE_IDS = ("recurrence-pg", "recurrence-ch", "fullsum-ch", "nested-sum", "hyp-sum",
              "pgf-expansion", "root-based", "muselli-original", "muselli-alt",
              "muselli-counts-original", "muselli-counts-alt")
PARAM_FLAGS = {"--k": (None, None, int, True), "--r": (None, None, int, True),
               "--p": (None, None, None, True), "--exact": (False, None, None, False),
               "--variant": ("type1", None, None, False)}
RANGE_FLAGS = {"--n-min": (None, None, int, True), "--n-max": (None, None, int, True)}
SCHEME_FLAG = {"--scheme": ("full", ("full", "cut"), None, False)}
FORMAT_FLAG = {"--format": ("csv", ("csv", "json"), None, False)}

# option -> (default, choices, type, required), per subcommand
SURFACE = {
    "pmf": {**PARAM_FLAGS, **RANGE_FLAGS, **SCHEME_FLAG, **FORMAT_FLAG,
            "--engine": (None, ENGINE_IDS, None, True)},
    "moments": {**PARAM_FLAGS, **SCHEME_FLAG, **FORMAT_FLAG,
                "--kind": (None, ("factorial", "raw", "central"), None, True),
                "--order-max": (4, None, int, False),
                "--route": ("partition", ("recurrence", "partition", "pgf", "root", "summation"),
                            None, False)},
    "compare": {**PARAM_FLAGS, **RANGE_FLAGS, **SCHEME_FLAG,
                "--engines": (None, None, None, True),
                "--tolerance": (1e-11, None, float, False)},
    "simulate": {**PARAM_FLAGS, "--samples": (None, None, int, True),
                 "--seed": (0, None, int, False)},
}


def test_option_surface():
    """Every subcommand keeps its option names, defaults, choices, types and required flags."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(SURFACE)
    for command, sub in subs.choices.items():
        got = {a.option_strings[0]: (a.default, None if a.choices is None else tuple(a.choices),
                                     a.type, a.required)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert all(len(a.option_strings) == 1 for a in sub._actions[1:]), command
        assert got == SURFACE[command], command


class TestPmfCommand:
    def test_exact_fraction_rows(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1/2",
                               "--n-min", "2", "--n-max", "5",
                               "--engine", "recurrence-pg", "--scheme", "full")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,r,p,scheme,variant,engine,n,value"
        values = [line.split(",")[-1] for line in lines[1:]]
        assert values == ["1/4", "1/8", "1/8", "3/32"]

    def test_exact_flag_promotes_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "0.5",
                               "--exact", "--n-min", "5", "--n-max", "5",
                               "--engine", "nested-sum")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",3/32")

    def test_muselli_type2(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "1", "--r", "1", "--p", "0.5",
                               "--n-min", "1", "--n-max", "1",
                               "--engine", "muselli-alt", "--variant", "type2")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",0.5")

    def test_unknown_engine_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "0.5",
                               "--n-min", "2", "--n-max", "3",
                               "--engine", "bogus")
        assert code == 2
        assert "recurrence-pg" in err  # the message lists the valid ids

    def test_bad_p_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1.5",
                             "--n-min", "2", "--n-max", "3",
                             "--engine", "recurrence-pg")
        assert code == 2

    def test_nan_value_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "pmf", "--k", "1", "--r", "1", "--p", "5e-324",
                                 "--n-min", "1", "--n-max", "3",
                                 "--engine", "recurrence-pg")
        assert code == 2
        assert out == ""
        assert "pmf: RecurrenceUnderflow: " in err

    def test_unparseable_p_exits_2(self, capsys):
        for text in ("abc", "1/0"):
            code, _, err = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", text,
                                   "--n-min", "2", "--n-max", "3",
                                   "--engine", "recurrence-pg")
            assert code == 2
            assert "Traceback" not in err
            assert "--p" in err

    def test_overlap_too_large_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "0.5",
                             "--n-min", "2", "--n-max", "3",
                             "--engine", "root-based", "--variant", "overlap=2")
        assert code == 2

    def test_engine_variant_mismatch_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "0.5",
                             "--n-min", "2", "--n-max", "3",
                             "--engine", "recurrence-pg", "--variant", "type2")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1/2",
                               "--n-min", "2", "--n-max", "3",
                               "--engine", "hyp-sum", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == "1/4"
        assert rows[1]["n"] == 3
        # field names are part of the output contract
        assert list(rows[0]) == ["k", "r", "p", "scheme", "variant",
                                 "engine", "n", "value"]

    def test_float_values_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "3", "--r", "2", "--p", "0.3",
                               "--n-min", "6", "--n-max", "9",
                               "--engine", "pgf-expansion")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            v = line.split(",")[-1]
            assert float(v) == float(repr(float(v)))

    def test_counts_engine(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1/2",
                               "--n-min", "3", "--n-max", "3",
                               "--engine", "muselli-counts-alt",
                               "--variant", "type2")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",3/8")

    def test_counts_engine_rejects_cut_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1/2",
                               "--n-min", "3", "--n-max", "3",
                               "--engine", "muselli-counts-alt",
                               "--variant", "type2", "--scheme", "cut")
        assert code == 2
        assert out == ""

    def test_counts_engine_rejects_reversed_range(self, capsys):
        code, out, err = run_cli(capsys, "pmf", "--k", "2", "--r", "1", "--p", "1/2",
                                 "--n-min", "5", "--n-max", "3",
                                 "--engine", "muselli-counts-alt", "--variant", "type2")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


class TestMomentsCommand:
    def test_factorial_partition_mean(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "1",
                               "--p", "1/2", "--kind", "factorial",
                               "--order-max", "1", "--route", "partition",
                               "--scheme", "full")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",1,6")

    def test_central_includes_shape_rows(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "1",
                               "--p", "0.5", "--kind", "central",
                               "--order-max", "2", "--route", "recurrence")
        assert code == 0
        lines = out.strip().splitlines()
        order2 = [l for l in lines if ",2," in l][0]
        assert abs(float(order2.split(",")[-1]) - 22) < 1e-9
        assert any("skewness" in l for l in lines)
        assert any("excess_kurtosis" in l for l in lines)

    def test_overlap_moments_via_root(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "2",
                               "--p", "0.5", "--kind", "factorial",
                               "--order-max", "2", "--route", "root",
                               "--variant", "overlap=1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_overlap_requires_root_route(self, capsys):
        code, _, _ = run_cli(capsys, "moments", "--k", "2", "--r", "2",
                             "--p", "0.5", "--kind", "factorial",
                             "--order-max", "2", "--route", "partition",
                             "--variant", "overlap=1")
        assert code == 2

    def test_cut_scheme_rejected_for_root_route(self, capsys):
        code, _, _ = run_cli(capsys, "moments", "--k", "2", "--r", "1",
                             "--p", "0.5", "--kind", "factorial",
                             "--order-max", "2", "--route", "root",
                             "--scheme", "cut")
        assert code == 2

    def test_gap_mean(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "3",
                               "--p", "1/2", "--kind", "factorial",
                               "--order-max", "1", "--route", "partition",
                               "--variant", "gap=2")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",1,22")


    def test_type2_via_pgf(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "3",
                               "--p", "1/2", "--kind", "factorial",
                               "--order-max", "1", "--route", "pgf",
                               "--variant", "type2")
        assert code == 0
        # r * mean(k, 1, p) + (r - 1) / q = 3 * 6 + 2 * 2
        assert out.strip().splitlines()[1].endswith(",1,22")

    def test_overlap_central_via_pgf(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--k", "2", "--r", "2",
                               "--p", "0.5", "--kind", "central",
                               "--order-max", "2", "--route", "pgf",
                               "--variant", "overlap=1")
        assert code == 0
        params = RunParams(2, 2, Fraction(1, 2))
        fm = moments_via_route(params, MomentRoute.PGF, MomentKind.FACTORIAL, IndexScheme.FULL,
                               2, VariantSpec.with_overlap(1))
        var = fm.value(2) + fm.value(1) - fm.value(1) ** 2
        lines = out.strip().splitlines()
        assert lines[2].endswith(f",2,{float(var)!r}")
        assert any("skewness" in line for line in lines)

    def test_pgf_route_at_small_p_matches_partition(self, capsys):
        # the truncated float sum this route replaced did not finish here
        args = ["moments", "--k", "6", "--r", "1", "--p", "0.1", "--kind", "factorial"]
        code, out, _ = run_cli(capsys, *args, "--route", "pgf")
        assert code == 0
        _, want, _ = run_cli(capsys, *args, "--route", "partition")
        assert out == want.replace(",partition,", ",pgf,")


class TestCompareCommand:
    def test_all_type1_engines_pass(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--k", "3", "--r", "2",
                               "--p", "0.4", "--n-min", "6", "--n-max", "60",
                               "--engines",
                               "recurrence-pg,recurrence-ch,fullsum-ch,"
                               "nested-sum,hyp-sum,pgf-expansion,root-based",
                               "--tolerance", "1e-11")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("# PASS")

    def test_mismatched_schemes_fail(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--k", "2", "--r", "1",
                               "--p", "0.5", "--n-min", "2", "--n-max", "10",
                               "--engines", "recurrence-pg@full,recurrence-ch@cut",
                               "--tolerance", "1e-11")
        assert code == 1
        assert out.strip().splitlines()[-1].startswith("# FAIL")

    @pytest.mark.parametrize("engines, message", [
        ("nested-sum,bogus", f"unknown engine 'bogus'; valid ids: {', '.join(ENGINE_IDS)}"),
        ("nested-sum,hyp-sum@half", "unknown scheme 'half'"),
    ], ids=["engine", "scheme"])
    def test_unknown_engine_or_scheme_exits_2(self, capsys, engines, message):
        code, out, err = run_cli(capsys, "compare", "--k", "2", "--r", "1", "--p", "0.5",
                                 "--n-min", "2", "--n-max", "10", "--engines", engines)
        assert code == 2
        assert out == ""
        assert err.rstrip().endswith(f"error: --engines: {message}")

    def test_single_engine_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--k", "2", "--r", "1",
                               "--p", "0.5", "--n-min", "2", "--n-max", "10",
                               "--engines", "recurrence-pg")
        assert code == 2
        assert "at least two" in err


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--k", "2", "--r", "1", "--p", "0.5",
                "--samples", "5000", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_contents(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--k", "2", "--r", "1",
                               "--p", "0.5", "--samples", "20000", "--seed", "3")
        assert code == 0
        assert "analytic_mean=6.0" in out
        assert "analytic_variance=22.0" in out
        header = [l for l in out.splitlines() if l.startswith("n,")]
        assert header == ["n,count,frequency"]

    def test_zero_samples_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--k", "2", "--r", "1",
                             "--p", "0.5", "--samples", "0")
        assert code == 2

    def test_negative_seed_exits_2(self, capsys):
        # exit 1 is reserved for a failed comparison
        code, out, err = run_cli(capsys, "simulate", "--k", "2", "--r", "1",
                                 "--p", "0.5", "--samples", "10", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err


class TestGapAnalytic:
    def test_mean_is_rounded_once(self, capsys):
        # the shift (r-1) g was once added to an already rounded mean
        code, out, _ = run_cli(capsys, "simulate", "--k", "1", "--r", "2", "--p", "0.6",
                               "--samples", "10", "--variant", "gap=1")
        assert code == 0
        params = RunParams(1, 2, Fraction(0.6))
        assert out.splitlines()[2] == (f"# analytic_mean={float(mean(params) + 1)!r} "
                                       f"analytic_variance={float(variance(params))!r}")


class TestTypeIIAnalytic:
    TYPE2 = VariantSpec(type2=True)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.4, 0.6, 0.85])
    def test_matches_dp_sum(self, k, r, p):
        params = RunParams(k, r, p)
        table, deficit = dp_waiting_time(
            params, CountingSemantics(CountingMode.FAILURE_SEPARATED), 3000)
        assert deficit < 1e-15
        mu = sum(n * v for n, v in enumerate(table.values, start=1))
        var = sum(n * n * v for n, v in enumerate(table.values, start=1)) - mu * mu
        got_mu, got_var = cli.analytic_mean_variance(params, self.TYPE2)
        assert got_mu == pytest.approx(mu, rel=1e-11)
        assert got_var == pytest.approx(var, rel=1e-9)

    def test_simulate_k4_returns(self, capsys):
        # the pmf summation this replaces ran for minutes at this point; one
        # run (r = 1) has the Type I mean and variance
        code, out, _ = run_cli(capsys, "simulate", "--k", "4", "--r", "1", "--p", "0.3",
                               "--samples", "1000", "--variant", "type2")
        assert code == 0
        params = RunParams(4, 1, 0.3)
        assert out.splitlines()[2] == (f"# analytic_mean={mean(params)!r} "
                                       f"analytic_variance={variance(params)!r}")


class TestNumericFailures:
    """A numeric failure exits 2 by name; exit 1 is a failed comparison."""

    ILL = ["--k", "3", "--r", "10", "--p", "0.5"]

    @pytest.mark.parametrize("args, name", [
        (["pmf", *ILL, "--n-min", "30", "--n-max", "32", "--engine", "root-based"],
         "IllConditionedSystem"),
        (["moments", *ILL, "--kind", "raw", "--route", "root"], "IllConditionedSystem"),
        (["compare", *ILL, "--n-min", "30", "--n-max", "32", "--engines",
          "nested-sum,root-based"], "IllConditionedSystem"),
        (["pmf", "--k", "80", "--r", "1", "--p", "0.5", "--n-min", "80", "--n-max", "81",
          "--engine", "root-based"], "RootToleranceExceeded"),
        # the float reference series of the root fit breaks its own mass bound
        (["pmf", "--k", "1", "--r", "20", "--p", "0.7", "--n-min", "20", "--n-max", "21",
          "--engine", "root-based"], "ValidationFailed"),
        (["moments", "--k", "1", "--r", "20", "--p", "0.7", "--kind", "raw", "--route", "root"],
         "ValidationFailed"),
    ], ids=["pmf", "moments", "compare", "pmf-k80", "pmf-reference", "moments-reference"])
    def test_named_error_exits_2(self, capsys, args, name):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert f"{args[0]}: {name}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("module, cap, value, args, name", [
        (oracle, "_TRIALS_MAX", 1,
         ["simulate", "--k", "2", "--r", "1", "--p", "0.5", "--samples", "10"],
         "SimulationNotAbsorbed"),
        (moments, "_WINDOW_MAX", 0,
         ["moments", "--k", "2", "--r", "1", "--p", "0.5", "--kind", "raw",
          "--route", "summation"], "SummationWindowNotClosed"),
    ], ids=["simulate", "moments-summation"])
    def test_lowered_cap_exits_2_by_name(self, capsys, monkeypatch, module, cap, value, args,
                                         name):
        monkeypatch.setattr(module, cap, value)
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert f"{args[0]}: {name}: " in err
        assert "Traceback" not in err


class TestLibraryChecks:
    """The CLI parses its flags; a request the library refuses exits 2 with its message."""

    OVERLAP_5 = ["--k", "2", "--r", "1", "--p", "0.5", "--variant", "overlap=5"]

    @pytest.mark.parametrize("args, message", [
        (["moments", "--k", "2", "--r", "1", "--p", "0.5", "--kind", "factorial",
          "--order-max", "0"], "order_max must be >= 1"),
        (["moments", "--k", "2", "--r", "1", "--p", "0.5", "--kind", "central",
          "--order-max", "0"], "order_max must be >= 1"),
        (["moments", *OVERLAP_5, "--kind", "raw", "--route", "root"],
         "overlap must be at most k-1 = 1, got 5"),
        (["compare", *OVERLAP_5, "--n-min", "2", "--n-max", "3",
          "--engines", "nested-sum,root-based"], "overlap must be at most k-1 = 1, got 5"),
        (["simulate", *OVERLAP_5, "--samples", "10"], "overlap must be at most k-1 = 1, got 5"),
        (["simulate", "--k", "2", "--r", "1", "--p", "0.5", "--samples", "2147483648"],
         "samples must be below 2**31"),
        (["pmf", "--k", "2", "--r", "1", "--p", "0.5", "--n-min", "2", "--n-max", "3",
          "--engine", "nested-sum", "--variant", "bogus"],
         "unknown variant 'bogus'; expected type1, type2, overlap=L with an integer L >= 0 "
         "or gap=G with an integer G >= 1"),
    ], ids=["order-max-factorial", "order-max-central", "overlap-moments", "overlap-compare",
            "overlap-simulate", "samples-simulate", "variant-pmf"])
    def test_refused_request_exits_2(self, capsys, args, message):
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.rstrip().endswith(f"error: {message}")
        assert "Traceback" not in err


def _fresh_run(*commands, openblas=None):
    """Run CLI commands in a fresh interpreter, ``OPENBLAS_NUM_THREADS`` set to ``openblas``
    or absent; which of numpy and roots are loaded afterwards, what that variable reads,
    and how many threads the process has (None where ``/proc`` does not list them)?"""
    script = (
        "import contextlib, io, json, os, sys\n"
        "import runsdist, runsdist.cli\n"
        f"for argv in {list(commands)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert runsdist.cli.main(argv) == 0, argv\n"
        "tasks = '/proc/self/task'\n"
        "print(json.dumps([[m for m in ('numpy', 'runsdist.roots') if m in sys.modules],\n"
        "                  os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))\n")
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, threads_env, threads = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), threads_env, threads


class TestNumpyLoading:
    PARAMS = ["--k", "2", "--r", "2", "--p", "2/5"]

    def test_import_and_exact_commands_leave_numpy_unloaded(self):
        assert _fresh_run()[0] == set()
        assert _fresh_run(
            ["pmf", *self.PARAMS, "--n-min", "4", "--n-max", "9", "--engine", "nested-sum"],
            ["moments", *self.PARAMS, "--kind", "raw", "--route", "partition"])[0] == set()

    @pytest.mark.parametrize("command", [
        ["simulate", "--k", "2", "--r", "1", "--p", "0.5", "--samples", "10"],
        ["moments", "--k", "2", "--r", "2", "--p", "0.4", "--kind", "factorial",
         "--route", "root"],
    ])
    def test_numeric_commands_load_numpy(self, command):
        assert "numpy" in _fresh_run(command)[0]


class TestBlasThreads:
    ROOT = ["moments", "--k", "2", "--r", "2", "--p", "0.4", "--kind", "factorial",
            "--route", "root"]

    def test_cli_starts_openblas_on_one_thread(self):
        modules, threads_env, threads = _fresh_run(self.ROOT)
        assert "numpy" in modules and threads_env == "1"
        assert threads in (None, 1)  # set before numpy loaded, so no worker threads

    def test_a_value_the_user_set_wins(self):
        assert _fresh_run(self.ROOT, openblas="2")[1] == "2"
