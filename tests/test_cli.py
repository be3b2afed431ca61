import json

from runsdist import cli


def run_cli(capsys, *args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


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
