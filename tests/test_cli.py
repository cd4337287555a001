"""Command-line surface: parsing, outputs, reproducibility, exit codes."""

import json

import pytest

from recallci import cli, core
from recallci.cli import main
from recallci.intervals import METHODS, POSTERIOR_METHODS
from recallci.scenarios import builtin_scenario

PROBLEM_CSV = """segment,stratum,population,sample,relevant
retrieved,all,2000,100,50
unretrieved,all,100000,100,3
"""

STRATIFIED_CSV = """segment,stratum,population,sample,relevant
retrieved,a,1000,50,25
retrieved,b,1000,50,10
unretrieved,bottom,100000,100,3
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.csv"
    path.write_text(PROBLEM_CSV)
    return str(path)


class TestInterval:
    def test_single_method_record(self, problem_file, capsys):
        rc = main(
            [
                "interval",
                "--input",
                problem_file,
                "--method",
                "betabin-half",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        rec = records[0]
        assert rec["method"] == "betabin-half"
        assert rec["point"] == pytest.approx(0.25)
        assert 0.0 <= rec["lower"] <= rec["upper"] <= 1.0
        assert rec["seed"] == 7
        assert rec["draws"] == 40_000

    def test_repeat_runs_byte_identical(self, problem_file, capsys):
        argv = [
            "interval",
            "--input",
            problem_file,
            "--method",
            "betabin-half,beta-jeffreys",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_inline_counts(self, capsys):
        rc = main(
            [
                "interval",
                "--retrieved",
                "2000,100,50",
                "--unretrieved",
                "100000,100,3",
                "--method",
                "koopman",
            ]
        )
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["method"] == "koopman"

    def test_koopman_stratified_fails(self, tmp_path, capsys):
        path = tmp_path / "stratified.csv"
        path.write_text(STRATIFIED_CSV)
        rc = main(["interval", "--input", str(path), "--method", "koopman"])
        assert rc != 0
        assert "stratified" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "csv_text, methods",
        [
            (PROBLEM_CSV, list(METHODS)),
            (STRATIFIED_CSV, [m for m in METHODS if m != "koopman"]),
        ],
        ids=["single-stratum", "stratified"],
    )
    def test_posterior_methods_need_no_seed(self, tmp_path, capsys, csv_text, methods):
        # Bounds are the same bits without a seed and at any seed and draw count.
        path = tmp_path / "problem.csv"
        path.write_text(csv_text)
        base = ["interval", "--input", str(path), "--method", ",".join(methods)]
        runs = []
        for extra in ([], ["--seed", "1", "--draws", "1000"], ["--seed", "987", "--draws", "250000"]):
            assert main(base + extra) == 0
            records = json.loads(capsys.readouterr().out)
            assert [r["method"] for r in records] == methods
            runs.append([(repr(r["lower"]), repr(r["upper"])) for r in records])
            if not extra:
                assert all(r["draws"] is None and r["seed"] is None for r in records)
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "betabin-half", "--seed", "1"],
            ["--method", "koopman", "--seed", "1"],
            ["--method", "betabin-half"],
            [],
        ],
        ids=["posterior-seeded", "koopman-only", "no-seed", "defaults-no-seed"],
    )
    def test_too_few_draws_rejected_on_every_call(self, problem_file, capsys, extra):
        rc = main(["interval", "--input", problem_file, "--draws", "500", *extra])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: Monte Carlo interval estimation needs at least 1000 draws" in out.err

    def test_unretrieved_with_input_rejected(self, problem_file, capsys):
        with pytest.raises(SystemExit, match="--unretrieved"):
            main(["interval", "--input", problem_file, "--unretrieved", "5,5,5",
                  "--method", "normal-mle"])
        assert capsys.readouterr().out == ""

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text(
            "segment,stratum,population,sample,relevant\n"
            "retrieved,all,2000,100,50\n"
            "unretrieved,all,1000,2000,3\n"
        )
        rc = main(["interval", "--input", str(path), "--method", "wald"])
        assert rc == 2  # argparse rejects the unknown method first
        # now with a valid method: the bad row must be named with its line
        rc = main(["interval", "--input", str(path), "--method", "normal-mle"])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err


# Problem CSVs that ``recallci interval --input`` must refuse, with the line the
# message names (None where the parser names none).
BAD_PROBLEMS = {
    "empty": ("", None),
    "header": ("segment,stratum,size,sample,relevant\nretrieved,all,20,10,5\n", 1),
    "fields": (PROBLEM_CSV + "unretrieved,extra,100,10\n", 4),
    "segment": (PROBLEM_CSV.replace("unretrieved,all", "missed,all"), 3),
    "counts": (PROBLEM_CSV.replace("100000,100,3", "100000,100,3.0"), 3),
    "no-strata": ("".join(PROBLEM_CSV.splitlines(keepends=True)[:2]), None),
}


class TestOutsideInput:
    @pytest.mark.parametrize("name", BAD_PROBLEMS)
    def test_bad_problem_csv_rejected(self, tmp_path, capsys, name):
        text, line = BAD_PROBLEMS[name]
        path = tmp_path / "problem.csv"
        path.write_text(text)
        assert main(["interval", "--input", str(path), "--method", "koopman"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {path}: ")
        assert (f"line {line}:" in out.err) == (line is not None)

    def test_blank_rows_skipped(self, tmp_path, capsys, problem_file):
        path = tmp_path / "blank_rows.csv"
        header, *rows = PROBLEM_CSV.splitlines(keepends=True)
        path.write_text(header + "\n" + rows[0] + " , ,,, \n" + rows[1] + "\n")
        outputs = []
        for source in (problem_file, str(path)):
            assert main(["interval", "--input", source, "--method", "koopman"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("level", ["0", "1", "-0.5", "1.5", "nan", "high"])
    def test_level_outside_unit_interval_is_a_usage_error(self, capsys, level):
        with pytest.raises(SystemExit) as exc:
            main(["interval", "--retrieved", "20,10,5", "--unretrieved", "200,10,1",
                  "--level", level])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --level: " in err
        if level != "high":
            assert "confidence level must lie strictly inside (0, 1)" in err

    def test_retrieved_needs_three_counts(self, capsys):
        rc = main(["interval", "--retrieved", "20,10", "--unretrieved", "200,10,1"])
        assert rc == 2
        assert "--retrieved must be 3 comma-separated integers" in capsys.readouterr().err

    def test_trailing_comma_in_method_list(self, capsys):
        base = ["interval", "--retrieved", "20,10,5", "--unretrieved", "200,10,1", "--method"]
        assert main(base + ["koopman,normal-mle,"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in records] == ["koopman", "normal-mle"]

    def test_design_unknown_method_writes_nothing(self, tmp_path, capsys):
        out_csv = tmp_path / "widths.csv"
        rc = main(["design", "--truth", "500,250,4500,250", "--budget", "200", "--seed", "1",
                   "--method", "nope", "--output", str(out_csv)])
        assert rc == 1
        assert "error: unknown method 'nope'" in capsys.readouterr().err
        assert not out_csv.exists()


class TestCoverage:
    def test_small_run_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "cov.csv"
        json_path = tmp_path / "cov.json"
        rc = main(
            [
                "coverage",
                "--scenario",
                "small",
                "--realizations",
                "2",
                "--samples",
                "20",
                "--seed",
                "1",
                "--method",
                "normal-mle,betabin-half",
                "--draws",
                "1000",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "betabin-half" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# scenario=small")
        assert lines[1] == "method,realization,coverage,above,below,width"
        assert len(lines) == 2 + 2 * 2  # header lines + methods x realizations
        summary = json.loads(json_path.read_text())
        assert summary["master_seed"] == 1
        assert set(summary["per_method"]) == {"normal-mle", "betabin-half"}

    def test_zero_realizations_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "coverage",
                    "--scenario",
                    "small",
                    "--realizations",
                    "0",
                    "--seed",
                    "1",
                ]
            )
        assert excinfo.value.code == 2

    def test_seed_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "--scenario", "small", "--realizations", "1"])
        assert excinfo.value.code == 2


class TestScenario:
    def test_draw_realizations(self, capsys):
        rc = main(["scenario", "--scenario", "small", "--count", "3", "--seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# scenario=small")
        assert out[1].startswith("realization,")
        assert len(out) == 2 + 3

    def test_lists_the_realizations_the_coverage_study_draws(self, capsys, monkeypatch):
        # Realization i of `scenario --seed 9` is realization i of a coverage
        # study at master seed 9: the same stream key in both commands.
        from recallci import evaluation

        studied = []
        draw = evaluation.sample_realization

        def recording(spec, stream):
            studied.append(draw(spec, stream))
            return studied[-1]

        monkeypatch.setattr(evaluation, "sample_realization", recording)
        config = evaluation.EvalConfig(
            master_seed=9, realizations=3, samples_per_realization=5, methods=("normal-mle",)
        )
        evaluation.evaluate_coverage(builtin_scenario("small"), config)
        assert main(["scenario", "--scenario", "small", "--count", "3", "--seed", "9"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows == [
            f"{i},{t.retrieved_size},{t.unretrieved_size},{t.retrieved_yield},"
            f"{t.unretrieved_yield},{d.retrieved_sample},{d.unretrieved_sample},{t.recall!r}"
            for i, (t, d) in enumerate(studied)
        ]

    def test_custom_config(self, tmp_path, capsys):
        config = tmp_path / "custom.scenario"
        config.write_text(
            "N = uniform(300, 500)\n"
            "pi = uniform(0.2, 0.4)\n"
            "rec = uniform(0.3, 0.9)\n"
            "prec = uniform(0.3, 0.9)\n"
            "n1 = N1 * uniform(0.2, 0.4)\n"
            "n0 = N0 * uniform(0.2, 0.4)\n"
        )
        rc = main(
            ["scenario", "--scenario-config", str(config), "--count", "2", "--seed", "3"]
        )
        assert rc == 0
        assert "custom" in capsys.readouterr().out


class TestBias:
    def test_audit_world(self, tmp_path, capsys):
        out_csv = tmp_path / "dist.csv"
        rc = main(
            [
                "bias",
                "--truth",
                "2000,1000,100000,3000",
                "--design",
                "100,100",
                "--output",
                str(out_csv),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "true 0.250000" in out
        assert "mean 0.314" in out
        rows = [
            line for line in out_csv.read_text().splitlines() if not line.startswith("#")
        ]
        assert rows[0] == "estimate,probability"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_enumerates_the_distribution_once(self, monkeypatch, capsys):
        calls = []
        enumerate_once = core.exact_sampling_distribution

        def counted(*args):
            calls.append(args)
            return enumerate_once(*args)

        monkeypatch.setattr(core, "exact_sampling_distribution", counted)
        monkeypatch.setattr(cli, "exact_sampling_distribution", counted)
        assert main(["bias", "--truth", "2000,1000,100000,3000", "--design", "100,100"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            "true 0.250000  mean 0.314225  bias +0.064225  undefined_mass 2.765907e-33\n"
        )

    def test_census_has_zero_bias(self, capsys):
        rc = main(["bias", "--truth", "50,20,200,30", "--design", "50,200"])
        assert rc == 0
        assert "bias +0.000000" in capsys.readouterr().out

    def test_oversize_enumeration_rejected(self, capsys):
        rc = main(
            ["bias", "--truth", "100000,1000,100000,1000", "--design", "20000,100"]
        )
        assert rc == 1
        assert "10000" in capsys.readouterr().err


class TestDesign:
    def test_curve_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "widths.csv"
        rc = main(
            [
                "design",
                "--truth",
                "500,250,4500,250",
                "--budget",
                "200",
                "--allocations",
                "50,100,150",
                "--method",
                "betabin-half",
                "--seed",
                "4",
                "--samples",
                "10",
                "--output",
                str(out_csv),
            ]
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[1] == "n1,width"
        assert len(lines) == 2 + 3
        assert "minimal expected width" in capsys.readouterr().out

    def test_samples_with_nothing_relevant_count_as_width_one(self, capsys):
        # At 20 samples, some hold no relevant document in either segment;
        # naive-binomial has no interval for them, and they count as [0, 1].
        rc = main(
            [
                "design", "--truth", "500000,20,4500000,5", "--budget", "400", "--seed", "5",
                "--samples", "20", "--grid", "3", "--method", "naive-binomial",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        widths = [float(line.split(",")[1]) for line in lines[2:-1]]
        assert len(widths) == 3 and all(0.0 < w <= 1.0 for w in widths)

    def test_no_feasible_grid_allocation_rejected_before_output(self, capsys):
        rc = main(["design", "--truth", "10,5,10,5", "--budget", "1000", "--seed", "1"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "no feasible allocation of 1000 samples" in out.err

    def test_non_integer_allocations_are_a_usage_error(self, capsys):
        argv = ["design", "--truth", "500,250,4500,250", "--budget", "200", "--seed", "1",
                "--allocations"]
        assert main(argv + ["10,x"]) == 2
        assert "--allocations" in capsys.readouterr().err
        assert main(argv + ["10,300"]) == 1
        assert "infeasible allocation" in capsys.readouterr().err


class TestBinom:
    def test_coverage_curve_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        rc = main(
            [
                "binom",
                "--method",
                "wilson",
                "--n",
                "20",
                "--points",
                "199",
                "--output",
                str(out_csv),
            ]
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[1] == "pi,coverage"
        assert len(lines) == 2 + 199
        assert "mean coverage 0.95" in capsys.readouterr().out


class TestMonteCarloSeeding:
    def test_bounds_do_not_depend_on_method_position(self, capsys):
        base = ["interval", "--retrieved", "200000,300,120", "--unretrieved",
                "9000000,400,11", "--seed", "7", "--draws", "2000"]
        assert main(base) == 0
        nine = {r["method"]: r for r in json.loads(capsys.readouterr().out)}
        for method in POSTERIOR_METHODS:
            assert main(base + ["--method", method]) == 0
            assert json.loads(capsys.readouterr().out) == [nine[method]]
        assert main(base + ["--method", "koopman,betabin-half"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == [nine["koopman"], nine["betabin-half"]]


class TestSharedParser:
    """``main`` reuses one parser; results match a fresh parser per call."""

    CALLS = (
        ["interval", "--retrieved", "2000,100,50", "--unretrieved", "100000,100,3",
         "--method", "koopman,normal-mle"],
        ["coverage", "--scenario", "small", "--realizations", "0", "--seed", "1"],
        ["interval", "--retrieved", "200,100,50", "--unretrieved", "1000,100,3",
         "--method", "betabin-half", "--seed", "3", "--draws", "2000"],
        ["binom", "--method", "wilson", "--n", "5", "--points", "9"],
        ["bias", "--truth", "50,20,100,10", "--design", "10,10"],
        ["interval", "--retrieved", "2000,100,50", "--method", "koopman"],
        ["scenario", "--scenario", "legal", "--count", "2", "--seed", "4"],
        ["interval", "--retrieved", "2000,100,0", "--unretrieved", "100000,100,0",
         "--method", "naive-binomial"],
    )

    @staticmethod
    def outcomes(capsys, fresh):
        from recallci import cli

        results = []
        for argv in TestSharedParser.CALLS:
            if fresh:
                cli._shared_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    def test_successive_calls_match_fresh_parsers(self, capsys):
        shared = self.outcomes(capsys, fresh=False)
        fresh = self.outcomes(capsys, fresh=True)
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert ("exit", 2) in codes  # the usage error, followed by valid calls
        assert codes[2] == 0 and codes[3] == 0
