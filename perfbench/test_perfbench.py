"""Tests of the benchmark's own helpers: statistics, spans, op accounting,
references and inputs.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, stats  # noqa: E402
from perfbench.tracing import Span, Tracer, self_times, span_cost  # noqa: E402
from perfbench.workloads import WORKLOADS, build_audits, load_data, pinned_variables  # noqa: E402


class TestTail:
    @pytest.mark.parametrize(
        "n, expected",
        [(10, None), (20, 50.0), (24, 58.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert stats.tail_percentile(n) == expected

    def test_ten_samples_lie_beyond_the_tail(self):
        values = [float(v) for v in range(1, 201)]
        summary = stats.latency_summary(values[::-1])
        assert summary["tail_percentile"] == 95.0
        assert summary["n"] == 200
        assert sum(v > summary["tail"] for v in values) == 10
        assert summary["p50"] == pytest.approx(100.5, abs=0.01)

    def test_small_sample_falls_back_to_median(self):
        summary = stats.latency_summary([5.0, 1.0, 3.0, 2.0, 4.0] * 3)
        assert summary["tail_percentile"] == 50.0
        assert summary["tail"] == summary["p50"] == pytest.approx(3.0)

    def test_median_moves_smoothly_between_neighbouring_costs(self):
        panel = [0.2, 0.4, 0.7, 0.8, 1.2, 1.7]
        low = stats.latency_summary(panel * 2)["p50"]
        high = stats.latency_summary([v * 1.01 for v in panel] * 2)["p50"]
        assert high / low == pytest.approx(1.01)


class TestSelfTime:
    def test_children_and_overlap_are_subtracted_once(self):
        spans = [
            Span(0, None, 1, "outer", 0.0, 10.0),
            Span(1, 0, 1, "inner", 1.0, 3.0),
            Span(2, 0, 1, "inner", 2.0, 4.0),
            Span(3, 0, 1, "leaf", 5.0, 6.0),
            Span(4, 1, 1, "leaf", 1.5, 2.5),
        ]
        times = self_times(spans)
        assert times["outer"] == (1, pytest.approx(6.0))
        assert times["inner"] == (2, pytest.approx(1.0 + 2.0))
        assert times["leaf"] == (2, pytest.approx(2.0))

    def test_tracer_records_parent_and_op(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, lambda x: f"outer.{x}")
        tracer.op_id = 7
        assert outer(3) == 8
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer.3"].span_id
        assert by_name["outer.3"].parent_id is None
        assert {s.op_id for s in tracer.spans} == {7}

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap(boom, "boom")()
        assert [s.name for s in tracer.spans] == ["boom"]
        assert tracer.wrap(lambda: 1, "after")() == 1
        assert tracer.spans[-1].parent_id is None

    def test_span_cost_is_small_and_nonnegative(self):
        assert 0.0 <= span_cost(2000) < 1e-3

    def test_patch_missing_target_is_reported_not_raised(self):
        tracer = Tracer()
        assert tracer.patch("perfbench.stats:no_such_function", "x") is False
        assert tracer.patch("perfbench.stats:OpTally.no_such_method", "x") is False
        original = stats.tail_percentile
        assert tracer.patch("perfbench.stats:tail_percentile", "stats.tail_percentile")
        assert stats.tail_percentile(20) == 50.0
        tracer.restore()
        assert stats.tail_percentile is original
        assert [s.name for s in tracer.spans] == ["stats.tail_percentile"]


class TestOpAccounting:
    ZERO_ERR = "error: naive binomial interval needs at least one sampled relevant document"
    STRATIFIED_ERR = (
        "error: the koopman interval does not extend to stratified sampling; "
        "each segment must be a single stratum\n"
    )

    @pytest.mark.parametrize(
        "kind, rc, err, outcome",
        [
            ("single", 0, "", "ok"),
            ("stratified", 0, "", "ok"),
            ("stratified", 1, STRATIFIED_ERR, "rejected"),
            ("zero", 1, ZERO_ERR, "rejected"),
            ("single", 1, STRATIFIED_ERR, "failed"),
            ("stratified", 1, "error: something else", "failed"),
            ("stratified", 2, STRATIFIED_ERR, "failed"),
            ("single", None, "Traceback ...", "failed"),
        ],
    )
    def test_classify_audit(self, kind, rc, err, outcome):
        assert checks.classify_audit(kind, rc, "", err) == outcome

    def test_tally_counts_attempted_and_keeps_reasons(self):
        tally = stats.OpTally()
        tally.record("ok", 3)
        tally.record("rejected")
        tally.record("failed", 2, "boom")
        assert (tally.ok, tally.rejected, tally.failed, tally.attempted) == (3, 1, 2, 6)
        assert tally.failures == ["boom"]
        with pytest.raises(ValueError):
            tally.record("lost")


PROBLEMS = [
    ([(2000, 100, 50)], [(100000, 100, 3)]),
    ([(177252, 1042, 1030)], [(312453, 3082, 640)]),
    ([(5000, 40, 0)], [(900000, 800, 4)]),
    ([(5000, 40, 12)], [(900000, 800, 0)]),
    ([(1000, 50, 25), (1000, 50, 10)], [(100000, 100, 3)]),
]


def _library_problem(problem):
    from recallci import RecallProblem, SegmentData, StratumCounts

    ret, unret = (
        SegmentData(tuple(StratumCounts(*s) for s in strata), label)
        for strata, label in zip(problem, ("retrieved", "unretrieved"))
    )
    return RecallProblem(ret, unret)


class TestReferences:
    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize(
        "method", ["naive-binomial", "normal-mle", "normal-laplace", "normal-agresti"]
    )
    def test_closed_forms_match_library(self, problem, method):
        from recallci import compute_interval

        interval = compute_interval(method, _library_problem(problem), 0.95)
        lower, upper = checks.closed_form_bounds(method, problem, 0.95)
        assert abs(interval.lower - lower) <= checks.CLOSED_FORM_TOL
        assert abs(interval.upper - upper) <= checks.CLOSED_FORM_TOL

    @pytest.mark.parametrize("problem", PROBLEMS[:4])
    def test_koopman_matches_library_within_bisection_tolerance(self, problem):
        from recallci import koopman_interval

        interval = koopman_interval(_library_problem(problem), 0.95)
        (lower, tol_lo), (upper, tol_hi) = checks.koopman_bounds(problem, 0.95)
        assert abs(interval.lower - lower) <= tol_lo
        assert abs(interval.upper - upper) <= tol_hi

    def test_check_records_flags_a_shifted_bound(self):
        from recallci import MonteCarloConfig, RandomStream, compute_interval, interval_record

        problem = PROBLEMS[0]
        records = []
        for m in checks.NINE_METHODS:
            config = None
            if m in checks.MONTE_CARLO:
                config = MonteCarloConfig(rng=RandomStream(5), draws=4000)
            interval = compute_interval(m, _library_problem(problem), 0.95, config)
            records.append(interval_record(interval, config))
        records = json.loads(json.dumps(records))
        assert checks.check_records(records, problem, 0.95, 5, 4000) == []
        rng = np.random.default_rng(0)
        from recallci import most_conservative_prior

        def mc_check():
            return checks.check_mc_records(
                records, problem, 0.95, 50_000, rng, most_conservative_prior
            )

        assert mc_check() == []
        records[1]["lower"] += 1e-6
        shifted = checks.check_records(records, problem, 0.95, 5, 4000)
        assert any("normal-mle" in msg for msg in shifted)
        records[5]["lower"] = records[5]["upper"]
        assert any("beta-jeffreys" in msg for msg in mc_check())

    def test_mc_bound_check_uses_both_sides_of_an_atom(self):
        reference = np.sort(np.repeat([0.1, 0.2, 0.3, 0.4], 25_000))
        assert checks.check_mc_bound(0.1, reference, 0.2, 40_000) is None
        assert checks.check_mc_bound(0.2, reference, 0.2, 40_000) is not None
        assert checks.check_mc_bound(0.2, reference, 0.3, 40_000) is None
        assert checks.check_mc_bound(0.1, reference, 0.3, 40_000) is not None

    def test_study_row_invariants(self):
        assert checks.check_study_row("m", (0.9, 0.05, 0.05, 0.0, 0.3)) == []
        assert checks.check_study_row("m", (0.0, 0.0, 0.0, 1.0, math.nan)) == []
        assert checks.check_study_row("m", (0.9, 0.05, 0.04, 0.0, 0.3))
        assert checks.check_study_row("m", (0.9, 0.05, 0.05, 0.0, 1.3))


class TestInputs:
    def test_pinned_spec_reproduces_the_realization(self):
        from recallci import RandomStream, ScenarioSpec, builtin_scenario, sample_realization
        from recallci.scenarios import sample_realization_with_variables

        for name in ("neutral", "legal", "small"):
            variables, truth, design = sample_realization_with_variables(
                builtin_scenario(name), RandomStream(3).substream(1)
            )
            pinned = ScenarioSpec("pinned", pinned_variables(variables))
            assert sample_realization(pinned, RandomStream(99)) == (truth, design)

    def test_audits_are_seeded_and_mixed(self):
        data = load_data()
        config = WORKLOADS["audit"]
        first = build_audits(data, config, 4, 0)
        assert first == build_audits(data, config, 4, 0)
        assert first != build_audits(data, config, 5, 0)
        kinds = [a.kind for a in first]
        assert kinds.count("stratified") == config["audits_per_pass"] // config["stratified_every"]
        for audit in first:
            for population, sample, relevant in audit.problem[0] + audit.problem[1]:
                assert 0 <= relevant <= sample <= population

    def test_benchmark_json_names_the_reported_metrics(self):
        from perfbench.run import END_TO_END, PER_LAYER

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
