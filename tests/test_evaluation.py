"""Coverage harness accounting, determinism, and design tools."""

import numpy as np
import pytest

from recallci.core import RealizationTruth
from recallci.evaluation import (
    CoverageReport,
    EvalConfig,
    closest_coverage_shares,
    coverage_rmse,
    design_width_curve,
    evaluate_coverage,
    width_vs_sample_size,
)
from recallci.intervals import METHODS
from recallci.scenarios import builtin_scenario
from recallci.streams import RandomStream

FAST_METHODS = ("naive-binomial", "normal-mle", "koopman", "betabin-half")
FIELDS = ("coverage", "upper_gap", "lower_gap", "undefined", "mean_width")


def small_eval(methods=FAST_METHODS, realizations=5, samples=40, seed=42, workers=1):
    return evaluate_coverage(
        builtin_scenario("small"),
        EvalConfig(
            master_seed=seed,
            realizations=realizations,
            samples_per_realization=samples,
            methods=methods,
            mc_draws=2000,
            workers=workers,
        ),
    )


def study(scenario, methods=METHODS, workers=1):
    """A small study whose posterior methods all take Monte Carlo draws."""
    return evaluate_coverage(
        builtin_scenario(scenario),
        EvalConfig(
            master_seed=8,
            realizations=2,
            samples_per_realization=60,
            methods=methods,
            mc_draws=2000,
            workers=workers,
        ),
    )


def assert_same_reports(a, b, methods):
    for field in FIELDS:
        for m in methods:
            assert np.array_equal(
                getattr(a, field)[m], getattr(b, field)[m], equal_nan=True
            ), (field, m)


def synthetic_report(coverages: dict, level=0.95) -> CoverageReport:
    n = len(next(iter(coverages.values())))
    zeros = {m: np.zeros(n) for m in coverages}
    return CoverageReport(
        scenario="synthetic",
        level=level,
        methods=tuple(coverages),
        realizations=n,
        samples_per_realization=100,
        master_seed=0,
        mc_draws=1000,
        coverage={m: np.asarray(v, dtype=float) for m, v in coverages.items()},
        upper_gap=zeros,
        lower_gap={m: np.zeros(n) for m in coverages},
        undefined={m: np.zeros(n) for m in coverages},
        mean_width={m: np.full(n, 0.1) for m in coverages},
    )


class TestAccounting:
    def test_fractions_sum_to_one_exactly(self):
        report = small_eval()
        for m in report.methods:
            total = (
                report.coverage[m]
                + report.upper_gap[m]
                + report.lower_gap[m]
                + report.undefined[m]
            )
            assert np.all(total == 1.0)

    def test_degenerate_single_sample_run(self):
        report = evaluate_coverage(
            builtin_scenario("small"),
            EvalConfig(
                master_seed=3,
                realizations=1,
                samples_per_realization=1,
                methods=("normal-mle",),
                mc_draws=1000,
            ),
        )
        assert report.coverage["normal-mle"][0] in (0.0, 1.0)

    def test_long_rows_shape(self):
        report = small_eval(realizations=3, samples=10)
        rows = list(report.long_rows())
        assert len(rows) == len(report.methods) * 3
        assert rows[0][0] == report.methods[0]

    def test_boxplot_stats_are_ordered_summaries(self):
        report = small_eval(realizations=4, samples=20)
        stats = report.boxplot_stats()
        for method, metrics in stats.items():
            for metric, five in metrics.items():
                assert (
                    five["min"]
                    <= five["q1"]
                    <= five["median"]
                    <= five["q3"]
                    <= five["max"]
                ), (method, metric)
        summary = report.summary()
        assert set(summary["boxplot"]) == set(report.methods)


class TestRmse:
    def test_zero_when_exactly_at_level(self):
        rep = synthetic_report({"a": [0.95, 0.95, 0.95], "b": [0.9, 1.0, 0.95]})
        assert coverage_rmse(rep, "a") == 0.0

    def test_symmetric_two_point(self):
        rep = synthetic_report({"a": [0.95 - 0.04, 0.95 + 0.04], "b": [0.9, 0.9]})
        assert coverage_rmse(rep, "a") == pytest.approx(0.04)

    def test_missing_method(self):
        rep = synthetic_report({"a": [0.9], "b": [0.9]})
        with pytest.raises(ValueError, match="does not contain"):
            coverage_rmse(rep, "z")


class TestClosestShares:
    def test_identical_methods_split_evenly(self):
        rep = synthetic_report({"a": [0.9, 0.97], "b": [0.9, 0.97]})
        shares = closest_coverage_shares(rep)
        assert shares == {"a": 0.5, "b": 0.5}

    def test_shares_sum_to_one(self):
        report = small_eval()
        shares = closest_coverage_shares(report)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_clear_winner(self):
        rep = synthetic_report({"a": [0.95, 0.94], "b": [0.5, 0.5]})
        shares = closest_coverage_shares(rep)
        assert shares["a"] == 1.0

    def test_needs_two_methods(self):
        rep = synthetic_report({"a": [0.9]})
        with pytest.raises(ValueError):
            closest_coverage_shares(rep)


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        a = small_eval(workers=1)
        b = small_eval(workers=3)
        assert_same_reports(a, b, a.methods)

    def test_bit_identical_across_repeat_runs(self):
        a = small_eval()
        b = small_eval()
        for m in a.methods:
            assert np.array_equal(a.coverage[m], b.coverage[m])

    def test_monte_carlo_methods_do_not_depend_on_position(self):
        nine = study("legal")
        for methods in (("betabin-half",), tuple(reversed(METHODS))):
            assert_same_reports(study("legal", methods), nine, methods)


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            EvalConfig(master_seed=1, realizations=0)
        with pytest.raises(ValueError):
            EvalConfig(master_seed=1, samples_per_realization=0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            EvalConfig(master_seed=1, methods=("bootstrap",))

    def test_rejects_duplicate_methods(self):
        # A repeated method would take two shares of each closest-coverage
        # tie and write its rows twice.
        with pytest.raises(ValueError, match="duplicate"):
            EvalConfig(master_seed=1, methods=("normal-mle", "normal-mle", "koopman"))


class TestDesignWidthCurve:
    def test_census_budget_zero_width(self):
        truth = RealizationTruth(30, 50, 12, 8)
        rng = RandomStream(5)
        curve = design_width_curve(
            truth, 80, [30], "betabin-half", 0.95, rng, samples=10
        )
        assert curve == [(30, 0.0)]

    def test_infeasible_allocation_rejected(self):
        truth = RealizationTruth(30, 50, 12, 8)
        rng = RandomStream(5)
        with pytest.raises(ValueError, match="infeasible"):
            design_width_curve(truth, 100, [60], "betabin-half", 0.95, rng)

    def test_unretrieved_heavy_allocation_wins_for_high_recall_low_precision(self):
        # high recall, low precision: most mass to the unretrieved segment helps
        truth = RealizationTruth(50_000, 450_000, 4_000, 1_000)
        rng = RandomStream(6)
        curve = design_width_curve(
            truth, 1000, [100, 500, 900], "betabin-half", 0.95, rng, samples=30
        )
        widths = dict(curve)
        assert widths[100] < widths[900]

    def test_twenty_eighty_allocation_near_minimal(self):
        # the allocation-sensitive profile: recall 0.75, precision 0.25 on a
        # 5M corpus with a 500k retrieval and a 5,000-assessment budget
        truth = RealizationTruth(500_000, 4_500_000, 125_000, 41_667)
        rng = RandomStream(16)
        allocations = [1000, 2000, 3000, 4000]
        curve = dict(
            design_width_curve(
                truth, 5000, allocations, "betabin-half", 0.95, rng, samples=60
            )
        )
        assert curve[1000] <= 1.10 * min(curve.values())


class TestWidthVsSampleSize:
    def test_normal_width_scales_inverse_sqrt(self):
        truth = RealizationTruth(500_000, 4_500_000, 250_000, 250_000)
        rng = RandomStream(7)
        rows = width_vs_sample_size(
            [truth], [1000, 4000], ["normal-mle"], 0.95, rng,
            allocation_grid=8, samples=20,
        )
        w = {r.sample_size: r.min_width for r in rows}
        assert w[1000] / w[4000] == pytest.approx(2.0, rel=0.15)

    def test_normal_exceeds_unit_width_on_tiny_low_prevalence_samples(self):
        # before clipping, a handful of positives in tiny samples can push the
        # normal interval beyond the unit range
        from recallci.core import RecallProblem
        from recallci.intervals import CountBatch, normal_mid_half

        prob = RecallProblem.simple(1_000_000, 20, 2, 4_000_000, 20, 1)
        _, (half,) = normal_mid_half(CountBatch.of_problem(prob), 0.95, 0)
        assert 2 * half > 1.0

    def test_rows_are_minima_of_design_curves(self):
        # Each row is the narrowest point of the design curve over the grid
        # (fractions 1/5 .. 4/5 of the size) on the stream keyed by (truth, size).
        truths = [RealizationTruth(5_000, 45_000, 500, 300), RealizationTruth(900, 9_000, 400, 50)]
        rng = RandomStream(11)
        rows = width_vs_sample_size(
            truths, [100, 1000], ["koopman", "betabin-half"], 0.95, rng,
            allocation_grid=4, samples=15,
        )
        expected = []
        for t_idx, truth in enumerate(truths):
            for size in (100, 1000):
                grid = [size // 5, 2 * size // 5, 3 * size // 5, 4 * size // 5]
                for method in ("koopman", "betabin-half"):
                    curve = design_width_curve(
                        truth, size, grid, method, 0.95, rng.substream(t_idx, size), 15
                    )
                    n1, width = min(curve, key=lambda point: point[1])
                    expected.append((truth.retrieved_size, size, method, n1, width))
        assert [
            (r.retrieved_size, r.sample_size, r.method, r.best_retrieved_allocation, r.min_width)
            for r in rows
        ] == expected

    def test_betabin_narrower_than_normal_at_low_prevalence(self):
        truth = RealizationTruth(500_000, 4_500_000, 250_000, 250_000)
        rng = RandomStream(7)
        rows = width_vs_sample_size(
            [truth], [200], ["normal-mle", "betabin-half"], 0.95, rng,
            allocation_grid=8, samples=40,
        )
        by_method = {r.method: r.min_width for r in rows}
        assert by_method["betabin-half"] < by_method["normal-mle"]
