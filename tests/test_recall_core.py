"""Yield and recall estimation, propagated variance, brute-force distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recallci.core import (
    RealizationTruth,
    RecallProblem,
    SampleDesign,
    SegmentData,
    StratumCounts,
    UndefinedEstimateError,
    estimate_recall,
    estimate_segment_yield,
    estimator_bias,
    exact_sampling_distribution,
    recall_variance,
)
from recallci.distributions import HypergeomParams, hypergeom_pmf
from recallci.intervals import (
    CountBatch,
    _segment_yields,
    _z_value,
    interval_bounds,
    normal_mid_half,
)

AUDIT_WORLD = RealizationTruth(2000, 100000, 1000, 3000)
AUDIT_DESIGN = SampleDesign(100, 100)
AUDIT_PROBLEM = RecallProblem.simple(2000, 100, 50, 100000, 100, 3)


def stratum_strategy(max_pop=5000):
    return st.integers(1, max_pop).flatmap(
        lambda pop: st.integers(1, pop).flatmap(
            lambda n: st.integers(0, n).map(lambda r: StratumCounts(pop, n, r))
        )
    )


class TestSegmentYield:
    def test_single_stratum_direct(self):
        seg = SegmentData.simple("retrieved", 2000, 100, 50)
        est = estimate_segment_yield(seg)
        assert est.point == pytest.approx(1000.0)
        assert est.variance == pytest.approx(9500.0)

    def test_low_prevalence_stratum(self):
        seg = SegmentData.simple("unretrieved", 100000, 100, 3)
        est = estimate_segment_yield(seg)
        assert est.point == pytest.approx(3000.0)
        assert est.variance == pytest.approx(2_907_090.0)

    def test_census_stratum_has_zero_variance(self):
        seg = SegmentData.simple("retrieved", 500, 500, 123)
        assert estimate_segment_yield(seg).variance == 0.0

    def test_empty_sample_rejected(self):
        seg = SegmentData.simple("retrieved", 100, 0, 0)
        with pytest.raises(ValueError, match="empty sample"):
            estimate_segment_yield(seg)

    @given(s=stratum_strategy())
    @settings(max_examples=50, deadline=None)
    def test_single_stratum_equals_simple_estimate(self, s):
        seg = SegmentData((s,), "retrieved")
        est = estimate_segment_yield(seg)
        assert est.point == pytest.approx(
            s.population_size * s.relevant_in_sample / s.sample_size
        )

    def test_merging_equal_prevalence_strata(self):
        # Two strata with identical prevalence and sampling rate give the same
        # point estimate as their union, with no smaller variance.
        split = SegmentData(
            (StratumCounts(1000, 100, 30), StratumCounts(1000, 100, 30)), "retrieved"
        )
        merged = SegmentData.simple("retrieved", 2000, 200, 60)
        est_split = estimate_segment_yield(split)
        est_merged = estimate_segment_yield(merged)
        assert est_split.point == pytest.approx(est_merged.point)
        assert est_split.variance >= est_merged.variance - 1e-9


class TestEstimateRecall:
    def test_audit_world_point(self):
        assert estimate_recall(AUDIT_PROBLEM) == pytest.approx(0.25)

    def test_no_unretrieved_relevant_gives_one(self):
        prob = RecallProblem.simple(2000, 100, 50, 100000, 100, 0)
        assert estimate_recall(prob) == 1.0

    def test_no_retrieved_relevant_gives_zero(self):
        prob = RecallProblem.simple(2000, 100, 0, 100000, 100, 3)
        assert estimate_recall(prob) == 0.0

    def test_undefined_when_both_empty(self):
        prob = RecallProblem.simple(2000, 100, 0, 100000, 100, 0)
        with pytest.raises(UndefinedEstimateError):
            estimate_recall(prob)

    @given(
        s1=stratum_strategy(), s0=stratum_strategy()
    )
    @settings(max_examples=60, deadline=None)
    def test_recall_in_unit_interval(self, s1, s0):
        prob = RecallProblem(
            SegmentData((s1,), "retrieved"), SegmentData((s0,), "unretrieved")
        )
        if s1.relevant_in_sample == 0 and s0.relevant_in_sample == 0:
            return
        assert 0.0 <= estimate_recall(prob) <= 1.0


class TestRecallVariance:
    def test_corrected_value(self):
        assert recall_variance(AUDIT_PROBLEM, corrected=True) == pytest.approx(
            0.011690, abs=5e-7
        )

    def test_uncorrected_adds_retrieved_variance_again(self):
        # algebraically the excess is 2 R1 Var(Y1) / (R1 + R0)^3
        corrected = recall_variance(AUDIT_PROBLEM, corrected=True)
        uncorrected = recall_variance(AUDIT_PROBLEM, corrected=False)
        excess = 2 * 1000.0 * 9500.0 / 4000.0**3
        assert uncorrected - corrected == pytest.approx(excess, rel=1e-9)

    @given(s1=stratum_strategy(200), s0=stratum_strategy(200))
    @settings(max_examples=60, deadline=None)
    def test_uncorrected_never_below_corrected(self, s1, s0):
        prob = RecallProblem(
            SegmentData((s1,), "retrieved"), SegmentData((s0,), "unretrieved")
        )
        if s1.relevant_in_sample == 0 and s0.relevant_in_sample == 0:
            return
        assert recall_variance(prob, False) >= recall_variance(prob, True) - 1e-15

    def test_double_census_is_exact(self):
        prob = RecallProblem.simple(50, 50, 20, 80, 80, 10)
        assert recall_variance(prob, True) == 0.0
        assert recall_variance(prob, False) == 0.0


def random_strata(gen):
    """(population, sample) strata of a random design: one to three per
    segment, populations up to 1e9, about one stratum in five a census."""
    strata = []
    for _ in range(2):
        segment = []
        for _ in range(int(gen.integers(1, 4))):
            population = int(10 ** gen.uniform(0.0, 9.0))
            sample = int(gen.integers(1, min(population, 5000) + 1))
            segment.append((population, population if gen.random() < 0.2 else sample))
        strata.append(tuple(segment))
    return tuple(strata)


def problem_of(strata, relevant, k):
    """Sample k of a batch as a RecallProblem."""
    return RecallProblem(*(
        SegmentData(tuple(StratumCounts(n, s, int(r[k])) for (n, s), r in zip(seg, rel)), label)
        for seg, rel, label in zip(strata, relevant, ("retrieved", "unretrieved"))
    ))


class TestOneEstimator:
    """The batch normal kernels and the scalar API read one stratified
    estimator, so each sample of a batch gets the scalar API's bits."""

    def test_batch_equals_scalar_api_bit_for_bit(self):
        gen = np.random.default_rng(14)
        undefined = 0
        for trial in range(150):
            strata = random_strata(gen)
            relevant = tuple(
                tuple(
                    np.where(gen.random(8) < 0.3, 0, gen.integers(0, sample + 1, 8))
                    for _, sample in segment
                )
                for segment in strata
            )
            batch = CountBatch(strata, relevant)
            level = (0.5, 0.95, 0.999)[trial % 3]
            yields = _segment_yields(batch, 0)
            with np.errstate(invalid="ignore"):
                mid, half = normal_mid_half(batch, level, 0)
            for k in range(8):
                problem = problem_of(strata, relevant, k)
                for (y, v), segment in zip(yields, (problem.retrieved, problem.unretrieved)):
                    estimate = estimate_segment_yield(segment)
                    assert (y[k], v[k]) == (estimate.point, estimate.variance), (strata, k)
                if not (problem.retrieved.total_relevant_sampled
                        or problem.unretrieved.total_relevant_sampled):
                    with pytest.raises(UndefinedEstimateError):
                        recall_variance(problem)
                    assert np.isnan(mid[k]) and np.isnan(half[k])
                    undefined += 1
                    continue
                assert mid[k] == estimate_recall(problem), (strata, k)
                assert half[k] == _z_value(level) * np.sqrt(recall_variance(problem)), (strata, k)
        assert undefined > 0

    def test_empty_stratum_rules(self):
        # The scalar API raises for any empty stratum sample.
        for r1, r0 in ((0, 0), (3, 0), (0, 2)):
            problem = RecallProblem(
                SegmentData((StratumCounts(1000, 50, r1), StratumCounts(400, 0, 0)), "retrieved"),
                SegmentData.simple("unretrieved", 50000, 100, r0),
            )
            for estimate in (estimate_recall, recall_variance):
                with pytest.raises(ValueError, match="retrieved stratum 1 has an empty sample"):
                    estimate(problem)
        # The batch raises only when some sample holds a relevant document.
        strata = (((1000, 50), (400, 0)), ((50000, 100),))
        zeros = np.zeros(3, dtype=np.int64)
        none = CountBatch(strata, ((zeros, zeros), (zeros,)))
        lower, upper = interval_bounds("normal-mle", none, 0.95)
        assert lower.tolist() == [0.0] * 3 and upper.tolist() == [1.0] * 3
        some = CountBatch(strata, ((np.array([0, 0, 2]), zeros), (np.array([0, 1, 0]),)))
        with pytest.raises(ValueError, match="retrieved stratum 1 has an empty sample"):
            interval_bounds("normal-mle", some, 0.95)


class TestExactSamplingDistribution:
    def test_total_mass_is_one(self):
        dist = exact_sampling_distribution(AUDIT_WORLD, AUDIT_DESIGN)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_point_mass_at_one_from_empty_unretrieved(self):
        dist = exact_sampling_distribution(AUDIT_WORLD, AUDIT_DESIGN)
        expected = hypergeom_pmf(HypergeomParams(100000, 3000, 100), 0)
        assert expected == pytest.approx(0.0474, abs=5e-4)
        assert dist.mass_at(1.0) == pytest.approx(expected, rel=1e-6)

    def test_rejects_oversize_enumeration(self):
        truth = RealizationTruth(100000, 100000, 100, 100)
        with pytest.raises(ValueError, match="10000"):
            exact_sampling_distribution(truth, SampleDesign(20000, 100))

    def test_agrees_with_simulation(self):
        truth = RealizationTruth(400, 5000, 120, 300)
        design = SampleDesign(60, 80)
        dist = exact_sampling_distribution(truth, design)
        gen = np.random.default_rng(123)
        draws = 1_000_000
        r1 = gen.hypergeometric(120, 280, 60, size=draws)
        r0 = gen.hypergeometric(300, 4700, 80, size=draws)
        y1 = 400 * r1 / 60
        y0 = 5000 * r0 / 80
        ok = (y1 + y0) > 0
        sim = y1[ok] / (y1[ok] + y0[ok])
        se_mean = sim.std() / np.sqrt(len(sim))
        assert dist.mean() == pytest.approx(sim.mean(), abs=3 * se_mean)
        sim_var = sim.var()
        fourth = np.mean((sim - sim.mean()) ** 4)
        se_var = np.sqrt((fourth - sim_var**2) / len(sim))
        assert dist.variance() == pytest.approx(sim_var, abs=3 * se_var)


class TestEstimatorBias:
    def test_audit_world_bias(self):
        result = estimator_bias(AUDIT_WORLD, AUDIT_DESIGN)
        assert result.true_recall == pytest.approx(0.25)
        assert result.mean_estimate == pytest.approx(0.31, abs=0.005)
        assert result.bias > 0.05

    def test_census_design_has_no_bias(self):
        truth = RealizationTruth(50, 200, 20, 30)
        result = estimator_bias(truth, SampleDesign(50, 200))
        assert result.bias == pytest.approx(0.0, abs=1e-12)

    def test_bias_decreases_with_unretrieved_sample(self):
        biases = [
            estimator_bias(AUDIT_WORLD, SampleDesign(100, n0)).bias
            for n0 in (50, 100, 200, 400)
        ]
        assert all(b1 > b2 for b1, b2 in zip(biases, biases[1:]))


class TestTypes:
    def test_stratum_invariants(self):
        with pytest.raises(ValueError):
            StratumCounts(0, 0, 0)
        with pytest.raises(ValueError):
            StratumCounts(10, 11, 0)
        with pytest.raises(ValueError):
            StratumCounts(10, 5, 6)

    def test_segment_requires_strata_and_label(self):
        with pytest.raises(ValueError):
            SegmentData((), "retrieved")
        with pytest.raises(ValueError):
            SegmentData.simple("both", 10, 5, 1)

    def test_problem_label_check(self):
        seg = SegmentData.simple("retrieved", 10, 5, 1)
        with pytest.raises(ValueError):
            RecallProblem(seg, seg)

    def test_truth_invariants(self):
        with pytest.raises(ValueError):
            RealizationTruth(10, 10, 11, 0)
        with pytest.raises(ValueError):
            RealizationTruth(10, 10, 0, 0)
