"""Acceptance suite: end-to-end checks at their stated tolerances.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  The reduced-scale coverage study (three
scenarios at 200 realizations x 500 samples) is computed once in a module
fixture and shared by the criteria that read it; expect a few minutes.  It is
the README's reference study, and its files must equal the committed
``demos/out/study_*`` byte for byte.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import betaln, gammaln

import recallci.binomial as binomial
from recallci.core import (
    RealizationTruth,
    RecallProblem,
    SampleDesign,
    estimator_bias,
    recall_variance,
)
from recallci.distributions import (
    BetaBinomialParams,
    HypergeomParams,
    beta_binomial_pmf,
    binomial_pmf,
    hypergeom_pmf,
    hypergeom_successor_ratio,
)
from recallci.evaluation import (
    EvalConfig,
    coverage_rmse,
    evaluate_coverage,
    write_long_csv,
    write_summary_json,
)
from recallci.intervals import (
    BETA_BINOMIAL,
    MonteCarloConfig,
    PriorSpec,
    compute_interval,
    expected_information_gain,
    monte_carlo_interval,
    most_conservative_prior,
)
from recallci.scenarios import builtin_scenario, sample_realization_with_variables
from recallci.streams import RandomStream
from reference_outputs import assert_matches_committed

STUDY_SEED = 20130217
STUDY_REALIZATIONS = 200
STUDY_SAMPLES = 500
STUDY_DRAWS = 10_000


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def coverage_reports():
    t0 = time.perf_counter()
    reports = {}
    for name in ("neutral", "legal", "small"):
        config = EvalConfig(
            master_seed=STUDY_SEED,
            realizations=STUDY_REALIZATIONS,
            samples_per_realization=STUDY_SAMPLES,
            mc_draws=STUDY_DRAWS,
        )
        reports[name] = evaluate_coverage(builtin_scenario(name), config)
    reports["elapsed"] = time.perf_counter() - t0
    return reports


def test_binomial_interval_mean_coverages():
    with criterion("binomial-mean-coverages"):
        t0 = time.perf_counter()
        quoted = {
            "clopper-pearson": (binomial.clopper_pearson, 0.977),
            "wald": (binomial.wald, 0.851),
            "wilson": (binomial.wilson, 0.953),
            "jeffreys": (binomial.jeffreys, 0.951),
        }
        for name, (rule, expected) in quoted.items():
            observed = binomial.mean_coverage(rule, 20, 0.95)
            assert observed == pytest.approx(expected, abs=0.003), (name, observed)
        assert time.perf_counter() - t0 < 5.0


def test_estimator_bias_exact_enumeration():
    with criterion("estimator-bias"):
        t0 = time.perf_counter()
        truth = RealizationTruth(2000, 100000, 1000, 3000)
        result = estimator_bias(truth, SampleDesign(100, 100))
        assert result.true_recall == pytest.approx(0.250, abs=1e-12)
        assert result.mean_estimate == pytest.approx(0.310, abs=0.005)
        assert time.perf_counter() - t0 < 10.0


def test_reduced_scale_coverage_study(coverage_reports):
    with criterion("reduced-scale-coverage"):
        for name in ("neutral", "legal", "small"):
            rmse = coverage_rmse(coverage_reports[name], "betabin-half")
            assert rmse <= 0.025, (name, rmse)
        legal = coverage_reports["legal"]
        assert coverage_rmse(legal, "normal-mle") >= 0.10
        naive_cov = legal.aggregate("naive-binomial")["mean_coverage"]
        assert naive_cov <= 0.80
        assert coverage_reports["elapsed"] < 1800.0


def test_method_ranking_on_legal_scenario(coverage_reports):
    with criterion("legal-method-ranking"):
        legal = coverage_reports["legal"]
        good = ("koopman", "beta-jeffreys", "betabin-uniform", "betabin-mcp", "betabin-half")
        weak = ("naive-binomial", "normal-mle", "normal-laplace", "normal-agresti")
        worst_good = max(coverage_rmse(legal, m) for m in good)
        best_weak = min(coverage_rmse(legal, m) for m in weak)
        assert worst_good < best_weak


def test_mean_interval_widths(coverage_reports):
    with criterion("betabin-half-widths"):
        quoted = {"neutral": 0.05, "legal": 0.28, "small": 0.14}
        for name, expected in quoted.items():
            agg = coverage_reports[name].aggregate("betabin-half")
            assert agg["mean_width"] == pytest.approx(expected, abs=0.03), (
                name,
                agg["mean_width"],
            )


def test_reference_study_files(coverage_reports, tmp_path):
    with criterion("reference-study-files"):
        names = []
        for name in ("neutral", "legal", "small"):
            write_long_csv(coverage_reports[name], tmp_path / f"study_{name}.csv")
            write_summary_json(coverage_reports[name], tmp_path / f"study_{name}.json")
            names += [f"study_{name}.csv", f"study_{name}.json"]
        assert_matches_committed(tmp_path, names)


def _exhaustive_posterior_quantiles(n1_pop, s1, r1, n0_pop, s0, r0, prior, level):
    """Grid enumeration over all yield combinations (the exact answer)."""

    def posterior(population, sample, r):
        ks = np.arange(population - sample + 1)
        params = BetaBinomialParams(
            population - sample, prior.alpha + r, prior.beta + sample - r
        )
        probs = np.array([beta_binomial_pmf(params, int(k)) for k in ks])
        return r + ks, probs

    y1, p1 = posterior(n1_pop, s1, r1)
    y0, p0 = posterior(n0_pop, s0, r0)
    totals = y1[:, None] + y0[None, :]
    with np.errstate(invalid="ignore"):
        rec = np.where(totals > 0, y1[:, None] / totals, np.nan).ravel()
    mass = (p1[:, None] * p0[None, :]).ravel()
    keep = ~np.isnan(rec)
    rec, mass = rec[keep], mass[keep]
    order = np.argsort(rec)
    rec = rec[order]
    cum = np.cumsum(mass[order])
    cum /= cum[-1]
    alpha = 1.0 - level
    lower = rec[np.searchsorted(cum, alpha / 2.0)]
    upper = rec[np.searchsorted(cum, 1.0 - alpha / 2.0)]
    return float(lower), float(upper)


def test_small_instance_oracle_equivalence():
    with criterion("small-instance-oracle"):
        gen = np.random.default_rng(60_601)
        prior = PriorSpec(0.5, 0.5)
        checked = 0
        trial = 0
        while checked < 50:
            trial += 1
            n1_pop = int(gen.integers(3, 61))
            n0_pop = int(gen.integers(3, 61))
            s1 = int(gen.integers(1, n1_pop + 1))
            s0 = int(gen.integers(1, n0_pop + 1))
            r1 = int(gen.integers(0, s1 + 1))
            r0 = int(gen.integers(0, s0 + 1))
            if r1 == 0 and r0 == 0:
                continue
            problem = RecallProblem.simple(n1_pop, s1, r1, n0_pop, s0, r0)
            config = MonteCarloConfig(rng=RandomStream(909_000 + trial), draws=1_000_000)
            interval = monte_carlo_interval(problem, 0.95, BETA_BINOMIAL, prior, config)
            exact_lo, exact_hi = _exhaustive_posterior_quantiles(
                n1_pop, s1, r1, n0_pop, s0, r0, prior, 0.95
            )
            if r1 == 0:
                exact_lo = 0.0
            if r0 == 0:
                exact_hi = 1.0
            tolerance = 1.0 / (max(n1_pop, n0_pop) + 1)
            assert abs(interval.lower - exact_lo) <= tolerance, (trial, "lower")
            assert abs(interval.upper - exact_hi) <= tolerance, (trial, "upper")
            checked += 1


def test_small_instance_oracle_equivalence_exact():
    with criterion("small-instance-oracle-exact"):
        gen = np.random.default_rng(60_601)
        prior = PriorSpec(0.5, 0.5)
        config = MonteCarloConfig(rng=RandomStream(909_000), draws=1000)
        checked = 0
        while checked < 50:
            n1_pop = int(gen.integers(3, 61))
            n0_pop = int(gen.integers(3, 61))
            s1 = int(gen.integers(1, n1_pop + 1))
            s0 = int(gen.integers(1, n0_pop + 1))
            r1 = int(gen.integers(0, s1 + 1))
            r0 = int(gen.integers(0, s0 + 1))
            if r1 == 0 and r0 == 0:
                continue
            problem = RecallProblem.simple(n1_pop, s1, r1, n0_pop, s0, r0)
            interval = compute_interval("betabin-half", problem, 0.95, config)
            exact_lo, exact_hi = _exhaustive_posterior_quantiles(
                n1_pop, s1, r1, n0_pop, s0, r0, prior, 0.95
            )
            if r1 == 0:
                exact_lo = 0.0
            if r0 == 0:
                exact_hi = 1.0
            assert abs(interval.lower - exact_lo) <= 1e-12, (checked, "lower")
            assert abs(interval.upper - max(exact_lo, exact_hi)) <= 1e-12, (checked, "upper")
            checked += 1


def test_property_pmf_normalization():
    with criterion("pmf-normalization"):
        gen = np.random.default_rng(7_001)
        for _ in range(30):
            pop = int(gen.integers(1, 2001))
            successes = int(gen.integers(0, pop + 1))
            sample = int(gen.integers(0, pop + 1))
            params = HypergeomParams(pop, successes, sample)
            total = sum(hypergeom_pmf(params, k) for k in params.support())
            assert total == pytest.approx(1.0, abs=1e-10)
        for _ in range(30):
            n = int(gen.integers(0, 301))
            pi = float(gen.random())
            assert sum(binomial_pmf(n, pi, k) for k in range(n + 1)) == pytest.approx(
                1.0, abs=1e-10
            )
        for _ in range(30):
            trials = int(gen.integers(0, 301))
            a, b = float(gen.uniform(0.05, 10)), float(gen.uniform(0.05, 10))
            params = BetaBinomialParams(trials, a, b)
            total = sum(beta_binomial_pmf(params, s) for s in range(trials + 1))
            assert total == pytest.approx(1.0, abs=1e-10)


def test_property_successor_ratio_recurrence():
    with criterion("successor-recurrence"):
        gen = np.random.default_rng(7_002)
        for _ in range(40):
            pop = int(gen.integers(2, 500))
            successes = int(gen.integers(1, pop + 1))
            sample = int(gen.integers(1, pop + 1))
            params = HypergeomParams(pop, successes, sample)
            ks = list(params.support())
            for k in ks[:-1]:
                lhs = hypergeom_pmf(params, k + 1)
                rhs = hypergeom_successor_ratio(params, k) * hypergeom_pmf(params, k)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_property_conjugacy_identity():
    with criterion("beta-binomial-conjugacy"):
        gen = np.random.default_rng(7_003)
        for _ in range(40):
            pop = int(gen.integers(1, 51))
            sample = int(gen.integers(0, pop + 1))
            r = int(gen.integers(0, sample + 1))
            a, b = float(gen.uniform(0.1, 5)), float(gen.uniform(0.1, 5))
            shifted = BetaBinomialParams(pop - sample, a + r, b + sample - r)
            for s in range(r, pop - sample + r + 1):
                log_direct = (
                    gammaln(pop - sample + 1)
                    - gammaln(s - r + 1)
                    - gammaln(pop - sample - (s - r) + 1)
                    + betaln(s + a, pop - s + b)
                    - betaln(a + r, b + sample - r)
                )
                direct = float(np.exp(log_direct))
                assert direct == pytest.approx(
                    beta_binomial_pmf(shifted, s - r), rel=1e-9, abs=1e-12
                )


def test_property_forcing_rules():
    with criterion("forcing-rules"):
        config = MonteCarloConfig(rng=RandomStream(7_004), draws=2000)
        methods = ("koopman", "beta-jeffreys", "betabin-uniform", "betabin-half", "betabin-mcp")
        no_unret = RecallProblem.simple(3000, 150, 80, 60000, 300, 0)
        no_ret = RecallProblem.simple(3000, 150, 0, 60000, 300, 9)
        for method in methods:
            assert compute_interval(method, no_unret, 0.95, config).upper == 1.0
            assert compute_interval(method, no_ret, 0.95, config).lower == 0.0


def test_property_census_degenerate():
    with criterion("census-degenerate"):
        config = MonteCarloConfig(rng=RandomStream(7_005), draws=2000)
        problem = RecallProblem.simple(35, 35, 14, 82, 82, 7)
        true_recall = 14 / 21
        for method in ("betabin-uniform", "betabin-half", "betabin-mcp"):
            interval = compute_interval(method, problem, 0.95, config)
            assert interval.lower == pytest.approx(true_recall, abs=1e-12)
            assert interval.upper == pytest.approx(true_recall, abs=1e-12)


def test_property_variance_ordering():
    with criterion("variance-ordering"):
        gen = np.random.default_rng(7_006)
        for _ in range(60):
            pop1 = int(gen.integers(2, 5000))
            pop0 = int(gen.integers(2, 5000))
            s1 = int(gen.integers(1, pop1 + 1))
            s0 = int(gen.integers(1, pop0 + 1))
            r1 = int(gen.integers(0, s1 + 1))
            r0 = int(gen.integers(0, s0 + 1))
            if r1 == 0 and r0 == 0:
                continue
            problem = RecallProblem.simple(pop1, s1, r1, pop0, s0, r0)
            assert recall_variance(problem, False) >= recall_variance(problem, True) - 1e-15


def test_property_most_conservative_prior():
    with criterion("most-conservative-prior"):
        for pop, sample in ((100, 20), (400, 37), (1000, 800), (2_000_000, 5000), (60, 59)):
            prior = most_conservative_prior(pop, sample)
            assert prior.alpha == prior.beta
            assert 0.1 <= prior.alpha <= 1.0
        a = expected_information_gain(0.3, 0.7, 30, 10)
        b = expected_information_gain(0.7, 0.3, 30, 10)
        assert a == pytest.approx(b, rel=1e-12)
        probes = [expected_information_gain(x, x, 100, 20) for x in (0.2, 0.5, 1.0)]
        assert probes[0] > probes[1] > probes[2]
        best = most_conservative_prior(100, 20).alpha
        assert expected_information_gain(best, best, 100, 20) >= max(probes)


# Published central values implied by the scenario tables.  Three cells of
# the published mean columns (neutral precision 0.64, legal retrieved sample
# 820, small precision 0.51) are inconsistent with the published formulas and
# range columns; those entries carry the frozen 1e6-draw means of the
# corrected-bounds implementation instead, and the legal population mean uses
# its analytic value 1.0749e7.
SCENARIO_EXPECTATIONS = {
    "neutral": {
        "N": (1e3, 4e6, 2_000_500),
        "pi": (0.02, 0.8, 0.41),
        "rec": (0.1, 1.0, 0.55),
        "prec": (0.1, 1.0, 0.6979),
        "n1": (10, 4000, 1935),
        "n0": (10, 4000, 1995),
    },
    "legal": {
        "N": (5e5, 5e7, 1.0749e7),
        "pi": (0.003, 2e-3 * 1.5**10, 0.031),
        "rec": (0.0025, 2.5e-3 * 34**1.65, 0.33),
        "prec": (0.025, 0.92, 0.48),
        "n1": (20, 5120, 1011.5),
        "n0": (100, 12800, 3170),
    },
    "small": {
        "N": (1e3, 1e4, 5500),
        "pi": (0.02, 0.22, 0.12),
        "rec": (0.1, 1.0, 0.55),
        "prec": (0.025, 0.92, 0.5261),
        "n1": (None, None, 290),
        "n0": (None, None, 815),
    },
}


def test_property_scenario_distributions():
    with criterion("scenario-distributions"):
        draws = 30_000
        for name, expectations in SCENARIO_EXPECTATIONS.items():
            spec = builtin_scenario(name)
            base = RandomStream(424_242)
            values = {v: np.empty(draws) for v in ("N", "pi", "rec", "prec", "n1", "n0")}
            for i in range(draws):
                variables, _, design = sample_realization_with_variables(
                    spec, base.substream(0, i)
                )
                for v in ("N", "pi", "rec", "prec"):
                    values[v][i] = variables[v]
                values["n1"][i] = design.retrieved_sample
                values["n0"][i] = design.unretrieved_sample
            for var, (lo, hi, mean) in expectations.items():
                if lo is not None:
                    assert values[var].min() >= lo - 1e-9, (name, var)
                    assert values[var].max() <= hi + 1e-9, (name, var)
                assert values[var].mean() == pytest.approx(mean, rel=0.02), (
                    name,
                    var,
                    values[var].mean(),
                )


def test_determinism_across_worker_counts():
    with criterion("worker-determinism"):
        spec = builtin_scenario("legal")
        kwargs = dict(
            master_seed=31_337,
            realizations=6,
            samples_per_realization=40,
            mc_draws=2000,
        )
        a = evaluate_coverage(spec, EvalConfig(workers=1, **kwargs))
        b = evaluate_coverage(spec, EvalConfig(workers=2, **kwargs))
        for field in ("coverage", "upper_gap", "lower_gap", "undefined", "mean_width"):
            for m in a.methods:
                assert np.array_equal(
                    getattr(a, field)[m], getattr(b, field)[m], equal_nan=True
                ), (field, m)
