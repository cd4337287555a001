"""The nine recall interval methods."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln

from recallci import evaluation
from recallci.core import RecallProblem, SegmentData, StratumCounts, UndefinedEstimateError
from recallci.distributions import (
    BetaBinomialParams,
    beta_binomial_pmf,
    chi_square_1df_quantile,
    log_comb,
)
from recallci import intervals
from recallci.intervals import (
    BETA_BINOMIAL,
    BETA_JEFFREYS,
    METHOD_TABLE,
    METHODS,
    NORMAL_ADJUSTMENTS,
    CountBatch,
    MonteCarloConfig,
    PriorSpec,
    RecallInterval,
    betabin_exact_bounds,
    compute_interval,
    equal_tail_quantiles,
    expected_information_gain,
    interval_bounds,
    koopman_bounds,
    koopman_interval,
    monte_carlo_interval,
    most_conservative_prior,
    normal_bounds,
    normal_mid_half,
    posterior_bounds,
    segment_yield_draws,
)
from recallci.scenarios import builtin_scenario
from recallci.streams import RandomStream

AUDIT_PROBLEM = RecallProblem.simple(2000, 100, 50, 100000, 100, 3)
CLOSED_FORM_METHODS = tuple(m for m in METHODS if m not in intervals.POSTERIOR_METHODS)
POSTERIOR_METHODS = tuple(m for m in METHODS if m in intervals.POSTERIOR_METHODS)


def prior_of(method):
    return METHOD_TABLE[method].params[1]


def mid_half(problem, adjustment):
    (mid,), (half,) = normal_mid_half(CountBatch.of_problem(problem), 0.95, adjustment)
    return mid, half


def mc_config(seed, draws=20_000):
    return MonteCarloConfig(rng=RandomStream(seed), draws=draws)


def random_problem(gen, max_pop=3000):
    n1 = int(gen.integers(2, max_pop))
    n0 = int(gen.integers(2, max_pop))
    s1 = int(gen.integers(1, n1 + 1))
    s0 = int(gen.integers(1, n0 + 1))
    r1 = int(gen.integers(0, s1 + 1))
    r0 = int(gen.integers(0, s0 + 1))
    return RecallProblem.simple(n1, s1, r1, n0, s0, r0)


class TestNaiveBinomial:
    def test_direct_formula(self):
        iv = compute_interval("naive-binomial", AUDIT_PROBLEM, 0.95)
        assert iv.point == pytest.approx(0.25)
        assert iv.lower == pytest.approx(0.1334, abs=5e-5)
        assert iv.upper == pytest.approx(0.3666, abs=5e-5)

    def test_degenerate_zero_point(self):
        prob = RecallProblem.simple(2000, 100, 0, 100000, 100, 3)
        iv = compute_interval("naive-binomial", prob, 0.95)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_error_when_nothing_relevant(self):
        prob = RecallProblem.simple(2000, 100, 0, 100000, 100, 0)
        with pytest.raises(UndefinedEstimateError):
            compute_interval("naive-binomial", prob, 0.95)


class TestNormalIntervals:
    def test_mle_empty_unretrieved_is_degenerate_before_forcing(self):
        prob = RecallProblem.simple(2000, 100, 50, 100000, 100, 0)
        mid, half = mid_half(prob, 0)
        assert (mid, half) == (1.0, 0.0)
        iv = compute_interval("normal-mle", prob, 0.95)
        assert (iv.lower, iv.upper) == (1.0, 1.0)

    def test_forcing_rules(self):
        no_unret = RecallProblem.simple(2000, 100, 50, 100000, 100, 0)
        no_ret = RecallProblem.simple(2000, 100, 0, 100000, 100, 3)
        for method in NORMAL_ADJUSTMENTS:
            assert compute_interval(method, no_unret, 0.95).upper == 1.0
            assert compute_interval(method, no_ret, 0.95).lower == 0.0

    def test_laplace_symmetric_adjustment(self):
        # one stratum with r = n/2 keeps the adjusted proportion at one half
        prob = RecallProblem.simple(500, 100, 50, 500, 100, 50)
        mid, _ = mid_half(prob, 1)
        assert mid == pytest.approx(0.5, abs=1e-12)

    def test_laplace_widens_degenerate_mle(self):
        # zero unretrieved positives give the MLE a zero-width interval; the
        # adjusted counts restore a nonzero spread
        prob = RecallProblem.simple(2000, 100, 50, 100000, 400, 0)
        _, half_mle = mid_half(prob, 0)
        _, half_lap = mid_half(prob, 1)
        assert half_mle == 0.0
        assert half_lap > 0.25

    def test_stratified_segments_supported(self):
        prob = RecallProblem(
            SegmentData(
                (StratumCounts(1000, 50, 25), StratumCounts(1000, 50, 10)), "retrieved"
            ),
            SegmentData(
                (StratumCounts(50000, 100, 2), StratumCounts(50000, 100, 0)),
                "unretrieved",
            ),
        )
        for method in NORMAL_ADJUSTMENTS:
            iv = compute_interval(method, prob, 0.95)
            assert 0.0 <= iv.lower <= iv.upper <= 1.0

    def test_invalid_adjustment(self):
        with pytest.raises(ValueError):
            mid_half(AUDIT_PROBLEM, 3)


def _chi_term(obs, size, rate):
    # Rates lie in [0, 1], so a zero denominator under a nonzero numerator
    # gives the infinite term.
    num = np.float_power(obs - size * rate, 2.0)
    return np.where(num == 0.0, 0.0, num / (size * rate * (1.0 - rate)))


def _koopman_statistic(phi, x, m, y, n):
    """Goodness-of-fit chi-square for the ratio hypothesis p_num/p_den = phi.

    (x, m) is the numerator-group sample, (y, n) the denominator group.  Under
    the constraint p_num = phi * p_den the ML denominator-group rate solves
    phi (m + n) t^2 - [x + n + phi (m + y)] t + (x + y) = 0 (smaller root).
    Arguments broadcast; the result is one statistic per element.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = phi * (m + n)
        b = x + n + phi * (m + y)
        disc = np.maximum(b * b - 4.0 * a * (x + y), 0.0)
        t = np.minimum(np.maximum((b - np.sqrt(disc)) / (2.0 * a), 0.0), 1.0)
        return _chi_term(x, m, np.minimum(phi * t, 1.0)) + _chi_term(y, n, t)


def decimal_koopman_bounds(n_ret, n, y, n_unret, m, x, crit):
    """Koopman recall bounds by bisecting the statistic at 50 digits (test oracle).

    The statistic is the one ``_koopman_statistic`` codes: the smaller
    constrained root clipped to [0, 1], the numerator rate capped at 1 and a
    0/0 term counting 0.  Each end of the accepted set of phi is walked to by
    doubling or halving from an accepted point and then bisected 64 times.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x, m, y, n, crit = (Decimal(v) for v in (x, m, y, n, crit))
        one, zero = Decimal(1), Decimal(0)

        def term(obs, size, rate):
            num = (obs - size * rate) ** 2
            if num == 0:
                return zero
            den = size * rate * (one - rate)
            return None if den == 0 else num / den

        def accepted(phi):
            b = x + n + phi * (m + y)
            disc = max(b * b - 4 * phi * (m + n) * (x + y), zero)
            t = min(max(2 * (x + y) / (b + disc.sqrt()), zero), one)  # the smaller root
            terms = (term(x, m, min(phi * t, one)), term(y, n, t))
            return None not in terms and sum(terms) <= crit

        def edge(inside, factor):
            outside = inside * factor
            while accepted(outside):
                inside, outside = outside, outside * factor
            for _ in range(64):
                mid = (inside + outside) / 2
                inside, outside = (mid, outside) if accepted(mid) else (inside, mid)
            return (inside + outside) / 2

        if x > 0 and y > 0:
            inside = (x / m) / (y / n)
        elif x == 0:
            inside = Decimal("1e-40")
        else:
            inside = one
            while not accepted(inside):
                inside *= 2
        scale = Decimal(n_unret) / Decimal(n_ret)
        lower = float(one / (one + scale * edge(inside, Decimal(2)))) if y > 0 else 0.0
        upper = float(one / (one + scale * edge(inside, Decimal("0.5")))) if x > 0 else 1.0
        return lower, upper


def koopman_oracle_problems(count, seed):
    """Single-stratum problems: samples 1-20,000, N0/N1 1e-3-1e5, populations to 1e9.

    Each relevant count is 0, 1, uniform, one short of the sample or the
    whole sample; the first problem has both samples all relevant.
    """
    gen = np.random.default_rng(seed)
    out = [(1000, 50, 50, 4000, 70, 70)]
    while len(out) < count:
        n, m = np.exp(gen.uniform(0.0, np.log(20_000), 2)).astype(int)
        scale = math.exp(gen.uniform(math.log(1e-3), math.log(1e5)))
        low, high = max(n, m / scale), min(1e9, 1e9 / scale)
        if low > high:
            continue
        n_ret = int(math.exp(gen.uniform(math.log(low), math.log(high))))
        n_unret = max(int(m), round(n_ret * scale))
        if n_ret < n or n_unret > 1e9:
            continue
        y, x = ([0, 1, int(gen.integers(0, k + 1)), k - 1, k][gen.integers(5)] for k in (n, m))
        if x or y:
            out.append((n_ret, int(n), int(y), n_unret, int(m), int(x)))
    return out


class TestKoopman:
    @pytest.mark.parametrize(
        "level,tol", [(0.5, 1e-8), (0.95, 1e-8), (0.999, 1e-8), (1e-6, 1e-6), (1 - 1e-12, 1e-6)]
    )
    def test_matches_high_precision_inversion(self, level, tol):
        crit = chi_square_1df_quantile(level)
        for problem in koopman_oracle_problems(500, 71):
            n_ret, n, y, n_unret, m, x = problem
            (lower,), (upper,) = koopman_bounds(
                CountBatch.simple(n_ret, n, [y], n_unret, m, [x]), level
            )
            ref = decimal_koopman_bounds(*problem, crit)
            assert abs(lower - ref[0]) <= tol and abs(upper - ref[1]) <= tol, (problem, ref)

    def test_bracket_recovers_from_a_poor_start(self, monkeypatch):
        # Started at u = 0 instead of the quadratic guesses, Newton steps leave
        # the bracket and bisection takes over until they land inside it.
        design = (2000, 100, 100000, 100)
        batch = batch_of(design, design_pairs(design, np.random.default_rng(4)))
        expected = koopman_bounds(batch, 0.95)
        monkeypatch.setattr(intervals, "_quadratic_root", lambda a, b, c: np.zeros(np.shape(a)))
        for got, want in zip(koopman_bounds(batch, 0.95), expected):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_statistic_zero_at_unconstrained_mle(self):
        gen = np.random.default_rng(55)
        for _ in range(40):
            prob = random_problem(gen)
            ret = prob.retrieved.strata[0]
            unret = prob.unretrieved.strata[0]
            if ret.relevant_in_sample == 0 or unret.relevant_in_sample == 0:
                continue
            phi_hat = (unret.relevant_in_sample / unret.sample_size) / (
                ret.relevant_in_sample / ret.sample_size
            )
            u = _koopman_statistic(
                phi_hat,
                unret.relevant_in_sample,
                unret.sample_size,
                ret.relevant_in_sample,
                ret.sample_size,
            )
            assert u == pytest.approx(0.0, abs=1e-9)

    def test_contains_point_estimate(self):
        gen = np.random.default_rng(56)
        checked = 0
        while checked < 30:
            prob = random_problem(gen)
            ret = prob.retrieved.strata[0]
            unret = prob.unretrieved.strata[0]
            if ret.relevant_in_sample == 0 or unret.relevant_in_sample == 0:
                continue
            iv = koopman_interval(prob, 0.95)
            assert iv.lower - 1e-9 <= iv.point <= iv.upper + 1e-9
            checked += 1

    def test_agrees_with_grid_scan(self):
        iv = koopman_interval(AUDIT_PROBLEM, 0.95)
        crit = chi_square_1df_quantile(0.95)
        phis = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 400_001))
        ok = phis[_koopman_statistic(phis, 3, 100, 50, 100) <= crit]
        scale = 100000 / 2000
        lo_scan = 1 / (1 + scale * ok[-1])
        hi_scan = 1 / (1 + scale * ok[0])
        assert iv.lower == pytest.approx(lo_scan, abs=2e-4)
        assert iv.upper == pytest.approx(hi_scan, abs=2e-4)

    def test_forcing_rules(self):
        no_unret = RecallProblem.simple(2000, 100, 50, 100000, 100, 0)
        assert koopman_interval(no_unret, 0.95).upper == 1.0
        no_ret = RecallProblem.simple(2000, 100, 0, 100000, 100, 3)
        assert koopman_interval(no_ret, 0.95).lower == 0.0
        both = RecallProblem.simple(2000, 100, 0, 100000, 100, 0)
        iv = koopman_interval(both, 0.95)
        assert (iv.lower, iv.upper) == (0.0, 1.0)
        assert iv.point is None

    def test_rejects_stratified_input(self):
        prob = RecallProblem(
            SegmentData(
                (StratumCounts(100, 10, 5), StratumCounts(100, 10, 5)), "retrieved"
            ),
            SegmentData.simple("unretrieved", 1000, 20, 1),
        )
        with pytest.raises(ValueError, match="stratified"):
            koopman_interval(prob, 0.95)

    def test_all_relevant_everywhere(self):
        prob = RecallProblem.simple(100, 10, 10, 1000, 20, 20)
        iv = koopman_interval(prob, 0.95)
        assert 0.0 <= iv.lower <= iv.upper <= 1.0


def posterior_pmf_direct(s, r, population, sample, alpha, beta):
    """Yield posterior evaluated straight from its closed form (test oracle)."""
    if s < r or s > population - sample + r:
        return 0.0
    log_comb = (
        gammaln(population - sample + 1)
        - gammaln(s - r + 1)
        - gammaln(population - sample - (s - r) + 1)
    )
    return float(
        np.exp(
            log_comb
            + betaln(s + alpha, population - s + beta)
            - betaln(alpha + r, beta + sample - r)
        )
    )


class TestBetaBinomialConjugacy:
    @given(
        population=st.integers(1, 50),
        data=st.data(),
        alpha=st.floats(0.1, 5.0),
        beta=st.floats(0.1, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_posterior_equals_shifted_prior_form(self, population, data, alpha, beta):
        sample = data.draw(st.integers(0, population))
        r = data.draw(st.integers(0, sample))
        shifted = BetaBinomialParams(population - sample, alpha + r, beta + sample - r)
        for s in range(r, population - sample + r + 1):
            direct = posterior_pmf_direct(s, r, population, sample, alpha, beta)
            conjugate = beta_binomial_pmf(shifted, s - r)
            assert direct == pytest.approx(conjugate, rel=1e-9, abs=1e-12)


class TestMonteCarloIntervals:
    def test_census_is_degenerate_at_true_recall(self):
        prob = RecallProblem.simple(40, 40, 18, 60, 60, 2)
        iv = monte_carlo_interval(
            prob, 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5), mc_config(1)
        )
        assert iv.lower == iv.upper == pytest.approx(18 / 20)

    def test_deterministic_under_fixed_stream(self):
        a = monte_carlo_interval(
            AUDIT_PROBLEM, 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5), mc_config(7)
        )
        b = monte_carlo_interval(
            AUDIT_PROBLEM, 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5), mc_config(7)
        )
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_quantile_stability_doubling_draws(self):
        base = monte_carlo_interval(
            AUDIT_PROBLEM,
            0.95,
            BETA_BINOMIAL,
            PriorSpec(0.5, 0.5),
            MonteCarloConfig(rng=RandomStream(3), draws=40_000),
        )
        double = monte_carlo_interval(
            AUDIT_PROBLEM,
            0.95,
            BETA_BINOMIAL,
            PriorSpec(0.5, 0.5),
            MonteCarloConfig(rng=RandomStream(4), draws=80_000),
        )
        assert abs(base.lower - double.lower) < 0.01
        assert abs(base.upper - double.upper) < 0.01

    def test_posterior_support_bound(self):
        # the unsampled remainder bounds each stratum's yield draw
        from recallci.intervals import segment_yield_draws

        seg = SegmentData.simple("retrieved", 50, 20, 5)
        draws = segment_yield_draws(
            seg, BETA_BINOMIAL, PriorSpec(0.5, 0.5), 5000, RandomStream(8), 0
        )
        assert draws.min() >= 5
        assert draws.max() <= 50 - 20 + 5

    def test_beta_jeffreys_close_to_betabin_for_huge_population(self):
        jeff = monte_carlo_interval(
            AUDIT_PROBLEM, 0.95, BETA_JEFFREYS, config=mc_config(9, 40_000)
        )
        bbin = monte_carlo_interval(
            AUDIT_PROBLEM, 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5), mc_config(10, 40_000)
        )
        assert jeff.lower == pytest.approx(bbin.lower, abs=0.02)
        assert jeff.upper == pytest.approx(bbin.upper, abs=0.02)

    def test_stratified_problem_supported(self):
        prob = RecallProblem(
            SegmentData(
                (StratumCounts(900, 60, 40), StratumCounts(1100, 40, 8)), "retrieved"
            ),
            SegmentData(
                (StratumCounts(40000, 200, 1), StratumCounts(60000, 100, 0)),
                "unretrieved",
            ),
        )
        iv = monte_carlo_interval(
            prob, 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5), mc_config(11)
        )
        assert 0.0 <= iv.lower <= iv.upper <= 1.0

    @pytest.mark.parametrize(
        "problem, jeffreys, betabin",
        [
            (
                AUDIT_PROBLEM,
                (0.11026098252369287, 0.5222111276661261),
                (0.1093632016108734, 0.5238390092879257),
            ),
            (  # r1 = 0: the lower bound is forced
                RecallProblem.simple(400_000, 160, 0, 9_000_000, 800, 14),
                (0.0, 0.04221267794963742),
                (0.0, 0.04147439971263574),
            ),
            (
                RecallProblem(
                    SegmentData(
                        (StratumCounts(900, 60, 40), StratumCounts(1100, 40, 8)), "retrieved"
                    ),
                    SegmentData(
                        (StratumCounts(40000, 200, 1), StratumCounts(60000, 100, 0)),
                        "unretrieved",
                    ),
                ),
                (0.2933946318536947, 0.9336377812587006),
                (0.2902364607170099, 0.9314917127071823),
            ),
        ],
        ids=["single-stratum", "r1-zero", "stratified"],
    )
    def test_bounds_pinned_at_fixed_seed(self, problem, jeffreys, betabin):
        # Segment i draws from RandomStream(2024).substream(i, *its counts);
        # a change of stream keys or of the draw order moves these bits.
        config = MonteCarloConfig(rng=RandomStream(2024), draws=2000)
        for family, prior, pinned in (
            (BETA_JEFFREYS, None, jeffreys),
            (BETA_BINOMIAL, PriorSpec(0.5, 0.5), betabin),
        ):
            iv = monte_carlo_interval(problem, 0.95, family, prior, config)
            assert (iv.lower, iv.upper, iv.method) == (*pinned, family)

    def test_requires_config(self):
        with pytest.raises(ValueError, match="MonteCarloConfig"):
            monte_carlo_interval(AUDIT_PROBLEM, 0.95, BETA_JEFFREYS)

    def test_rejects_tiny_draw_counts(self):
        with pytest.raises(ValueError, match="1000"):
            MonteCarloConfig(rng=RandomStream(1), draws=500)


def information_gain_double_sum(alpha, beta, population, sample):
    """The expected information gain as the plain double sum over sampled and
    unsampled relevant counts of joint mass x log(posterior / prior)."""
    xs = np.arange(sample + 1)
    js = np.arange(population - sample + 1)
    r_of = xs[:, None] + js[None, :]
    g_alpha = gammaln(alpha + np.arange(population + 1))
    g_beta = gammaln(beta + np.arange(population + 1))
    lc_sample = log_comb(sample, xs)
    lc_rest = log_comb(population - sample, js)
    lc_pop = log_comb(population, np.arange(population + 1))
    log_weight = (
        gammaln(alpha + beta) - gammaln(alpha) - gammaln(beta) - gammaln(alpha + beta + population)
        + lc_sample[:, None] + lc_rest[None, :] + g_alpha[r_of] + g_beta[population - r_of]
    )
    log_ratio = (
        lc_rest[None, :] + gammaln(alpha) + gammaln(beta) + gammaln(alpha + beta + sample)
        - lc_pop[r_of] - g_alpha[xs][:, None] - g_beta[sample - xs][:, None]
        - gammaln(alpha + beta)
    )
    return float(np.sum(np.exp(log_weight) * log_ratio))


class TestMostConservativePrior:
    @pytest.mark.parametrize(
        "population,sample",
        [(1, 0), (1, 1), (12, 0), (12, 12), (30, 10), (100, 20), (366, 177), (1000, 2), (1000, 800)],
    )
    @pytest.mark.parametrize("alpha,beta", [(0.01, 0.01), (2.0, 2.0), (0.3, 0.7), (1.7, 0.05)])
    def test_objective_matches_double_sum(self, population, sample, alpha, beta):
        # With nothing sampled (sample 0) the gain is 0 and both sides round
        # to within a few ulps of it.
        expected = information_gain_double_sum(alpha, beta, population, sample)
        got = expected_information_gain(alpha, beta, population, sample)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize(
        "population,sample,alpha",
        [
            (1000, 800, 0.48839741928714),
            (1000, 500, 0.4544484961267101),
            (700, 500, 0.47388262373451406),
            (366, 177, 0.4314990302365673),
            (100, 20, 0.29738464674430753),
            (60, 59, 0.7826092563782658),
            (1000, 2, 0.04109575392245347),
        ],
    )
    def test_solution_pinned(self, population, sample, alpha):
        # Literals recorded with the objective evaluated as the double sum.
        prior = most_conservative_prior(population, sample)
        assert prior.alpha == prior.beta
        assert prior.alpha == pytest.approx(alpha, abs=1e-6)

    def test_cold_solve_builds_one_entropy_table(self, monkeypatch):
        built = []
        table = intervals._entropy_table

        def recording(population, sample):
            built.append((population, sample))
            return table(population, sample)

        monkeypatch.setattr(intervals, "_entropy_table", recording)
        alpha = intervals._solve_most_conservative.__wrapped__(700, 500)
        assert built == [(700, 500)]
        assert alpha == intervals._solve_most_conservative(700, 500)

    @pytest.mark.parametrize("population,sample", [(100, 20), (30, 10), (1000, 800), (50000, 3000), (60, 59)])
    def test_solution_in_expected_range(self, population, sample):
        prior = most_conservative_prior(population, sample)
        assert prior.alpha == prior.beta
        assert 0.1 <= prior.alpha <= 1.0

    def test_objective_symmetric(self):
        a = expected_information_gain(0.3, 0.7, 30, 10)
        b = expected_information_gain(0.7, 0.3, 30, 10)
        assert a == pytest.approx(b, rel=1e-12)

    def test_objective_unimodal_spot_checks(self):
        values = [expected_information_gain(a, a, 100, 20) for a in (0.2, 0.5, 1.0)]
        # single interior peak near 0.3: monotone decrease over these probes,
        # and the solver's optimum beats all of them
        assert values[0] > values[1] > values[2]
        best = most_conservative_prior(100, 20).alpha
        peak = expected_information_gain(best, best, 100, 20)
        assert all(peak >= v for v in values)

    def test_capping_matches_reduced_problem(self):
        big = most_conservative_prior(10**6, 5000)
        capped = most_conservative_prior(1000, 800)
        assert big.alpha == pytest.approx(capped.alpha)

    def test_single_draw_sample_warns_and_returns_boundary(self):
        with pytest.warns(RuntimeWarning, match="degenerates"):
            prior = most_conservative_prior(50, 1)
        assert prior.alpha == 0.01

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            most_conservative_prior(10, 0)
        with pytest.raises(ValueError):
            most_conservative_prior(10, 11)


class TestComputeIntervalDispatch:
    def test_betabin_half_identity(self):
        via_dispatch = compute_interval("betabin-half", AUDIT_PROBLEM, 0.95, mc_config(7))
        (lower,), (upper,) = posterior_bounds(
            CountBatch.of_problem(AUDIT_PROBLEM), 0.95, BETA_BINOMIAL, PriorSpec(0.5, 0.5)
        )
        assert (via_dispatch.lower, via_dispatch.upper) == (lower, upper)

    def test_normal_laplace_identity(self):
        via_dispatch = compute_interval("normal-laplace", AUDIT_PROBLEM, 0.95)
        (lower,), (upper,) = normal_bounds(CountBatch.of_problem(AUDIT_PROBLEM), 0.95, 1)
        assert (via_dispatch.lower, via_dispatch.upper) == (lower, upper)

    def test_koopman_stratified_raises_through_dispatch(self):
        prob = RecallProblem(
            SegmentData(
                (StratumCounts(100, 10, 5), StratumCounts(100, 10, 5)), "retrieved"
            ),
            SegmentData.simple("unretrieved", 1000, 20, 1),
        )
        with pytest.raises(ValueError, match="stratified"):
            compute_interval("koopman", prob, 0.95)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown interval method"):
            compute_interval("bootstrap", AUDIT_PROBLEM, 0.95)


FORCEABLE = ("koopman", "beta-jeffreys", "betabin-uniform", "betabin-half", "betabin-mcp")


class TestForcingRules:
    @pytest.mark.parametrize("method", FORCEABLE)
    def test_upper_forced_when_unretrieved_sample_empty_of_relevant(self, method):
        prob = RecallProblem.simple(3000, 200, 120, 50000, 400, 0)
        iv = compute_interval(method, prob, 0.95, mc_config(13, draws=2000))
        assert iv.upper == 1.0

    @pytest.mark.parametrize("method", FORCEABLE)
    def test_lower_forced_when_retrieved_sample_empty_of_relevant(self, method):
        prob = RecallProblem.simple(3000, 200, 0, 50000, 400, 12)
        iv = compute_interval(method, prob, 0.95, mc_config(14, draws=2000))
        assert iv.lower == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_interval_bounds_always_ordered_in_unit_range(method):
    gen = np.random.default_rng(METHODS.index(method))
    config = mc_config(15, draws=2000)
    for _ in range(25):
        prob = random_problem(gen, max_pop=400)
        r1 = prob.retrieved.total_relevant_sampled
        r0 = prob.unretrieved.total_relevant_sampled
        if method == "naive-binomial" and r1 == 0 and r0 == 0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            iv = compute_interval(method, prob, 0.95, config)
        assert 0.0 <= iv.lower <= iv.upper <= 1.0
        assert isinstance(iv, RecallInterval)


# Designs as (retrieved population, sample, unretrieved population, sample).
BATCH_DESIGNS = (
    (2000, 100, 100000, 100),
    (100, 10, 1000, 20),  # every count up to all-relevant samples
    (5, 5, 10**9, 3),
    (10**9, 1, 10**9, 1),
)


def design_pairs(design, gen):
    """Counts of a design: the extremes of both segments and random interior pairs."""
    _, n1, _, n0 = design
    edges = [(r1, r0) for r1 in {0, 1, n1} for r0 in {0, 1, n0}]
    interior = zip(gen.integers(0, n1 + 1, 40).tolist(), gen.integers(0, n0 + 1, 40).tolist())
    return sorted(set(edges) | set(interior))


def batch_of(design, pairs):
    n_ret, s_ret, n_unret, s_unret = design
    r1, r0 = np.array(pairs).T
    return CountBatch.simple(n_ret, s_ret, r1, n_unret, s_unret, r0)


class TestBatchKernels:
    @pytest.mark.parametrize("method", CLOSED_FORM_METHODS)
    @pytest.mark.parametrize("design", BATCH_DESIGNS)
    def test_batch_bounds_equal_each_pair_alone(self, method, design):
        pairs = design_pairs(design, np.random.default_rng(sum(design) % 2**32))
        if method == "naive-binomial":
            pairs.remove((0, 0))
        for level in (0.95, 0.5, 0.999):
            lower, upper = interval_bounds(method, batch_of(design, pairs), level)
            for k, (r1, r0) in enumerate(pairs):
                alone = interval_bounds(method, batch_of(design, [(r1, r0)]), level)
                assert (lower[k], upper[k]) == (alone[0][0], alone[1][0]), (r1, r0)
                n_ret, s_ret, n_unret, s_unret = design
                problem = RecallProblem.simple(n_ret, s_ret, r1, n_unret, s_unret, r0)
                iv = compute_interval(method, problem, level)
                assert (iv.lower, iv.upper) == (lower[k], upper[k]), (r1, r0)

    @pytest.mark.parametrize("method", ["naive-binomial", *NORMAL_ADJUSTMENTS])
    def test_stratified_batch_equals_each_sample_alone(self, method):
        strata = (((1000, 50), (1000, 40)), ((50000, 100), (50000, 100), (7, 7)))
        gen = np.random.default_rng(8)
        relevant = tuple(
            tuple(gen.integers(0, sample + 1, 30) for _, sample in segment) for segment in strata
        )
        lower, upper = interval_bounds(method, CountBatch(strata, relevant), 0.95)
        for k in range(30):
            alone = CountBatch(strata, tuple(tuple(r[k:k + 1] for r in seg) for seg in relevant))
            assert (lower[k], upper[k]) == tuple(b[0] for b in interval_bounds(method, alone, 0.95))

    def test_empty_batch(self):
        for method in CLOSED_FORM_METHODS:
            batch = batch_of((100, 10, 1000, 20), np.empty((0, 2), int))
            lower, upper = interval_bounds(method, batch, 0.95)
            assert lower.shape == upper.shape == (0,), method


@pytest.mark.parametrize("level", (0.95, 0.5, 0.999, 0.001))
@pytest.mark.parametrize("size", (1000, 1001, 40_000))
def test_equal_tail_quantiles_match_sorted_nearest_rank(level, size):
    gen = np.random.default_rng(size)
    values = np.round(gen.beta(2.0, 5.0, size), 3)  # ties included
    ordered = np.sort(values)
    alpha = 1.0 - level
    ranks = [min(max(math.ceil(q * size), 1), size) for q in (alpha / 2.0, 1.0 - alpha / 2.0)]
    expected = tuple(float(ordered[r - 1]) for r in ranks)
    assert equal_tail_quantiles(values, level) == expected


# ---------------------------------------------------------------------------
# Exact beta-binomial quantiles.
# ---------------------------------------------------------------------------

BETABIN_METHODS = ("betabin-uniform", "betabin-mcp", "betabin-half")


def exhaustive_bounds(retrieved, unretrieved, prior, level):
    """Equal-tail posterior quantiles of recall by enumerating every yield.

    Segments are lists of (population, sample, relevant) strata.  The lower
    bound is the smallest atom with mass at or below it >= alpha/2, the upper
    the smallest with mass above it <= alpha/2; forcing rules applied.
    Returns the bounds and whether some atom's tail mass lies within 1e-12
    (relative) of alpha/2, where rounding rather than the posterior decides.
    """

    def segment(strata):
        ys, ps = np.zeros(1, dtype=np.int64), np.ones(1)
        for population, sample, r in strata:
            rest = population - sample
            if rest == 0:
                ky, kp = np.array([r]), np.ones(1)
            else:
                spec = prior(population, sample) if callable(prior) else prior
                params = BetaBinomialParams(rest, spec.alpha + r, spec.beta + sample - r)
                ky = r + np.arange(rest + 1)
                kp = np.array([beta_binomial_pmf(params, k) for k in range(rest + 1)])
            ys = (ys[:, None] + ky[None, :]).ravel()
            ps = (ps[:, None] * kp[None, :]).ravel()
        return ys, ps

    (y1, p1), (y0, p0) = segment(retrieved), segment(unretrieved)
    r1, r0 = sum(s[2] for s in retrieved), sum(s[2] for s in unretrieved)
    if r1 == 0 and r0 == 0:
        return (0.0, 1.0), False
    values, where = np.unique(y1[:, None] / (y1[:, None] + y0[None, :]), return_inverse=True)
    masses = np.bincount(where.ravel(), weights=(p1[:, None] * p0[None, :]).ravel())
    tail = (1.0 - level) / 2.0
    below = np.cumsum(masses)
    above = np.concatenate([np.cumsum(masses[::-1])[::-1][1:], [0.0]])
    lower = 0.0 if r1 == 0 else float(values[np.argmax(below >= tail)])
    upper = 1.0 if r0 == 0 else float(values[np.argmax(above <= tail)])
    near = [below] * (r1 > 0) + [above] * (r0 > 0)
    tie = any(np.any(np.abs(mass - tail) <= 1e-12 * tail) for mass in near)
    return (lower, max(lower, upper)), tie


def strata_batch(retrieved, unretrieved):
    """The batch of one sample holding these (population, sample, relevant) strata."""
    segments = (retrieved, unretrieved)
    return CountBatch(
        tuple(tuple((n, s) for n, s, _ in seg) for seg in segments),
        tuple(tuple(np.array([r]) for _, _, r in seg) for seg in segments),
    )


def random_strata(gen, count, max_pop):
    strata = []
    for _ in range(count):
        population = int(gen.integers(1, max_pop + 1))
        sample = int(gen.integers(1, population + 1))
        strata.append((population, sample, int(gen.integers(0, sample + 1))))
    return strata


# Where the supports of one exact search start: small yields and yields near 1e9.
SUPPORT_STARTS = (0, 1, 40, 10**9 - 100)


@st.composite
def index_cases(draw):
    """One ``_inner_index`` call: one to three elements, each a row of
    rising y1 yields, a y0 support and a t at an atom, beside one, or away
    from all of them."""
    width = draw(st.integers(1, 30))
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        first1 = draw(st.sampled_from(SUPPORT_STARTS)) + draw(st.integers(0, 30))
        first0 = draw(st.sampled_from(SUPPORT_STARTS)) + draw(st.integers(0, 30))
        length = draw(st.integers(1, 30))
        # A bound is searched only where its segment's sample holds a relevant
        # document, so no search pairs y1 = 0 with y0 = 0.
        if first1 == first0 == 0:
            first1, first0 = (1, 0) if draw(st.booleans()) else (0, 1)
        kind = draw(st.sampled_from(("atom", "any", "special")))
        if kind == "atom":
            # Past the y0 support too, so the index saturates at both ends.
            y1 = first1 + draw(st.integers(0, width - 1))
            y0 = max(first0 + draw(st.integers(-5, length + 5)), 0)
            atom = y1 / (y1 + y0)
            ulps = draw(st.sampled_from((0, 1, -1, 7, -7)) | st.integers(-2**30, 2**30))
            t = min(atom + ulps * float(np.spacing(atom)), 1.0)
        elif kind == "any":
            t = draw(st.floats(0.0, 1.0))
        else:  # 0.5 has ratio 1; t <= 0 an infinite ratio
            t = draw(st.sampled_from((0.5, 0.0, -5e-324, 1.0)))
        elements.append((t, first1, first0, length))
    return width, elements


class TestExactBetaBinomial:
    LEVELS = (0.95, 0.9, 0.5, 0.999, 1.0 - 1e-12)

    def test_equals_exhaustive_enumeration(self):
        gen = np.random.default_rng(20130217)
        cases = []
        for trial in range(360):
            retrieved = random_strata(gen, 1 + (trial % 7 == 0), 40)
            unretrieved = random_strata(gen, 1 + (trial % 5 == 0), 40)
            if trial % 11 == 0:  # census stratum
                n, s, r = retrieved[0]
                retrieved[0] = (n, n, min(r, n))
            if trial % 13 == 0:  # all-relevant sample
                n, s, _ = unretrieved[0]
                unretrieved[0] = (n, s, s)
            method, level = BETABIN_METHODS[trial % 3], self.LEVELS[trial % len(self.LEVELS)]
            cases.append((method, level, retrieved, unretrieved))
        # One pair both ways round: Y0's support the longer, then Y1's.
        pair = ([(300, 60, 20)], [(900, 40, 3)])
        for method in BETABIN_METHODS:
            for level in self.LEVELS:
                cases += [(method, level, *pair), (method, level, *pair[::-1])]
        checked = 0
        for case in cases:
            method, level, retrieved, unretrieved = case
            prior = prior_of(method)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected, tie = exhaustive_bounds(retrieved, unretrieved, prior, level)
                (lower,), (upper,) = betabin_exact_bounds(
                    strata_batch(retrieved, unretrieved), level, prior
                )
            if tie:  # e.g. masses 1/3 * 3/4 summing to exactly alpha/2 = 1/4
                continue
            assert lower == pytest.approx(expected[0], abs=1e-12), case
            assert upper == pytest.approx(expected[1], abs=1e-12), case
            checked += 1
        assert checked >= 330

    @pytest.mark.parametrize("method", BETABIN_METHODS)
    @pytest.mark.parametrize(
        "counts",
        [
            ((50, 10, 0), (80, 20, 5)),  # r1 = 0: lower forced to 0
            ((50, 10, 4), (80, 20, 0)),  # r0 = 0: upper forced to 1
            ((50, 10, 0), (80, 20, 0)),  # nothing relevant sampled: [0, 1]
            ((50, 10, 10), (80, 20, 20)),  # all-relevant samples
            ((35, 35, 14), (82, 82, 7)),  # census on both sides: a point
            ((10**9, 10**9 - 30, 7), (10**9, 10**9 - 25, 3)),  # populations near 1e9
        ],
    )
    @pytest.mark.parametrize("level", LEVELS)
    def test_degenerate_counts(self, method, counts, level):
        retrieved, unretrieved = [counts[0]], [counts[1]]
        prior = prior_of(method)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected, tie = exhaustive_bounds(retrieved, unretrieved, prior, level)
            (lower,), (upper,) = betabin_exact_bounds(
                strata_batch(retrieved, unretrieved), level, prior
            )
        assert not tie
        assert (lower, upper) == pytest.approx(expected, abs=1e-12)
        if counts[0][2] == 0:
            assert lower == 0.0
        if counts[1][2] == 0:
            assert upper == 1.0

    @pytest.mark.parametrize("method", BETABIN_METHODS)
    def test_tail_truncation_does_not_move_bounds(self, method, monkeypatch):
        # Supports of a few thousand yields, whose far tails the kernel drops.
        gen = np.random.default_rng(4)
        design = (6000, 150, 9000, 400)
        pairs = design_pairs(design, gen)
        batch = batch_of(design, pairs)
        prior = prior_of(method)
        for level in (0.95, 1.0 - 1e-12):
            truncated = betabin_exact_bounds(batch, level, prior)
            monkeypatch.setattr(intervals, "_TAIL_SHARE", 0.0)
            full = betabin_exact_bounds(batch, level, prior)
            monkeypatch.undo()
            assert np.array_equal(truncated[0], full[0]) and np.array_equal(truncated[1], full[1])

    @pytest.mark.parametrize("method", BETABIN_METHODS)
    @pytest.mark.parametrize(
        "design",
        [
            (100, 10, 1000, 20),
            (2000, 100, 15000, 100),
            (900, 30, 12000, 800),
            (10**9, 10**9 - 40, 10**9, 10**9 - 60),
            (5_000, 300, 2_600, 400),  # Y0's support the shorter for most pairs
            (20_000, 400, 5_000, 4_000),  # a near-census Y0 beside a wide Y1
        ],
    )
    def test_batch_bounds_equal_each_pair_alone(self, method, design):
        pairs = design_pairs(design, np.random.default_rng(sum(design) % 2**32))
        n_ret, s_ret, n_unret, s_unret = design
        config = mc_config(1, draws=1000)
        for level in (0.95, 0.5):
            lower, upper = interval_bounds(method, batch_of(design, pairs), level)
            for k, (r1, r0) in enumerate(pairs):
                alone = interval_bounds(method, batch_of(design, [(r1, r0)]), level)
                assert (lower[k], upper[k]) == (alone[0][0], alone[1][0]), (r1, r0)
                problem = RecallProblem.simple(n_ret, s_ret, r1, n_unret, s_unret, r0)
                iv = compute_interval(method, problem, level, config)
                assert (iv.lower, iv.upper) == (lower[k], upper[k]), (r1, r0)

    def test_stratified_batch_equals_each_sample_alone(self):
        strata = (((300, 50), (500, 40)), ((2000, 100), (3000, 100), (7, 7)))
        gen = np.random.default_rng(9)
        relevant = tuple(
            tuple(gen.integers(0, sample + 1, 25) for _, sample in segment) for segment in strata
        )
        for method in BETABIN_METHODS:
            lower, upper = interval_bounds(method, CountBatch(strata, relevant), 0.95)
            for k in range(25):
                alone = CountBatch(strata, tuple(tuple(r[k:k + 1] for r in seg) for seg in relevant))
                assert (lower[k], upper[k]) == tuple(
                    b[0] for b in interval_bounds(method, alone, 0.95)
                )

    def test_batch_across_stacks_equals_each_sample_alone(self, monkeypatch):
        """Exact searches run in stacks of at most ``_CHUNK_CELLS`` cells; a
        batch spanning several stacks gives every sample its bits alone and
        those of the batch read in the default stacks."""
        design = (400, 40, 3000, 60)
        pairs = design_pairs(design, np.random.default_rng(30))[:30]
        batch = batch_of(design, pairs)
        default = {method: interval_bounds(method, batch, 0.95) for method in BETABIN_METHODS}
        search, stacks = intervals._quantile_search, []

        def recording(outer, outer_rows, *args):
            stacks.append(len(outer_rows))
            return search(outer, outer_rows, *args)

        monkeypatch.setattr(intervals, "_quantile_search", recording)
        monkeypatch.setattr(intervals, "_CHUNK_CELLS", 1 << 11)
        for method in BETABIN_METHODS:
            stacks.clear()
            lower, upper = interval_bounds(method, batch, 0.95)
            # Several stacks, sized to their own longest support.
            assert len(stacks) >= 4 and len(set(stacks)) > 1 and min(stacks) > 1, stacks
            assert np.array_equal(lower, default[method][0]), method
            assert np.array_equal(upper, default[method][1]), method
            for k, pair in enumerate(pairs):
                alone = interval_bounds(method, batch_of(design, [pair]), 0.95)
                assert (lower[k], upper[k]) == (alone[0][0], alone[1][0]), (method, pair)

    def test_harness_bounds_equal_compute_interval(self, monkeypatch):
        # Exact beta-binomial bounds on `small`, lattice bounds on `legal`
        # and `neutral`; any seed and draw count give the harness's bounds.
        seen = []

        def recording(method, batch, level):
            bounds = interval_bounds(method, batch, level)
            seen.append((method, batch, level, bounds))
            return bounds

        monkeypatch.setattr(evaluation, "interval_bounds", recording)
        methods = ("koopman", *POSTERIOR_METHODS)
        config = evaluation.EvalConfig(
            master_seed=5, realizations=2, samples_per_realization=60, mc_draws=1000,
            methods=methods,
        )
        for scenario in ("small", "legal", "neutral"):
            seen.clear()
            evaluation.evaluate_coverage(builtin_scenario(scenario), config)
            assert [m for m, *_ in seen] == list(methods) * 2
            for method, batch, level, (lower, upper) in seen:
                ((n_ret, s_ret),), ((n_unret, s_unret),) = batch.strata
                (r1s,), (r0s,) = batch.relevant
                for k, (r1, r0) in enumerate(zip(r1s.tolist(), r0s.tolist())):
                    problem = RecallProblem.simple(n_ret, s_ret, r1, n_unret, s_unret, r0)
                    iv = compute_interval(method, problem, level, mc_config(k, draws=1000 + k))
                    assert (iv.lower, iv.upper) == (lower[k], upper[k]), (scenario, method, r1, r0)

    def test_empty_batch(self):
        for method in BETABIN_METHODS:
            lower, upper = interval_bounds(
                method, batch_of((100, 10, 1000, 20), np.empty((0, 2), int)), 0.95
            )
            assert lower.shape == upper.shape == (0,)

    @pytest.mark.parametrize("method", BETABIN_METHODS)
    def test_upper_bound_on_the_zero_atom(self, method, monkeypatch):
        """The retrieved remainder is one document with P(Y1 = 0) = 0.8 (or
        near it), so at 0.5 the upper bound is the atom 0 itself, found
        without halving toward it through the subnormals."""
        calls = []
        inner_index = intervals._inner_index

        def counted(*args):
            calls.append(1)
            return inner_index(*args)

        monkeypatch.setattr(intervals, "_inner_index", counted)
        batch = strata_batch([(4, 3, 0), (1, 1, 0)], [(126680, 142, 0), (8, 8, 7), (263, 185, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper = interval_bounds(method, batch, 0.5)
        assert (lower[0], upper[0]) == (0.0, 0.0)
        assert len(calls) <= 32

    @given(index_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_inner_index_counts_atoms(self, case):
        """Against its definition: per y1, the count of atoms whose own
        quotient y1 / (y1 + y0) is above t (the index of the smallest y0 at
        or below it)."""
        width, elements = case
        t, first1, first0, length = (np.array(v, dtype=float) for v in zip(*elements))
        y1 = first1[:, None] + np.arange(width)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # As the search computes it.
            ratio = np.where(t > 0.0, (1.0 - t) / t, np.inf)
        index = intervals._inner_index(t, ratio, y1, first0, length)
        for e, (t_e, _, first, count) in enumerate(elements):
            y0 = first + np.arange(count, dtype=float)
            for j, y in enumerate(y1[e]):
                expected = np.sum(y / (y + y0) > t_e)
                assert index[e, j] == expected, (t_e, y, first, count)

    def test_work_on_small_realizations(self, monkeypatch):
        """Realizations 0 and 4 of ``small``: the exact search takes as many
        index calls as its path pins, and all but a few of the cells it
        indexes skip the exact-quotient correction, which realization 4
        reaches."""
        calls, cells, corrected = [], [], []
        inner_index = intervals._inner_index

        def counted(t, ratio, outer, *args):
            calls.append(1)
            cells.append(outer.size)
            return inner_index(t, ratio, outer, *args)

        class CountingNumpy:
            """numpy as intervals.py sees it; its one np.array_equal call
            ends each step of the correction loop."""

            def __getattr__(self, name):
                return getattr(np, name)

            def array_equal(self, moved, previous):
                corrected.append(np.size(moved))
                return np.array_equal(moved, previous)

        monkeypatch.setattr(intervals, "_inner_index", counted)
        monkeypatch.setattr(intervals, "np", CountingNumpy())
        config = evaluation.EvalConfig(
            master_seed=20130217, realizations=5, samples_per_realization=500,
            methods=BETABIN_METHODS,
        )
        # The search path takes these calls (over 2,246,287 and 1,439,378
        # cells); a change to the path changes the count.
        for index, expected_calls in ((0, 275), (4, 202)):
            del calls[:], cells[:], corrected[:]
            evaluation._evaluate_realization(builtin_scenario("small"), config, index)
            assert len(calls) == expected_calls
            assert sum(corrected) < 1e-3 * sum(cells)
        assert corrected

    def test_nothing_sampled_relevant_resolves_no_prior(self):
        # The most conservative prior rejects an empty stratum sample; a
        # (0, 0) sample needs no posterior and gets [0, 1] as before.
        problem = RecallProblem(
            SegmentData((StratumCounts(100, 0, 0), StratumCounts(200, 20, 0)), "retrieved"),
            SegmentData.simple("unretrieved", 1000, 50, 0),
        )
        iv = compute_interval("betabin-mcp", problem, 0.95, mc_config(2, draws=1000))
        assert (iv.lower, iv.upper, iv.point) == (0.0, 1.0, None)

    def test_level_errors(self):
        problem = RecallProblem.simple(50, 10, 3, 80, 20, 4)
        for level in (0.0, 1.0):
            with pytest.raises(ValueError, match="strictly inside"):
                compute_interval("betabin-half", problem, level, mc_config(1, draws=1000))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("level", (-0.5, 0.0, 1.0, 1.5))
def test_every_method_rejects_levels_outside_unit_interval(method, level):
    batch = CountBatch.of_problem(AUDIT_PROBLEM)
    with pytest.raises(ValueError, match="strictly inside"):
        interval_bounds(method, batch, level)


# Three retrieved strata: the first two sum to tens of thousands of blocks,
# which merge before the third stratum's (at most 513) add to them.
THREE_STRATA = (((500, 374), (500, 224), (300_000, 99)), ((500, 297),))


def three_strata_relevant(count, seed):
    """Uniform counts, except that the last sample has none relevant in the
    first two strata: their beta-binomial sum holds a block at a yield of 0,
    to which the third stratum still adds yield."""
    gen = np.random.default_rng(seed)
    relevant = tuple(tuple(gen.integers(0, s + 1, count) for _, s in seg) for seg in THREE_STRATA)
    for r in relevant[0][:2]:
        r[-1] = 0
    return relevant


class TestStratifiedBatch:
    def test_stratified_batch_equals_each_sample_alone(self, monkeypatch):
        # Large remainders; few distinct counts per stratum, so samples share
        # their segments' posteriors, and sample 0 holds none.
        strata = (((300_000, 50), (500_000, 40)), ((2_000_000, 100), (3_000_000, 100), (7, 7)))
        gen = np.random.default_rng(10)
        relevant = tuple(
            tuple(np.append(0, gen.integers(0, 3, 24)) for _ in segment) for segment in strata
        )
        batch = CountBatch(strata, relevant)
        for method in POSTERIOR_METHODS:
            lower, upper = interval_bounds(method, batch, 0.95)
            assert (lower[0], upper[0]) == (0.0, 1.0)
            for k in range(25):
                alone = CountBatch(strata, tuple(tuple(r[k:k + 1] for r in seg) for seg in relevant))
                assert (lower[k], upper[k]) == tuple(
                    b[0] for b in interval_bounds(method, alone, 0.95)
                ), (method, k)
        # Three strata, whose summed blocks merge before a further sum.
        merged, merge = [], intervals._merge_blocks

        def recording(centre, mass, spread):
            merged.append(len(centre))
            return merge(centre, mass, spread)

        monkeypatch.setattr(intervals, "_merge_blocks", recording)
        relevant = three_strata_relevant(6, 1)
        batch = CountBatch(THREE_STRATA, relevant)
        for method in POSTERIOR_METHODS:
            lower, upper = interval_bounds(method, batch, 0.95)
            for k in range(6):
                alone = CountBatch(
                    THREE_STRATA, tuple(tuple(r[k:k + 1] for r in seg) for seg in relevant)
                )
                assert (lower[k], upper[k]) == tuple(
                    b[0] for b in interval_bounds(method, alone, 0.95)
                ), (method, k)
        # Only a merge before a further sum can take at most _SUM_POINTS blocks.
        assert any(size <= intervals._SUM_POINTS for size in merged)

    def test_three_strata_merge_before_each_further_sum(self, monkeypatch):
        """Summed blocks merge before a third stratum multiplies them: no
        merge takes more than 513 blocks (the most a summed stratum takes)
        times the larger of 513 and what one merge leaves (its bins and a
        block at a yield of 0).  The merge keeps the block at 0: the sample
        with none relevant in the first two strata keeps its bounds from the
        whole product of the three strata's blocks."""
        bins = 2 * int(intervals._LOG_SPAN * intervals._BLOCKS_PER_SD) + 1
        bound = 513 * max(513, bins + 1)
        merge = intervals._merge_blocks

        def bounded(centre, mass, spread):
            assert len(centre) <= bound, len(centre)
            return merge(centre, mass, spread)

        monkeypatch.setattr(intervals, "_merge_blocks", bounded)
        relevant = three_strata_relevant(20, 0)
        assert [int(r[-1]) for seg in relevant for r in seg] == [0, 0, 65, 106]
        # Bounds of that sample from the whole product, unmerged before the third stratum.
        whole = {
            "beta-jeffreys": (0.9989263736467094, 0.9992135151307314),
            "betabin-half": (0.9989110333176567, 0.9992293981786735),
            "betabin-mcp": (0.9989111358302006, 0.9992294855635174),
            "betabin-uniform": (0.9989082515741025, 0.999227051903896),
        }
        batch = CountBatch(THREE_STRATA, relevant)
        for method in POSTERIOR_METHODS:
            lower, upper = interval_bounds(method, batch, 0.95)
            assert np.all((0.0 <= lower) & (lower <= upper) & (upper <= 1.0))
            assert np.allclose((lower[-1], upper[-1]), whole[method], rtol=0, atol=1e-9), method


    @pytest.mark.parametrize("kernel", [posterior_bounds, betabin_exact_bounds])
    def test_prior_resolved_once_per_stratum_with_a_remainder(self, kernel, monkeypatch):
        # Many distinct counts per stratum, a census stratum, and, for
        # posterior_bounds, pairs on both the lattice and the exact path.
        strata = (((3000, 200), (900, 30)), ((4000, 100), (500, 40), (7, 7)))
        gen = np.random.default_rng(3)
        relevant = tuple(
            tuple(gen.integers(0, min(sample, 12) + 1, 40) for _, sample in segment)
            for segment in strata
        )
        paths = []

        def counted(name):
            original = getattr(intervals, name)

            def run(*args):
                paths.append(name)
                return original(*args)

            return run

        for name in ("_lattice_quantiles", "_exact_bounds"):
            monkeypatch.setattr(intervals, name, counted(name))
        calls = []

        def recording(population, sample):
            calls.append((population, sample))
            return PriorSpec(0.5, 0.5)

        args = (BETA_BINOMIAL,) if kernel is posterior_bounds else ()
        kernel(CountBatch(strata, relevant), 0.95, *args, recording)
        assert sorted(calls) == [(500, 40), (900, 30), (3000, 200), (4000, 100)]
        if kernel is posterior_bounds:
            assert {"_lattice_quantiles", "_exact_bounds"} <= set(paths)


@pytest.mark.parametrize("method", METHODS)
def test_nothing_sampled_relevant(method, monkeypatch):
    """(0, 0): naive-binomial raises; the others give [0, 1], draw nothing
    and resolve no prior, exact and Monte Carlo designs alike."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a (0, 0) sample drew or resolved a prior")

    monkeypatch.setattr(intervals, "_resolve_prior", forbidden)
    monkeypatch.setattr(intervals, "segment_yield_draws", forbidden)
    config = mc_config(1, draws=1000)
    for design in ((50, 10, 80, 20), (10**6, 100, 10**7, 200)):
        problem = RecallProblem.simple(design[0], design[1], 0, design[2], design[3], 0)
        batch = batch_of(design, [(0, 0), (0, 0)])
        if method == "naive-binomial":
            with pytest.raises(UndefinedEstimateError):
                compute_interval(method, problem, 0.95, config)
            with pytest.raises(UndefinedEstimateError):
                interval_bounds(method, batch, 0.95)
            continue
        iv = compute_interval(method, problem, 0.95, config)
        assert (iv.lower, iv.upper, iv.point) == (0.0, 1.0, None)
        lower, upper = interval_bounds(method, batch, 0.95)
        assert (lower.tolist(), upper.tolist()) == ([0.0, 0.0], [1.0, 1.0])


# A census segment with no relevant document pins its yield at 0, so recall is
# known: 0 when it is the retrieved one, 1 when it is the unretrieved one.  The
# first two take the exact kernel, the third the lattice's point-mass return.
CENSUS_WITHOUT_RELEVANT = (
    (RecallProblem.simple(100, 100, 0, 1000, 100, 5), 0.0),
    (RecallProblem.simple(1000, 100, 5, 100, 100, 0), 1.0),
    (RecallProblem.simple(5000, 5000, 0, 100000, 200, 3), 0.0),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("level", (0.5, 0.95, 1 - 1e-9))
def test_census_segment_without_relevant_pins_recall(method, level):
    for problem, recall in CENSUS_WITHOUT_RELEVANT:
        iv = compute_interval(method, problem, level)
        assert 0.0 <= iv.lower <= iv.upper <= 1.0
        if method in POSTERIOR_METHODS:
            assert (iv.lower, iv.upper) == (recall, recall)


LATTICE_TOL = 2e-5
"""Largest gap allowed between lattice and exact beta-binomial bounds.

Ten times below the median gap of 10,000-draw Monte Carlo bounds to exact
ones.  On the problems of ``test_lattice_matches_exact_bounds`` the lattice
answered 156 of 300 pairs (the switch rule sent the rest to the exact
kernel): largest gap 8.0e-6, p90 2.6e-6, median 8.0e-7.
"""


def random_lattice_problem(gen, strata):
    """Remainders of 2,000-20,000, samples of 2-30% of a stratum, and
    prevalences up to 0.6 with one stratum in ten all relevant."""
    segments = []
    for count in strata:
        segment = []
        for _ in range(count):
            remainder = int(gen.integers(2000, 20_001))
            fraction = gen.uniform(0.02, 0.3)
            sample = max(1, round(remainder * fraction / (1.0 - fraction)))
            r = sample if gen.random() < 0.1 else int(gen.binomial(sample, gen.uniform(0.0, 0.6)))
            segment.append((remainder + sample, sample, r))
        segments.append(segment)
    return segments


def lattice_answers(batch, prior):
    """Whether the lattice, not the exact kernel, gives this one-sample batch's bounds."""
    sds = [
        intervals._betabin_yield_sd(
            strata,
            tuple(int(r[0]) for r in counts),
            [intervals._resolve_prior(prior, n, s) if n > s else None for n, s in strata],
        )
        for strata, counts in zip(batch.strata, batch.relevant)
    ]
    return sds[0] * sds[1] >= intervals._LATTICE_ATOMS_MIN


def reference_mass_below(method, problem, bound, draws=10**7, chunk=10**6, seed=77):
    """Share of ``draws`` Monte Carlo posterior recall values at or below ``bound``."""
    family, prior = METHOD_TABLE[method].params
    below = 0
    for c in range(draws // chunk):
        stream = RandomStream(seed, path=(c,))
        y1 = segment_yield_draws(problem.retrieved, family, prior, chunk, stream, 0)
        y0 = segment_yield_draws(problem.unretrieved, family, prior, chunk, stream, 1)
        below += int(np.count_nonzero(y1 / (y1 + y0) <= bound))
    return below / draws


def scalar_lattice_quantiles(h, zero, nodes1, nodes0, targets):
    """The lattice reader on one pair, one target at a time: the reference
    for ``intervals._lattice_quantiles``, which reads pairs in stacks."""
    (first1, table1, added1), (first0, table0, added0) = nodes1, nodes0
    pmf = np.convolve(table1, table0[::-1])
    first = first1 - first0 - len(table0) + 1
    below = zero + np.cumsum(pmf)
    cdf = np.concatenate(([zero], below, below[-1:]))
    coef = ((added1 + added0) / 2.0 - h * h / 24.0) / (h * h)
    f = cdf[1:-1] - coef * (cdf[2:] - 2.0 * cdf[1:-1] + cdf[:-2])
    out = []
    for p in targets:
        if zero >= p or below[-1] < p:
            out.append(0.0 if zero >= p else 1.0)
            continue
        i = max(int(np.argmax(f >= p)), 1)
        start = min(max(i - 2, 0), len(f) - 4)
        t = math.nan
        if start >= 0:
            near = f[start : start + 4].tolist()
            if near[0] < near[1] < near[2] < near[3]:
                value = 0.0  # where p falls by the cubic in f through the four nodes
                for a in range(1, 4):
                    weight = float(a)
                    for b in range(4):
                        if b != a:
                            weight *= (p - near[b]) / (near[a] - near[b])
                    value += weight
                t = start + value
        if not i - 1 <= t <= i:
            t = i - 1 + (p - f[i - 1]) / (f[i] - f[i - 1])
        out.append(1.0 / (1.0 + math.exp(-(first + 0.5 + t) * h)))
    return out


class TestLattice:
    def test_lattice_matches_exact_bounds(self):
        gen = np.random.default_rng(20130217)
        answered, gaps = 0, []
        for trial in range(300):
            method = BETABIN_METHODS[trial % 3]
            prior = prior_of(method)
            segments = random_lattice_problem(gen, (1, 1 + trial % 2))
            r1, r0 = (sum(r for *_, r in seg) for seg in segments)
            if r1 == 0 and r0 == 0:
                continue
            batch = strata_batch(*segments)
            (lower,), (upper,) = interval_bounds(method, batch, 0.95)
            (exact_lo,), (exact_hi,) = betabin_exact_bounds(batch, 0.95, prior)
            gaps.append(max(abs(lower - exact_lo), abs(upper - exact_hi)))
            assert gaps[-1] <= LATTICE_TOL, (trial, segments, method)
            answered += lattice_answers(batch, prior)
        assert len(gaps) >= 290 and answered >= 120

    @pytest.mark.parametrize(
        "segments",
        [
            ([(2_400_000, 320, 57)], [(31_000_000, 1600, 9)]),  # legal-sized
            ([(400_000, 160, 0)], [(9_000_000, 800, 14)]),  # r1 = 0
            ([(1_200_000, 640, 410)], [(45_000_000, 3200, 0)]),  # r0 = 0
            (
                [(300_000, 200, 61), (900_000, 100, 12)],
                [(20_000_000, 1200, 7), (4_000_000, 400, 5)],
            ),
            # Strata with nothing relevant sampled, and a census stratum.
            (
                [(300_000, 50, 1), (500_000, 40, 0)],
                [(2_000_000, 100, 0), (3_000_000, 100, 0), (7, 7, 2)],
            ),
            # Three strata, whose summed blocks merge before the third adds
            # (the first sample of three_strata_relevant(20, 0)) ...
            ([(500, 374, 318), (500, 224, 62), (300_000, 99, 40)], [(500, 297, 250)]),
            # ... and where the first two hold a block at a yield of 0.
            ([(500, 374, 0), (500, 224, 0), (300_000, 99, 40)], [(500, 297, 250)]),
        ],
    )
    def test_lattice_within_monte_carlo_reference(self, segments):
        """Each unforced bound leaves the share of 10^7 posterior draws at or
        below it within 5 sigma of its tail probability."""
        problem = RecallProblem(
            SegmentData(tuple(StratumCounts(*s) for s in segments[0]), "retrieved"),
            SegmentData(tuple(StratumCounts(*s) for s in segments[1]), "unretrieved"),
        )
        r1, r0 = (sum(s[2] for s in seg) for seg in segments)
        sigma = math.sqrt(0.025 * 0.975 / 10**7)
        stratified = len(segments[0]) > 1
        for method in ("beta-jeffreys", "betabin-half") if stratified else POSTERIOR_METHODS:
            iv = compute_interval(method, problem, 0.95, mc_config(3, 1000))
            for bound, prob, forced in ((iv.lower, 0.025, r1 == 0), (iv.upper, 0.975, r0 == 0)):
                if forced:
                    continue
                share = reference_mass_below(method, problem, bound)
                assert abs(share - prob) <= 5.0 * sigma, (method, bound, share)

    @pytest.mark.parametrize("method", POSTERIOR_METHODS)
    def test_lattice_batch_equals_each_sample_alone(self, method):
        design = (800_000, 320, 6_000_000, 1600)
        pairs = design_pairs(design, np.random.default_rng(8))
        lower, upper = interval_bounds(method, batch_of(design, pairs), 0.95)
        for k, pair in enumerate(pairs):
            alone = interval_bounds(method, batch_of(design, [pair]), 0.95)
            assert (lower[k], upper[k]) == (alone[0][0], alone[1][0]), pair

    def test_lattice_batch_across_steps_and_stacks_equals_each_pair_alone(self, monkeypatch):
        """Pairs read together share a lattice step h and a stack of at most
        ``_CHUNK_CELLS`` cells; a batch spanning several of each gives every
        pair its bits alone, near level 1 too."""
        design = (800_000, 320, 6_000_000, 1600)
        pairs = [(r1, r0) for r1 in range(0, 100, 4) for r0 in range(0, 40, 6)]
        reads = []
        read = intervals._lattice_quantiles

        def recording(h, members, targets):
            longest = max(len(t1) + len(t0) - 1 for _, (_, t1, _), (_, t0, _) in members)
            reads.append((h, len(members), intervals._CHUNK_CELLS // longest))
            return read(h, members, targets)

        monkeypatch.setattr(intervals, "_lattice_quantiles", recording)
        for method in POSTERIOR_METHODS:
            for level in (0.95, 1.0 - 1e-12):
                reads.clear()
                lower, upper = interval_bounds(method, batch_of(design, pairs), level)
                assert len({h for h, _, _ in reads}) >= 2, reads
                assert any(count > per_stack for _, count, per_stack in reads), reads
                for k, pair in enumerate(pairs):
                    alone = interval_bounds(method, batch_of(design, [pair]), level)
                    assert (lower[k], upper[k]) == (alone[0][0], alone[1][0]), (method, level, pair)

    def test_batch_across_tabulation_stacks_equals_each_sample_alone(self, monkeypatch):
        """Segments tabulated together, in stacks of at most ``_CHUNK_CELLS``
        edges, keep their bits: a batch whose segments span several stacks
        gives every sample its bounds alone.  The batches hold windows from a
        count of 0, a window wholly below a yield of 1, b < 2 windows that
        reach the top of the support at a population near 1e9 (summed count
        by count, per segment), and a census stratum beside summed strata."""
        stacks, block_edges = [], intervals._block_edges

        def recording(grids, family):
            stacks.append(len(grids))
            return block_edges(grids, family)

        runs, pmf = [], intervals._betabin_pmf

        def recording_pmf(remainder, a, b, k, lengths):
            runs.append(len(lengths))
            return pmf(remainder, a, b, k, lengths)

        monkeypatch.setattr(intervals, "_block_edges", recording)
        monkeypatch.setattr(intervals, "_betabin_pmf", recording_pmf)
        gen = np.random.default_rng(21)
        batches = {
            "one stratum": batch_of(
                (800_000, 320, 6_000_000, 1600),
                [(r1, (0, 1, 3, 9, 30)[r1 % 5]) for r1 in range(0, 100, 2)],
            ),
            "below one, top of the support": batch_of(
                (1000, 999, 999_999_937, 1000),
                [(r1, r0) for r1 in (0, 1, 500, 999) for r0 in (1000, 999, 990)],
            ),
            "summed, census": CountBatch(
                (((300_000, 50), (500_000, 40)), ((2_000_000, 100), (3_000_000, 100), (7, 7))),
                tuple(
                    tuple(np.append(0, gen.integers(0, 4, 12)) for _ in segment)
                    for segment in (range(2), range(3))
                ),
            ),
        }
        for method in POSTERIOR_METHODS:
            for level in (0.5, 0.95, 1.0 - 1e-9):
                for name, batch in batches.items():
                    stacks.clear()
                    runs.clear()
                    lower, upper = interval_bounds(method, batch, level)
                    if name == "one stratum":
                        assert len(stacks) >= 2 and max(stacks) > 1, (method, level, stacks)
                    if name == "below one, top of the support" and method != "beta-jeffreys":
                        # Seven segments in two stacks, and the top sums' one-segment calls.
                        assert sorted(stacks) == [3, 4] and 1 in runs, (method, level, stacks, runs)
                    for k in range(len(lower)):
                        alone = CountBatch(
                            batch.strata,
                            tuple(tuple(r[k : k + 1] for r in seg) for seg in batch.relevant),
                        )
                        assert (lower[k], upper[k]) == tuple(
                            b[0] for b in interval_bounds(method, alone, level)
                        ), (method, level, name, k)

    @pytest.mark.parametrize("level", (0.5, 0.95, 1.0 - 1e-12))
    def test_stacked_reads_equal_the_scalar_reader(self, level, monkeypatch):
        read, rows = intervals._lattice_quantiles, []

        def checking(h, members, targets):
            out = read(h, members, targets)
            for got, (zero, nodes1, nodes0) in zip(out.tolist(), members):
                assert got == scalar_lattice_quantiles(h, zero, nodes1, nodes0, targets)
            rows.append(len(members))
            return out

        monkeypatch.setattr(intervals, "_lattice_quantiles", checking)
        design = (800_000, 320, 6_000_000, 1600)
        pairs = [(r1, r0) for r1 in range(0, 100, 4) for r0 in range(0, 40, 6)]
        strata = (((300_000, 50), (500_000, 40)), ((2_000_000, 100), (3_000_000, 100), (7, 7)))
        gen = np.random.default_rng(10)
        relevant = tuple(tuple(gen.integers(0, 5, 25) for _ in segment) for segment in strata)
        for method in POSTERIOR_METHODS:
            interval_bounds(method, batch_of(design, pairs), level)
            interval_bounds(method, CountBatch(strata, relevant), level)
        assert sum(rows) >= 4 * len(pairs)

    def test_stacked_reads_equal_the_scalar_reader_on_random_tables(self):
        """Short tables, tables with empty nodes (f not monotone), mass at
        Y1 = 0, negative and positive corrections, targets near 0 and 1."""
        gen = np.random.default_rng(3)
        for trial in range(200):
            h = 2.0 ** int(gen.integers(-8, 0))
            pairs = []
            for _ in range(int(gen.integers(1, 40))):
                zero = float(gen.choice([0.0, 0.0, gen.uniform(0.0, 0.3)]))
                tables = [gen.random(int(gen.integers(2, 60))) ** gen.uniform(0.5, 8) for _ in "10"]
                if trial % 5 == 0:
                    tables[0][1:][gen.random(len(tables[0]) - 1) < 0.5] = 0.0
                scale = math.sqrt(tables[0].sum() * tables[1].sum())
                pairs.append((zero, *(
                    (int(gen.integers(-50, 50)), table * share / scale,
                     float(gen.uniform(-h * h / 12.0, h * h / 4.0)))
                    for table, share in zip(tables, (1.0 - zero, 1.0))
                )))
            targets = tuple(gen.choice([1e-13, 0.025, 0.5, 0.975, 1.0 - 1e-13], 2, replace=False))
            with np.errstate(divide="ignore", invalid="ignore"):
                try:
                    expected = [scalar_lattice_quantiles(h, *pair, targets) for pair in pairs]
                except OverflowError:  # a crossing between equal f values, out of range
                    with pytest.raises(OverflowError):
                        intervals._lattice_quantiles(h, pairs, targets)
                    continue
                np.testing.assert_array_equal(intervals._lattice_quantiles(h, pairs, targets), expected)

    def test_few_atoms_take_exact_bounds(self, monkeypatch):
        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice ran")

        problem = RecallProblem.simple(2600, 400, 90, 5000, 300, 40)
        batch = CountBatch.of_problem(problem)
        monkeypatch.setattr(intervals, "_lattice_quantiles", no_lattice)
        for method in BETABIN_METHODS:
            assert not lattice_answers(batch, prior_of(method))
            iv = compute_interval(method, problem, 0.95, mc_config(11, 4000))
            (lower,), (upper,) = betabin_exact_bounds(batch, 0.95, prior_of(method))
            assert (iv.lower, iv.upper) == (lower, upper)

    def test_many_atoms_take_lattice_bounds(self, monkeypatch):
        def no_exact(*args, **kwargs):
            raise AssertionError("exact path ran")

        problem = RecallProblem.simple(60_000, 400, 90, 300_000, 300, 40)
        monkeypatch.setattr(intervals, "_exact_bounds", no_exact)
        for method in BETABIN_METHODS:
            assert lattice_answers(CountBatch.of_problem(problem), prior_of(method))
            iv = compute_interval(method, problem, 0.95, mc_config(11, 4000))
            assert 0.0 < iv.lower < iv.point < iv.upper < 1.0
        # Beta posteriors are continuous: always the lattice, at any size.
        small = RecallProblem.simple(50, 10, 3, 80, 20, 4)
        iv = compute_interval("beta-jeffreys", small, 0.95, mc_config(11, 4000))
        assert 0.0 < iv.lower < iv.point < iv.upper < 1.0

    def test_prior_warnings_and_errors_reach_the_caller(self):
        strata = (StratumCounts(500_000, 1, 1), StratumCounts(300_000, 40, 12))
        problem = RecallProblem(
            SegmentData(strata, "retrieved"), SegmentData.simple("unretrieved", 9_000_000, 200, 7)
        )
        with pytest.warns(RuntimeWarning, match="single-draw"):
            compute_interval("betabin-mcp", problem, 0.95, mc_config(3, draws=2000))
        # The most conservative prior rejects a stratum with no sample.
        empty = RecallProblem(
            SegmentData((StratumCounts(500_000, 0, 0), strata[1]), "retrieved"),
            SegmentData.simple("unretrieved", 9_000_000, 200, 7),
        )
        with pytest.raises(ValueError, match="sample must lie"):
            compute_interval("betabin-mcp", empty, 0.95, mc_config(3, draws=2000))

    def test_census_segments(self):
        # A census stratum is a point mass; a census on both sides, a point.
        both = RecallProblem.simple(40, 40, 18, 60, 60, 2)
        one = RecallProblem.simple(40, 40, 18, 600_000, 300, 2)
        for method in POSTERIOR_METHODS:
            iv = compute_interval(method, both, 0.95, mc_config(1, 1000))
            assert iv.lower == iv.upper == pytest.approx(18 / 20)
            iv = compute_interval(method, one, 0.95, mc_config(1, 1000))
            assert 0.0 < iv.lower < iv.upper < 1.0

    @pytest.mark.parametrize("method", POSTERIOR_METHODS)
    def test_widths_grow_up_to_levels_near_one(self, method):
        # Block masses that sum short of 1 would read as an upper tail past
        # every node and send the upper bound to 1 near level 1; with a
        # censused retrieved segment recall cannot exceed 30 / 35.
        census = RecallProblem.simple(100, 100, 30, 100000, 200, 5)
        for problem in (AUDIT_PROBLEM, census):
            widths = []
            for k in range(3, 13):
                iv = compute_interval(method, problem, 1.0 - 10.0**-k, mc_config(1, 1000))
                widths.append(iv.width)
                if problem is census:
                    assert iv.upper <= 30 / 35, (k, iv)
            assert all(a <= b for a, b in zip(widths, widths[1:])), widths

    @pytest.mark.parametrize("n_ret, s_ret", [(2, 1), (10, 9), (1000, 999)])
    def test_beta_window_below_one_yield(self, n_ret, s_ret):
        """A Jeffreys stratum with none relevant sampled whose whole window lies
        below a yield of 1 takes blocks down to a millionth of its top."""
        problem = RecallProblem.simple(n_ret, s_ret, 0, 100, 50, 10)
        iv = compute_interval("beta-jeffreys", problem, 0.95)
        mc = monte_carlo_interval(problem, 0.95, BETA_JEFFREYS, None, mc_config(5, 400_000))
        assert iv.lower == mc.lower == 0.0
        assert iv.upper == pytest.approx(mc.upper, rel=0.01), (iv, mc)

    @pytest.mark.parametrize(
        "unretrieved, counts",
        [((1_000_000, 28, 26), 14_840), ((1_000_010, 10, 5), 66_061)],
    )
    def test_top_sum_takes_no_more_counts(self, unretrieved, counts, monkeypatch):
        """Coarse tail blocks leave the count-by-count top sum as it was: no
        pmf call takes more counts for one segment than the all-fine layout's
        top sum.  In the second problem the window reaches the top of the
        support and its core does not."""
        sizes, pmf = [], intervals._betabin_pmf

        def recording(remainder, a, b, k, lengths):
            sizes.extend(lengths)
            return pmf(remainder, a, b, k, lengths)

        monkeypatch.setattr(intervals, "_betabin_pmf", recording)
        problem = RecallProblem.simple(453, 453, 321, *unretrieved)
        compute_interval("betabin-uniform", problem, 0.95)
        assert 0 < max(sizes) <= counts, sizes

    @pytest.mark.parametrize(
        "retrieved, unretrieved",
        [
            ([(453, 453, 321)], [(15, 3, 2), (469_063_223, 28, 26)]),
            ([(453, 453, 321)], [(10_000_010, 10, 5)]),
        ],
    )
    def test_top_of_the_support_takes_two_points_a_block(
        self, retrieved, unretrieved, monkeypatch
    ):
        """A window that reaches the top of the support where the pmf is smooth
        there (b >= 2) sums no count by count: no pmf call takes more than two
        points a block for one segment.  Summing the top blocks' counts took
        one call on 22,475,370 counts (766 MB) in the first problem and
        639,125 in the second."""
        sizes, pmf = [], intervals._betabin_pmf

        def recording(remainder, a, b, k, lengths):
            sizes.extend(lengths)
            return pmf(remainder, a, b, k, lengths)

        monkeypatch.setattr(intervals, "_betabin_pmf", recording)
        batch = strata_batch(retrieved, unretrieved)
        for method in BETABIN_METHODS:
            sizes.clear()
            (lower,), (upper,) = interval_bounds(method, batch, 0.95)
            assert 0.0 < lower < upper < 1.0, method
            assert 0 < max(sizes) <= 2 * intervals._MAX_BLOCKS, (method, sizes)

    @pytest.mark.parametrize("level", (0.5, 0.95, 1.0 - 1e-9))
    def test_tabulation_within_its_references(self, level, monkeypatch):
        """Coarse tail blocks and Gauss-Legendre beta masses keep every bound
        within 1e-6 of the all-fine layout and of beta CDF differences, with
        none, some and all of a stratum's sample relevant."""
        designs = {
            (800_000, 320, 6_000_000, 1600): [(0, 9), (320, 9), (57, 9), (57, 0), (57, 1600)],
            (52, 19, 3330, 797): [(0, 43), (19, 43), (18, 43), (5, 0), (5, 797)],
        }
        masses = intervals._stratum_masses

        def cdf_differences(strata, family, left, right, firsts):
            if family != BETA_JEFFREYS:
                return masses(strata, family, left, right, firsts)
            out = []
            for (remainder, (a, b, *_)), f0, f1 in zip(strata, firsts, firsts[1:]):
                edges = np.append(left[f0:f1], right[f1 - 1])
                out.append(np.diff(intervals.betainc(a, b, np.minimum(edges / remainder, 1.0))))
            return np.concatenate(out)

        references = {"_TAIL_COARSE": 1, "_stratum_masses": cdf_differences}
        for design, pairs in designs.items():
            batch = batch_of(design, pairs)
            for method in POSTERIOR_METHODS:
                bounds = np.array(interval_bounds(method, batch, level))
                for name, value in references.items():
                    with monkeypatch.context() as patch:
                        patch.setattr(intervals, name, value)
                        reference = np.array(interval_bounds(method, batch, level))
                    gap = np.max(np.abs(bounds - reference))
                    assert gap <= 1e-6, (design, method, name, gap)

    def test_coarse_tails_cut_blocks(self, monkeypatch):
        """A legal-sized pair tabulates under 80% of the all-fine layout's blocks."""
        blocks, block_edges = [], intervals._block_edges

        def counted(*args):
            left, right, firsts = block_edges(*args)
            blocks.append(len(left))
            return left, right, firsts

        monkeypatch.setattr(intervals, "_block_edges", counted)
        batch = batch_of((2_400_000, 320, 31_000_000, 1600), [(57, 9)])
        for method in POSTERIOR_METHODS:
            interval_bounds(method, batch, 0.95)
            coarse = sum(blocks)
            with monkeypatch.context() as patch:
                patch.setattr(intervals, "_TAIL_COARSE", 1)
                interval_bounds(method, batch, 0.95)
            assert coarse < 0.8 * (sum(blocks) - coarse), (method, blocks)
            blocks.clear()

    @staticmethod
    def unclipped(monkeypatch):
        """Node tables over each segment's whole window, as before they stopped at its core."""
        tabulate = intervals._tabulate

        def whole_window(*args):
            return [table._replace(core=(-math.inf, math.inf)) for table in tabulate(*args)]

        monkeypatch.setattr(intervals, "_tabulate", whole_window)

    def test_core_edges_cut_cells(self, monkeypatch):
        """A legal-sized pair convolves under half the cells of node tables
        over the whole window; a pair of summed strata, whose tables span the
        window, convolves as many as before."""
        cells, read = [], intervals._lattice_quantiles

        def counting(h, members, targets):
            cells.extend(len(t1) * len(t0) for _, (_, t1, _), (_, t0, _) in members)
            return read(h, members, targets)

        monkeypatch.setattr(intervals, "_lattice_quantiles", counting)
        legal = batch_of((2_400_000, 320, 31_000_000, 1600), [(57, 9)])
        summed = strata_batch(
            [(300_000, 200, 61), (900_000, 100, 12)], [(20_000_000, 1200, 7), (4_000_000, 400, 5)]
        )
        # The summed pair's cells per method, as counted before node tables stopped at cores.
        summed_cells = {
            "beta-jeffreys": 218_834,
            "betabin-uniform": 211_356,
            "betabin-mcp": 220_455,
            "betabin-half": 220_455,
        }
        for method in POSTERIOR_METHODS:
            counts = []
            for batch in (legal, summed):
                cells.clear()
                interval_bounds(method, batch, 0.95)
                counts.append(sum(cells))
                with monkeypatch.context() as patch:
                    self.unclipped(patch)
                    cells.clear()
                    interval_bounds(method, batch, 0.95)
                    counts.append(sum(cells))
            core, whole, summed_core, summed_whole = counts
            assert core < 0.5 * whole, (method, counts)
            assert summed_core == summed_whole == summed_cells[method], (method, counts)

    @pytest.mark.parametrize("level", (0.5, 0.95, 1.0 - 1e-9))
    def test_core_edges_within_the_whole_window(self, level, monkeypatch):
        """Node tables that stop at each one-stratum segment's core keep every
        bound within 2e-6 of tables over the whole window, on the designs of
        ``test_tabulation_within_its_references``.  The largest gap measured
        there was 8.2e-7 (beta-jeffreys at level 1 - 1e-9 on the 800,000
        design); on the perfbench panels 5.6e-7, and 2.3e-6 on its audits."""
        designs = {
            (800_000, 320, 6_000_000, 1600): [(0, 9), (320, 9), (57, 9), (57, 0), (57, 1600)],
            (52, 19, 3330, 797): [(0, 43), (19, 43), (18, 43), (5, 0), (5, 797)],
        }
        for design, pairs in designs.items():
            batch = batch_of(design, pairs)
            for method in POSTERIOR_METHODS:
                bounds = np.array(interval_bounds(method, batch, level))
                with monkeypatch.context() as patch:
                    self.unclipped(patch)
                    reference = np.array(interval_bounds(method, batch, level))
                gap = np.max(np.abs(bounds - reference))
                assert gap <= 2e-6, (design, method, gap)


@pytest.mark.parametrize("design", [(5000, 100, 200_000, 300), (800, 60, 20_000, 40)])
def test_bounds_monotone_in_relevant_counts(design):
    """Lower and upper bounds never fall as r1 grows or rise as r0 grows."""
    pairs = [(r1, r0) for r1 in range(61) for r0 in range(31)]
    batch = batch_of(design, pairs)
    kernels = {
        "exact": betabin_exact_bounds(batch, 0.95, PriorSpec(0.5, 0.5)),
        "koopman": koopman_bounds(batch, 0.95),
    }
    # Nearly every pair of these designs takes lattice bounds.
    for method in POSTERIOR_METHODS:
        kernels[method] = interval_bounds(method, batch, 0.95)
    for name, (lower, upper) in kernels.items():
        for bound in (lower.reshape(61, 31), upper.reshape(61, 31)):
            assert np.all(np.diff(bound, axis=0) >= 0.0), name
            assert np.all(np.diff(bound, axis=1) <= 0.0), name
