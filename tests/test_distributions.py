"""Distribution kernels: frozen values, recurrences, and sampler behavior."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recallci.distributions import (
    BetaBinomialParams,
    HypergeomParams,
    beta_binomial_pmf,
    binomial_pmf,
    chi_square_1df_quantile,
    hypergeom_pmf,
    hypergeom_successor_ratio,
    hypergeom_support_pmf,
    normal_quantile,
    sample_hypergeom,
)
from recallci.core import SegmentData
from recallci.intervals import BETA_BINOMIAL, BETA_JEFFREYS, PriorSpec, segment_yield_draws
from recallci.streams import RandomStream


def exact_hypergeom(N, R, n, k):
    """Big-integer oracle for the hypergeometric pmf."""
    if k < 0 or k > n or k > R or n - k > N - R:
        return 0.0
    return float(Fraction(comb(R, k) * comb(N - R, n - k), comb(N, n)))


class TestHypergeomPmf:
    def test_full_overlap_count(self):
        assert hypergeom_pmf(HypergeomParams(10, 5, 5), 5) == pytest.approx(1 / 252)

    def test_enumerated_small_case(self):
        # C(3,2) * C(3,1) / C(6,3) = 9/20
        assert hypergeom_pmf(HypergeomParams(6, 3, 3), 2) == pytest.approx(0.45)

    def test_all_success_population(self):
        assert hypergeom_pmf(HypergeomParams(40, 40, 7), 7) == pytest.approx(1.0)

    def test_outside_support_is_zero(self):
        params = HypergeomParams(20, 5, 10)
        assert hypergeom_pmf(params, 6) == 0.0
        assert hypergeom_pmf(params, -1) == 0.0

    @given(
        N=st.integers(1, 400),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_big_integer_oracle(self, N, data):
        R = data.draw(st.integers(0, N))
        n = data.draw(st.integers(0, N))
        k = data.draw(st.integers(0, n))
        params = HypergeomParams(N, R, n)
        assert hypergeom_pmf(params, k) == pytest.approx(
            exact_hypergeom(N, R, n, k), rel=1e-10, abs=1e-300
        )

    @pytest.mark.parametrize("N,R,n", [(50, 20, 10), (2000, 700, 450), (1500, 3, 1500)])
    def test_sums_to_one(self, N, R, n):
        params = HypergeomParams(N, R, n)
        total = sum(hypergeom_pmf(params, k) for k in params.support())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HypergeomParams(10, 11, 5)
        with pytest.raises(ValueError):
            HypergeomParams(10, 5, 11)


class TestSuccessorRatio:
    def test_direct_value(self):
        assert hypergeom_successor_ratio(HypergeomParams(6, 3, 3), 0) == pytest.approx(9.0)

    def test_boundary_k_gives_zero(self):
        params = HypergeomParams(30, 12, 8)
        assert hypergeom_successor_ratio(params, 8) == 0.0

    def test_undefined_outside_support(self):
        with pytest.raises(ValueError, match="zero"):
            hypergeom_successor_ratio(HypergeomParams(20, 5, 10), 7)

    @given(N=st.integers(2, 300), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_recurrence_identity(self, N, data):
        R = data.draw(st.integers(1, N))
        n = data.draw(st.integers(1, N))
        params = HypergeomParams(N, R, n)
        support = params.support()
        for k in list(support)[:-1]:
            lhs = hypergeom_pmf(params, k + 1)
            rhs = hypergeom_successor_ratio(params, k) * hypergeom_pmf(params, k)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestBinomialPmf:
    def test_half_squared(self):
        assert binomial_pmf(2, 0.5, 0) == pytest.approx(0.25)

    def test_big_integer_oracle(self):
        exact = float(
            comb(20, 6) * Fraction(3, 10) ** 6 * Fraction(7, 10) ** 14
        )
        assert binomial_pmf(20, 0.3, 6) == pytest.approx(exact, rel=1e-12)

    def test_degenerate_rate(self):
        assert binomial_pmf(5, 0.0, 0) == 1.0
        assert binomial_pmf(5, 0.0, 1) == 0.0
        assert binomial_pmf(5, 1.0, 5) == 1.0

    @given(n=st.integers(0, 200), pi=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, n, pi):
        total = sum(binomial_pmf(n, pi, k) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestNormalQuantile:
    def test_paper_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.95996, abs=5e-6)

    def test_high_precision(self):
        assert normal_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-9)

    def test_median_and_antisymmetry(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)


class TestChiSquareQuantile:
    def test_95(self):
        assert chi_square_1df_quantile(0.95) == pytest.approx(3.8415, abs=5e-5)

    def test_median(self):
        assert chi_square_1df_quantile(0.5) == pytest.approx(0.4549, abs=5e-5)

    @pytest.mark.parametrize("q", [-0.5, -1e-12, 1.0, 1.5, float("nan")])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            chi_square_1df_quantile(q)

    @given(q=st.floats(0.001, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_equals_squared_normal_quantile(self, q):
        assert chi_square_1df_quantile(q) == pytest.approx(
            normal_quantile((1 + q) / 2) ** 2, rel=1e-12
        )


class TestBetaBinomialPmf:
    @pytest.mark.parametrize("N", [0, 1, 5, 17])
    def test_uniform_prior_is_discrete_uniform(self, N):
        params = BetaBinomialParams(N, 1.0, 1.0)
        for s in range(N + 1):
            assert beta_binomial_pmf(params, s) == pytest.approx(1 / (N + 1), rel=1e-12)

    def test_half_prior_two_trials(self):
        params = BetaBinomialParams(2, 0.5, 0.5)
        assert beta_binomial_pmf(params, 0) == pytest.approx(0.375)
        assert beta_binomial_pmf(params, 1) == pytest.approx(0.25)
        assert beta_binomial_pmf(params, 2) == pytest.approx(0.375)

    @given(
        N=st.integers(0, 300),
        alpha=st.floats(0.05, 20),
        beta=st.floats(0.05, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, N, alpha, beta):
        params = BetaBinomialParams(N, alpha, beta)
        total = sum(beta_binomial_pmf(params, s) for s in range(N + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_outside_support_zero(self):
        assert beta_binomial_pmf(BetaBinomialParams(4, 1, 1), 5) == 0.0


def test_hypergeom_binomial_convergence():
    # For populations vastly larger than the sample, the binomial
    # approximation is within 1e-3 total variation distance.
    n, rate = 20, 0.3
    N = 10**5 * n
    R = int(rate * N)
    params = HypergeomParams(N, R, n)
    tvd = 0.5 * sum(
        abs(hypergeom_pmf(params, k) - binomial_pmf(n, R / N, k)) for k in range(n + 1)
    )
    assert tvd < 1e-3


def test_support_pmf_matches_scalar_and_normalizes():
    params = HypergeomParams(1000, 400, 60)
    ks, pmf = hypergeom_support_pmf(params)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    for k, p in zip(ks[::7], pmf[::7]):
        assert p == pytest.approx(hypergeom_pmf(params, int(k)), rel=1e-9)


class TestSamplers:
    def test_hypergeom_degenerate(self):
        stream = RandomStream(3)
        assert sample_hypergeom(HypergeomParams(10, 0, 5), stream) == 0
        assert sample_hypergeom(HypergeomParams(10, 10, 5), stream) == 5

    def test_hypergeom_empirical_mean(self):
        params = HypergeomParams(100, 30, 20)
        draws = sample_hypergeom(params, RandomStream(11), size=100_000)
        assert np.mean(draws) == pytest.approx(6.0, abs=0.05)

    def test_hypergeom_empirical_pmf(self):
        params = HypergeomParams(50, 18, 12)
        draws = sample_hypergeom(params, RandomStream(12), size=200_000)
        for k in params.support():
            freq = np.mean(draws == k)
            assert freq == pytest.approx(hypergeom_pmf(params, k), abs=0.005)

    # Posterior yields come from one sampler, ``segment_yield_draws``: the
    # observed count plus a draw over the unsampled remainder.

    def test_posterior_yield_beta_mean(self):
        # Jeffreys: r + remainder * Beta(0.5 + r, 0.5 + n - r); here Beta(10.5, 0.5).
        seg = SegmentData.simple("retrieved", 1010, 10, 10)
        draws = segment_yield_draws(seg, BETA_JEFFREYS, None, 100_000, RandomStream(22), 0)
        assert np.mean(draws) == pytest.approx(10 + 1000 * 10.5 / 11.0, abs=1.0)

    def test_posterior_yield_beta_binomial_frequencies(self):
        # Prior (0.5, 1.5), none relevant of one sampled: BetaBinomial(2, 0.5, 2.5).
        seg = SegmentData.simple("retrieved", 3, 1, 0)
        draws = segment_yield_draws(
            seg, BETA_BINOMIAL, PriorSpec(0.5, 1.5), 100_000, RandomStream(31), 0
        )
        params = BetaBinomialParams(2, 0.5, 2.5)
        for s in range(3):
            assert np.mean(draws == s) == pytest.approx(beta_binomial_pmf(params, s), abs=0.01)

    def test_determinism_same_stream(self):
        seg = SegmentData.simple("unretrieved", 500, 60, 7)
        stream = RandomStream(9).substream(4)
        a = segment_yield_draws(seg, BETA_BINOMIAL, PriorSpec(0.5, 0.5), 50, stream, 1)
        b = segment_yield_draws(seg, BETA_BINOMIAL, PriorSpec(0.5, 0.5), 50, stream, 1)
        assert np.array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        n = 100_000
        a = RandomStream(123).substream(0).generator().random(n)
        b = RandomStream(123).substream(1).generator().random(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
        assert abs(np.corrcoef(a[:-1], b[1:])[0, 1]) < 0.01  # lag 1


class TestRandomStream:
    def test_identical_keys_identical_sequences(self):
        a = RandomStream(17).substream(3, 2, 5)
        b = RandomStream(17).substream(3, 2, 5)
        assert np.array_equal(a.generator().random(100), b.generator().random(100))

    def test_distinct_paths_differ(self):
        a = RandomStream(17).substream(0)
        b = RandomStream(17).substream(1)
        assert not np.array_equal(a.generator().random(100), b.generator().random(100))

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(1).substream(-2)
