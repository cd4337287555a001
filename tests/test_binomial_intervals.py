"""Binomial proportion intervals and their exact coverage curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recallci.binomial import (
    BinomialSample,
    agresti_coull,
    clopper_pearson,
    coverage_curve,
    jeffreys,
    mean_coverage,
    wald,
    wilson,
)


class TestClopperPearson:
    def test_zero_count_closed_form(self):
        # upper = 1 - (alpha/2)^(1/n)
        iv = clopper_pearson(BinomialSample(20, 0), 0.95)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(1.0 - 0.025 ** (1 / 20), rel=1e-9)
        assert iv.upper == pytest.approx(0.1684, abs=5e-5)

    def test_full_count_mirrors(self):
        iv = clopper_pearson(BinomialSample(20, 20), 0.95)
        assert iv.upper == 1.0
        assert iv.lower == pytest.approx(0.025 ** (1 / 20), rel=1e-9)

    def test_coverage_never_below_level(self):
        grid = np.arange(1, 500) / 500
        curve = coverage_curve(clopper_pearson, 20, 0.95, grid)
        assert min(c for _, c in curve) >= 0.95


class TestWald:
    def test_degenerate_zero(self):
        iv = wald(BinomialSample(20, 0), 0.95)
        assert (iv.lower, iv.upper) == (0.0, 0.0)

    def test_symmetric_midpoint(self):
        iv = wald(BinomialSample(20, 10), 0.95)
        assert iv.lower == pytest.approx(0.2809, abs=5e-5)
        assert iv.upper == pytest.approx(0.7191, abs=5e-5)

    def test_coverage_collapses_at_edges(self):
        curve = coverage_curve(wald, 20, 0.95, [1e-4])
        assert curve[0][1] < 0.01


class TestWilson:
    def test_zero_count(self):
        iv = wilson(BinomialSample(20, 0), 0.95)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(0.1611, abs=5e-5)

    def test_symmetric_at_half(self):
        iv = wilson(BinomialSample(20, 10), 0.95)
        assert iv.lower + iv.upper == pytest.approx(1.0, abs=1e-12)

    @given(n=st.integers(1, 60), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_count(self, n, data):
        r = data.draw(st.integers(0, n - 1)) if n > 1 else 0
        lo1 = wilson(BinomialSample(n, r), 0.95)
        lo2 = wilson(BinomialSample(n, min(r + 1, n)), 0.95)
        assert lo2.lower >= lo1.lower - 1e-12
        assert lo2.upper >= lo1.upper - 1e-12


class TestAgrestiCoull:
    def test_midpoint_symmetric_adjustment(self):
        z2 = 1.959963984540054**2
        iv = agresti_coull(BinomialSample(20, 10), 0.95)
        assert (iv.lower + iv.upper) / 2 == pytest.approx(0.5, abs=1e-12)
        # the 95% adjustment adds about 1.92 to each count
        assert z2 / 2 == pytest.approx(1.9207, abs=5e-5)

    def test_zero_count_direct_evaluation(self):
        # p_adj = 1.9207/23.8415; half-width from the adjusted Wald formula
        iv = agresti_coull(BinomialSample(20, 0), 0.95)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(0.189810, abs=5e-6)


class TestJeffreys:
    def test_forced_endpoints(self):
        assert jeffreys(BinomialSample(20, 0), 0.95).lower == 0.0
        assert jeffreys(BinomialSample(20, 20), 0.95).upper == 1.0

    @given(n=st.integers(2, 60), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_count(self, n, data):
        r = data.draw(st.integers(0, n - 1))
        a = jeffreys(BinomialSample(n, r), 0.95)
        b = jeffreys(BinomialSample(n, r + 1), 0.95)
        assert b.lower >= a.lower - 1e-12
        assert b.upper >= a.upper - 1e-12


@given(
    n=st.integers(1, 80),
    data=st.data(),
    rule=st.sampled_from([clopper_pearson, wilson, agresti_coull, jeffreys]),
)
@settings(max_examples=80, deadline=None)
def test_intervals_contain_sample_proportion(n, data, rule):
    r = data.draw(st.integers(0, n))
    iv = rule(BinomialSample(n, r), 0.95)
    assert iv.lower - 1e-12 <= r / n <= iv.upper + 1e-12


@given(n=st.integers(1, 80), data=st.data())
@settings(max_examples=60, deadline=None)
def test_wald_contains_proportion_except_degenerate(n, data):
    r = data.draw(st.integers(0, n))
    iv = wald(BinomialSample(n, r), 0.95)
    assert iv.lower <= r / n <= iv.upper


def test_mean_coverage_reproduces_quoted_values():
    quoted = {
        clopper_pearson: 0.977,
        wald: 0.851,
        wilson: 0.953,
        jeffreys: 0.951,
    }
    for rule, expected in quoted.items():
        assert mean_coverage(rule, 20, 0.95) == pytest.approx(expected, abs=0.003)


def test_coverage_curve_rejects_boundary_grid():
    with pytest.raises(ValueError):
        coverage_curve(wald, 10, 0.95, [0.0, 0.5])


def test_invalid_samples_and_levels():
    with pytest.raises(ValueError):
        BinomialSample(0, 0)
    with pytest.raises(ValueError):
        BinomialSample(5, 6)
    with pytest.raises(ValueError):
        wald(BinomialSample(5, 2), 1.0)
