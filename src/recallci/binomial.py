"""Classical two-sided confidence intervals on a binomial proportion.

Includes an exact coverage evaluator: for a fixed sample size the coverage of
any interval rule at a given true prevalence is a finite sum over the n + 1
possible outcomes, so no simulation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaincinv

from .distributions import log_comb, normal_quantile

__all__ = [
    "BinomialSample",
    "ProportionInterval",
    "clopper_pearson",
    "wald",
    "wilson",
    "agresti_coull",
    "jeffreys",
    "RULES",
    "coverage_curve",
    "mean_coverage",
]


@dataclass(frozen=True)
class BinomialSample:
    """Outcome of a binomial sample: ``r`` positives out of ``n``."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("sample size n must be positive")
        if not 0 <= self.r <= self.n:
            raise ValueError("positive count r must lie in [0, n]")

    @property
    def proportion(self) -> float:
        return self.r / self.n


@dataclass(frozen=True)
class ProportionInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError("interval must satisfy 0 <= lower <= upper <= 1")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


IntervalRule = Callable[[BinomialSample, float], ProportionInterval]


def _check_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    return 1.0 - level


def clopper_pearson(sample: BinomialSample, level: float) -> ProportionInterval:
    """Exact interval from a pair of inverted one-tailed binomial tests.

    Endpoints come from the beta-quantile form of the binomial tail sums;
    the lower end is 0 when r = 0 and the upper end 1 when r = n.
    """
    alpha = _check_level(level)
    n, r = sample.n, sample.r
    lower = 0.0 if r == 0 else float(betaincinv(r, n - r + 1, alpha / 2.0))
    upper = 1.0 if r == n else float(betaincinv(r + 1, n - r, 1.0 - alpha / 2.0))
    return ProportionInterval(lower, upper, level)


def wald(sample: BinomialSample, level: float) -> ProportionInterval:
    """Normal interval centered on the sample proportion, clipped to [0, 1]."""
    alpha = _check_level(level)
    z = normal_quantile(1.0 - alpha / 2.0)
    p = sample.proportion
    half = z * np.sqrt(p * (1.0 - p) / sample.n)
    return ProportionInterval(max(0.0, p - half), min(1.0, p + half), level)


def wilson(sample: BinomialSample, level: float) -> ProportionInterval:
    """Score interval: inverts normal tests with variance at the bound."""
    alpha = _check_level(level)
    z = normal_quantile(1.0 - alpha / 2.0)
    n, p = sample.n, sample.proportion
    z2 = z * z
    center = p + z2 / (2.0 * n)
    spread = z * np.sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n)
    denom = 1.0 + z2 / n
    return ProportionInterval(
        max(0.0, (center - spread) / denom),
        min(1.0, (center + spread) / denom),
        level,
    )


def agresti_coull(sample: BinomialSample, level: float) -> ProportionInterval:
    """Wald interval on counts augmented by z^2/2 successes and failures."""
    alpha = _check_level(level)
    z = normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    n_adj = sample.n + z2
    p_adj = (sample.r + z2 / 2.0) / n_adj
    half = z * np.sqrt(p_adj * (1.0 - p_adj) / n_adj)
    return ProportionInterval(max(0.0, p_adj - half), min(1.0, p_adj + half), level)


def jeffreys(sample: BinomialSample, level: float) -> ProportionInterval:
    """Equal-tailed interval from the Beta(0.5 + r, 0.5 + n - r) posterior.

    The lower end is pinned to 0 when r = 0 and the upper to 1 when r = n,
    since the continuous posterior never reaches the boundary on its own.
    """
    alpha = _check_level(level)
    n, r = sample.n, sample.r
    a, b = 0.5 + r, 0.5 + n - r
    lower = 0.0 if r == 0 else float(betaincinv(a, b, alpha / 2.0))
    upper = 1.0 if r == n else float(betaincinv(a, b, 1.0 - alpha / 2.0))
    return ProportionInterval(lower, upper, level)


RULES: dict[str, IntervalRule] = {
    "clopper-pearson": clopper_pearson,
    "wald": wald,
    "wilson": wilson,
    "agresti-coull": agresti_coull,
    "jeffreys": jeffreys,
}
"""The five interval rules by name."""


def coverage_curve(
    method: IntervalRule,
    n: int,
    level: float,
    grid: Sequence[float],
) -> list[tuple[float, float]]:
    """Exact coverage of an interval rule across true prevalences.

    For each prevalence pi the coverage is the total binomial probability of
    the outcomes r whose interval contains pi.
    """
    pis = np.asarray(grid, dtype=float)
    if np.any((pis <= 0.0) | (pis >= 1.0)):
        raise ValueError("grid values must lie strictly inside (0, 1)")
    ks = np.arange(n + 1)
    bounds = [method(BinomialSample(n, int(k)), level) for k in ks]
    lowers = np.array([iv.lower for iv in bounds])
    uppers = np.array([iv.upper for iv in bounds])
    # (n + 1) x len(grid) outcome probabilities, in log space.
    logpmf = (
        log_comb(n, ks)[:, None]
        + ks[:, None] * np.log(pis)[None, :]
        + (n - ks)[:, None] * np.log1p(-pis)[None, :]
    )
    pmf = np.exp(logpmf)
    covers = (lowers[:, None] <= pis[None, :]) & (pis[None, :] <= uppers[:, None])
    coverage = np.sum(pmf * covers, axis=0)
    return list(zip(pis.tolist(), coverage.tolist()))


def mean_coverage(method: IntervalRule, n: int, level: float, points: int = 199) -> float:
    """Mean exact coverage over a uniform prevalence grid in (0, 1).

    The default grid steps by 1/200.  The mean is grid-sensitive for rules
    whose coverage collapses near the edges (Wald): finer grids weight the
    near-boundary collapse more heavily, e.g. the Wald mean at n = 20 is
    0.851 on the default grid but 0.846 in the continuum limit.
    """
    grid = np.arange(1, points + 1) / (points + 1)
    curve = coverage_curve(method, n, level, grid)
    return float(np.mean([c for _, c in curve]))
