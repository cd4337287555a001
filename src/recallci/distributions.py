"""Probability kernels and samplers for sampling without replacement.

All mass functions are computed in log space via the log-gamma function, so
they stay finite for populations in the millions where raw factorials would
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln, ndtri

from .streams import RandomStream

__all__ = [
    "HypergeomParams",
    "BetaBinomialParams",
    "hypergeom_pmf",
    "hypergeom_support_pmf",
    "hypergeom_successor_ratio",
    "binomial_pmf",
    "normal_quantile",
    "chi_square_1df_quantile",
    "beta_binomial_pmf",
    "sample_hypergeom",
]


@dataclass(frozen=True)
class HypergeomParams:
    """A finite binary population and a without-replacement sample size."""

    population_size: int
    successes: int
    sample_size: int

    def __post_init__(self) -> None:
        if self.population_size < 0:
            raise ValueError("population_size must be nonnegative")
        if not 0 <= self.successes <= self.population_size:
            raise ValueError("successes must lie in [0, population_size]")
        if not 0 <= self.sample_size <= self.population_size:
            raise ValueError("sample_size must lie in [0, population_size]")

    def support(self) -> range:
        """Values of the success count with nonzero probability."""
        lo = max(0, self.sample_size - (self.population_size - self.successes))
        hi = min(self.sample_size, self.successes)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class BetaBinomialParams:
    trials: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("beta-binomial requires alpha > 0 and beta > 0")


def log_comb(n, k):
    """log of the binomial coefficient C(n, k), elementwise; -inf off range."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    out = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    bad = (k < 0) | (k > n)
    if np.any(bad):
        out = np.where(bad, -np.inf, out)
    return out


def hypergeom_pmf(params: HypergeomParams, k: int) -> float:
    """Probability of drawing exactly ``k`` successes.

    Returns 0.0 for ``k`` outside the support rather than raising.
    """
    N, R, n = params.population_size, params.successes, params.sample_size
    if k < max(0, n - (N - R)) or k > min(n, R):
        return 0.0
    logp = log_comb(R, k) + log_comb(N - R, n - k) - log_comb(N, n)
    return float(np.exp(logp))


def hypergeom_support_pmf(params: HypergeomParams) -> tuple[np.ndarray, np.ndarray]:
    """Vector of support values and their probabilities.

    The vector is normalized to sum to exactly 1: at population sizes in the
    hundreds of thousands the log-gamma evaluation leaves each term with a
    relative error near 1e-10, and enumeration consumers need an exhaustive
    distribution whose total mass is 1.
    """
    N, R, n = params.population_size, params.successes, params.sample_size
    ks = np.arange(params.support().start, params.support().stop)
    logp = log_comb(R, ks) + log_comb(N - R, n - ks) - log_comb(N, n)
    pmf = np.exp(logp)
    return ks, pmf / pmf.sum()


def hypergeom_successor_ratio(params: HypergeomParams, k: int) -> float:
    """Ratio g(k) = pmf(k + 1) / pmf(k) of consecutive hypergeometric terms.

    Only defined where pmf(k) > 0; raises ValueError elsewhere.
    """
    N, R, n = params.population_size, params.successes, params.sample_size
    if hypergeom_pmf(params, k) == 0.0:
        raise ValueError(f"successor ratio undefined: pmf is zero at k={k}")
    return (R - k) * (n - k) / ((k + 1) * (N - R - n + k + 1))


def binomial_pmf(n: int, pi: float, k: int) -> float:
    """Binomial probability of ``k`` successes in ``n`` trials at rate ``pi``."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError("pi must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0.0
    if pi == 0.0:
        return 1.0 if k == 0 else 0.0
    if pi == 1.0:
        return 1.0 if k == n else 0.0
    logp = log_comb(n, k) + k * np.log(pi) + (n - k) * np.log1p(-pi)
    return float(np.exp(logp))


def check_level(level: float) -> float:
    """``1 - level``, for a confidence level strictly inside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    return 1.0 - level


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return float(ndtri(q))


def chi_square_1df_quantile(q: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom."""
    if not 0.0 <= q < 1.0:
        raise ValueError("quantile argument must lie in [0, 1)")
    z = normal_quantile((1.0 + q) / 2.0)
    return z * z


def beta_binomial_pmf(params: BetaBinomialParams, s: int) -> float:
    """Beta-binomial probability of ``s`` successes in ``trials`` draws."""
    N, a, b = params.trials, params.alpha, params.beta
    if s < 0 or s > N:
        return 0.0
    logp = log_comb(N, s) + betaln(s + a, N - s + b) - betaln(a, b)
    return float(np.exp(logp))


def sample_hypergeom(
    params: HypergeomParams,
    rng: RandomStream | np.random.Generator,
    size: int | None = None,
):
    """Draw success counts from a without-replacement sample.

    Accepts either a RandomStream (a fresh generator is created at the
    stream's start) or a live numpy Generator.
    """
    N, R, n = params.population_size, params.successes, params.sample_size
    if n == 0 or R == 0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    if R == N:
        return n if size is None else np.full(size, n, dtype=np.int64)
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    draw = gen.hypergeometric(R, N - R, n, size=size)
    return int(draw) if size is None else draw
