"""Recall problems, point estimation, variance, and brute-force analysis.

A recall problem has two segments, retrieved and unretrieved, each holding
one or more strata sampled independently.  Yields (counts of relevant
documents) are estimated per stratum and summed per segment; recall is the
retrieved share of the combined estimated yield.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import HypergeomParams, hypergeom_support_pmf

__all__ = [
    "UndefinedEstimateError",
    "StratumCounts",
    "SegmentData",
    "RecallProblem",
    "YieldEstimate",
    "RealizationTruth",
    "SampleDesign",
    "SamplingDistribution",
    "BiasResult",
    "estimate_segment_yield",
    "estimate_recall",
    "recall_variance",
    "exact_sampling_distribution",
    "estimator_bias",
]

RETRIEVED = "retrieved"
UNRETRIEVED = "unretrieved"


class UndefinedEstimateError(ValueError):
    """Raised when both segment samples contain no relevant documents."""


@dataclass(frozen=True)
class StratumCounts:
    """One sampled stratum: population size, sample size, relevant count."""

    population_size: int
    sample_size: int
    relevant_in_sample: int

    def __post_init__(self) -> None:
        if self.population_size <= 0:
            raise ValueError("stratum population_size must be positive")
        if not 0 <= self.sample_size <= self.population_size:
            raise ValueError("stratum sample_size must lie in [0, population_size]")
        if not 0 <= self.relevant_in_sample <= self.sample_size:
            raise ValueError("relevant_in_sample must lie in [0, sample_size]")


@dataclass(frozen=True)
class SegmentData:
    """A retrieved or unretrieved segment as a list of sampled strata."""

    strata: tuple[StratumCounts, ...]
    label: str

    def __post_init__(self) -> None:
        if not self.strata:
            raise ValueError("segment must contain at least one stratum")
        if self.label not in (RETRIEVED, UNRETRIEVED):
            raise ValueError(f"segment label must be '{RETRIEVED}' or '{UNRETRIEVED}'")

    @classmethod
    def simple(cls, label: str, population: int, sample: int, relevant: int) -> "SegmentData":
        return cls((StratumCounts(population, sample, relevant),), label)

    @property
    def population_size(self) -> int:
        return sum(s.population_size for s in self.strata)

    @property
    def total_relevant_sampled(self) -> int:
        return sum(s.relevant_in_sample for s in self.strata)


@dataclass(frozen=True)
class RecallProblem:
    """The unit every recall interval method consumes."""

    retrieved: SegmentData
    unretrieved: SegmentData

    def __post_init__(self) -> None:
        if self.retrieved.label != RETRIEVED or self.unretrieved.label != UNRETRIEVED:
            raise ValueError("segments must be labeled 'retrieved' and 'unretrieved'")

    @classmethod
    def simple(cls, n_ret: int, s_ret: int, r_ret: int,
               n_unret: int, s_unret: int, r_unret: int) -> "RecallProblem":
        """Unstratified problem from (population, sample, relevant) per segment."""
        return cls(
            SegmentData.simple(RETRIEVED, n_ret, s_ret, r_ret),
            SegmentData.simple(UNRETRIEVED, n_unret, s_unret, r_unret),
        )


@dataclass(frozen=True)
class YieldEstimate:
    """Point estimate and sampling variance of a segment's yield."""

    point: float
    variance: float


@dataclass(frozen=True)
class RealizationTruth:
    """A fully known world: segment sizes and true yields."""

    retrieved_size: int
    unretrieved_size: int
    retrieved_yield: int
    unretrieved_yield: int

    def __post_init__(self) -> None:
        if not 0 <= self.retrieved_yield <= self.retrieved_size:
            raise ValueError("retrieved yield must lie in [0, retrieved_size]")
        if not 0 <= self.unretrieved_yield <= self.unretrieved_size:
            raise ValueError("unretrieved yield must lie in [0, unretrieved_size]")
        if self.retrieved_yield + self.unretrieved_yield < 1:
            raise ValueError("total yield must be at least 1")

    @property
    def recall(self) -> float:
        return self.retrieved_yield / (self.retrieved_yield + self.unretrieved_yield)


@dataclass(frozen=True)
class SampleDesign:
    """Sample sizes for the retrieved and unretrieved segments."""

    retrieved_sample: int
    unretrieved_sample: int

    def __post_init__(self) -> None:
        if self.retrieved_sample < 1 or self.unretrieved_sample < 1:
            raise ValueError("sample sizes must be positive")


def stratified_yield(strata, counts, adjustment=0):
    """Stratified estimate of a segment's yield with its sampling variance.

    Each stratum contributes N_s * r_s / n_s to the point estimate and
    N_s^2 * p(1-p)/n_s * (1 - n_s/N_s) to the variance; the last factor is
    the finite-population correction, which zeroes censused strata.  The
    p(1-p)/n variance uses the maximum-likelihood divisor n, not n - 1.
    ``strata`` holds each stratum's (N_s, n_s), ``counts`` its r_s, an int
    or an array taken elementwise.  Adjustment c adds c positives and c
    negatives to every stratum sample.
    """
    y = v = 0.0
    for (population, sample), r in zip(strata, counts):
        n_adj = sample + 2 * adjustment
        p = (r + adjustment) / n_adj
        y = y + population * p
        fpc = 1.0 - sample / population
        v = v + float(population**2) * (p * (1.0 - p) / n_adj) * fpc
    return y, v


def recall_moments(y1, v1, y0, v0):
    """Recall and its corrected first-order variance, elementwise from the
    segment yield estimates R1, R0 and their variances.

    The variance propagates error through the ratio written so numerator
    and denominator are independent: (Var(Y1) R0^2 + Var(Y0) R1^2) /
    (R1 + R0)^4.  The powers use np.float_power, which calls the C library's
    pow as Python's ``**`` does; np.power may differ in the last bit.
    """
    total = y1 + y0
    num = v1 * np.float_power(y0, 2.0) + v0 * np.float_power(y1, 2.0)
    return y1 / total, num / np.float_power(total, 4.0)


def estimate_segment_yield(segment: SegmentData) -> YieldEstimate:
    """Stratified estimate of a segment's yield with its sampling variance
    (``stratified_yield``); an empty stratum sample raises ``ValueError``."""
    for idx, s in enumerate(segment.strata):
        if s.sample_size == 0:
            raise ValueError(
                f"{segment.label} stratum {idx} has an empty sample; "
                "yield cannot be estimated"
            )
    return YieldEstimate(*stratified_yield(
        [(s.population_size, s.sample_size) for s in segment.strata],
        [s.relevant_in_sample for s in segment.strata],
    ))


def estimate_recall(problem: RecallProblem) -> float:
    """Point estimate of recall from the two segment yield estimates."""
    y1 = estimate_segment_yield(problem.retrieved)
    y0 = estimate_segment_yield(problem.unretrieved)
    total = y1.point + y0.point
    if total == 0.0:
        raise UndefinedEstimateError(
            "recall estimate undefined: no relevant documents in either sample"
        )
    return y1.point / total


def recall_variance(problem: RecallProblem, corrected: bool = True) -> float:
    """First-order variance of the recall estimate.

    The corrected form is ``recall_moments``'s.  The uncorrected form
    propagates through the raw ratio while ignoring the covariance between
    the retrieved yield and the total, which adds Var(Y1) a second time and
    therefore never understates the corrected value.
    """
    y1 = estimate_segment_yield(problem.retrieved)
    y0 = estimate_segment_yield(problem.unretrieved)
    total = y1.point + y0.point
    if total == 0.0:
        raise UndefinedEstimateError(
            "recall variance undefined: no relevant documents in either sample"
        )
    if corrected:
        return float(recall_moments(y1.point, y1.variance, y0.point, y0.variance)[1])
    return (y1.variance * total**2 + y1.point**2 * (y1.variance + y0.variance)) / total**4


@dataclass(frozen=True)
class SamplingDistribution:
    """Exact distribution of the recall estimator for a known world.

    ``estimates``/``probabilities`` enumerate the defined outcomes; the
    probability of the undefined outcome (no relevant documents in either
    sample) is reported separately in ``undefined_mass``.
    """

    estimates: np.ndarray
    probabilities: np.ndarray
    undefined_mass: float

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.probabilities) + self.undefined_mass)

    def mean(self) -> float:
        """Mean estimate over the defined outcomes, renormalized."""
        defined = float(np.sum(self.probabilities))
        if defined == 0.0:
            raise UndefinedEstimateError("no defined outcomes carry mass")
        return float(np.dot(self.estimates, self.probabilities) / defined)

    def variance(self) -> float:
        mu = self.mean()
        defined = float(np.sum(self.probabilities))
        return float(np.dot((self.estimates - mu) ** 2, self.probabilities) / defined)

    def mass_at(self, value: float) -> float:
        """Probability of the estimator hitting ``value`` exactly."""
        hit = np.isclose(self.estimates, value, rtol=0.0, atol=1e-12)
        return float(np.sum(self.probabilities[hit]))


@dataclass(frozen=True)
class BiasResult:
    mean_estimate: float
    true_recall: float
    bias: float


_ENUMERATION_LIMIT = 10_000
_CHUNK_CELLS = 4_000_000


def exact_sampling_distribution(
    truth: RealizationTruth, design: SampleDesign
) -> SamplingDistribution:
    """Brute-force sampling distribution of the recall estimator.

    Enumerates every (r1, r0) outcome pair with its joint hypergeometric
    probability and attaches the recall estimate to each.  Restricted to
    single-stratum segments with samples of at most 10,000.
    """
    n1, n0 = design.retrieved_sample, design.unretrieved_sample
    if n1 > _ENUMERATION_LIMIT or n0 > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to samples of {_ENUMERATION_LIMIT}")
    if n1 > truth.retrieved_size or n0 > truth.unretrieved_size:
        raise ValueError("sample sizes exceed segment sizes")

    k1, p1 = hypergeom_support_pmf(
        HypergeomParams(truth.retrieved_size, truth.retrieved_yield, n1)
    )
    k0, p0 = hypergeom_support_pmf(
        HypergeomParams(truth.unretrieved_size, truth.unretrieved_yield, n0)
    )
    # (N k) / n, not stratified_yield's N (k / n): the integer product is exact,
    # so equal estimates round alike and stay one atom.  N (k / n) would split
    # the 6,089 distinct estimates of the bias demo's 100 + 100 design into 6,243.
    yhat1 = truth.retrieved_size * k1 / n1
    yhat0 = truth.unretrieved_size * k0 / n0

    undefined = 0.0
    est_parts: list[np.ndarray] = []
    prob_parts: list[np.ndarray] = []
    rows_per_chunk = max(1, _CHUNK_CELLS // len(k0))
    for start in range(0, len(k1), rows_per_chunk):
        stop = min(start + rows_per_chunk, len(k1))
        y1 = yhat1[start:stop, None]
        mass = p1[start:stop, None] * p0[None, :]
        denom = y1 + yhat0[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            est = np.where(denom > 0.0, y1 / denom, np.nan)
        defined = denom > 0.0
        undefined += float(np.sum(mass[~defined]))
        vals, inverse = np.unique(est[defined], return_inverse=True)
        probs = np.bincount(inverse, weights=mass[defined], minlength=len(vals))
        est_parts.append(vals)
        prob_parts.append(probs)

    all_est = np.concatenate(est_parts)
    all_prob = np.concatenate(prob_parts)
    vals, inverse = np.unique(all_est, return_inverse=True)
    probs = np.bincount(inverse, weights=all_prob, minlength=len(vals))
    return SamplingDistribution(vals, probs, undefined)


def estimator_bias(truth: RealizationTruth, design: SampleDesign) -> BiasResult:
    """Mean of the recall estimator over defined outcomes, and its bias."""
    dist = exact_sampling_distribution(truth, design)
    mean = dist.mean()
    return BiasResult(mean, truth.recall, mean - truth.recall)
