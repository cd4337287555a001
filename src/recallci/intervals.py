"""Two-tailed confidence intervals on recall.

Nine methods behind one dispatch surface:

======================  =====================================================
naive-binomial          recall as a binomial proportion over sampled relevant
                        documents
normal-mle              normal approximation, MLE variance, error propagation
normal-laplace          normal approximation after adding one to positive and
                        negative counts per stratum
normal-agresti          as above, adding two
koopman                 inverted chi-square test on the ratio of the two
                        segment proportions (single stratum per segment only)
beta-jeffreys           equal-tail quantiles of per-stratum beta posteriors
                        under Jeffreys priors
betabin-uniform         equal-tail quantiles of per-stratum beta-binomial
                        posteriors, uniform prior (alpha = beta = 1)
betabin-mcp             as above with the most conservative prior per stratum
betabin-half            as above with alpha = beta = 0.5
======================  =====================================================

All methods force the lower bound to 0 when the retrieved sample holds no
relevant documents, and the upper bound to 1 when the unretrieved sample
holds none, where those rules apply (``_force``).

A sample with no relevant document in either segment (a (0, 0) sample) has
no recall estimate.  ``naive-binomial``, whose denominator is the number of
sampled relevant documents, raises ``UndefinedEstimateError`` for it; the
other eight methods return [0, 1] with no point estimate, without
tabulating a posterior and without resolving a prior.

All nine methods are deterministic.  ``koopman`` takes each bound from the
root of one cubic, polished by bracketed Newton steps.  The four posterior
methods take quantiles of the posterior of recall tabulated on a lattice of
log-yields, or, for beta-binomial posteriors with few atoms, of its exact
enumeration (``betabin_exact_bounds``), with each stratum's prior resolved
once per batch.  No interval takes a seed or a draw count;
``monte_carlo_interval``, which does, is the Monte Carlo reference estimator.

Every method is one entry of ``METHOD_TABLE``, a batch kernel over the
relevant counts of many samples (``CountBatch``).  ``interval_bounds`` runs
it on a batch; ``compute_interval`` runs it on the batch of one problem, and
the coverage harness and the design tools on their simulated samples.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import betainc, betaincinv, betaln, gammaln, ndtri

from .core import (
    RETRIEVED,
    UNRETRIEVED,
    RecallProblem,
    SegmentData,
    UndefinedEstimateError,
    estimate_recall,
    recall_moments,
    stratified_yield,
)
from .distributions import check_level, chi_square_1df_quantile, log_comb, normal_quantile
from .streams import RandomStream

__all__ = [
    "METHODS",
    "METHOD_TABLE",
    "MethodSpec",
    "POSTERIOR_METHODS",
    "NORMAL_ADJUSTMENTS",
    "PriorSpec",
    "MonteCarloConfig",
    "RecallInterval",
    "CountBatch",
    "naive_binomial_bounds",
    "normal_mid_half",
    "normal_bounds",
    "koopman_bounds",
    "koopman_interval",
    "segment_yield_draws",
    "monte_carlo_interval",
    "betabin_exact_bounds",
    "posterior_bounds",
    "most_conservative_prior",
    "expected_information_gain",
    "interval_bounds",
    "compute_interval",
    "equal_tail_quantiles",
]

BETA_JEFFREYS = "beta-jeffreys"
BETA_BINOMIAL = "beta-binomial"


@dataclass(frozen=True)
class PriorSpec:
    """Beta-binomial hyperparameters."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("prior hyperparameters must be positive")


PriorLike = Union[PriorSpec, Callable[[int, int], PriorSpec], None]
"""A beta-binomial prior: a ``PriorSpec`` for every stratum, or a callable of a stratum's
``(population, sample)`` such as ``most_conservative_prior``; None under ``beta-jeffreys``."""


@dataclass(frozen=True)
class MonteCarloConfig:
    """Draw count and random stream for posterior simulation."""

    rng: RandomStream
    draws: int = 40_000

    def __post_init__(self) -> None:
        if self.draws < 1000:
            raise ValueError("Monte Carlo interval estimation needs at least 1000 draws")


@dataclass(frozen=True)
class RecallInterval:
    """A two-tailed interval on recall with its point estimate, if defined."""

    lower: float
    upper: float
    level: float
    point: float | None
    method: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError("interval must satisfy 0 <= lower <= upper <= 1")
        check_level(self.level)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _z_value(level: float) -> float:
    check_level(level)
    return normal_quantile(1.0 - (1.0 - level) / 2.0)


def _point_or_none(problem: RecallProblem) -> float | None:
    try:
        return estimate_recall(problem)
    except ValueError:
        return None


def _force(lower, upper, r1, r0):
    """The forcing rules: lower 0 where r1 = 0, upper 1 where r0 = 0, upper at least lower."""
    lower = np.where(r1 == 0, 0.0, lower)
    upper = np.where(r0 == 0, 1.0, upper)
    return lower, np.maximum(lower, upper)


# ---------------------------------------------------------------------------
# Closed-form and Koopman kernels over batches of samples.
#
# Each kernel takes a CountBatch and returns arrays of lower and upper bounds,
# one per sample.  Every element goes through the same sequence of IEEE
# operations whatever else is in the batch, so a batch gives the same bits as
# its samples computed one at a time; coverage tallies flip on last-bit
# changes, so this is what keeps reports reproducible.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountBatch:
    """Relevant counts of many samples drawn under one sampling design.

    ``strata`` holds one ``(population, sample)`` pair per stratum of the
    retrieved and of the unretrieved segment; ``relevant`` holds, in the same
    layout, an integer array of relevant counts per stratum with one entry
    per sample.
    """

    strata: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
    relevant: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]

    @classmethod
    def simple(
        cls, n_ret: int, s_ret: int, r_ret, n_unret: int, s_unret: int, r_unret
    ) -> "CountBatch":
        """Unstratified batch from (population, sample, relevant counts) per segment."""
        return cls(
            (((n_ret, s_ret),), ((n_unret, s_unret),)),
            ((np.asarray(r_ret, dtype=np.int64),), (np.asarray(r_unret, dtype=np.int64),)),
        )

    @classmethod
    def of_problem(cls, problem: RecallProblem) -> "CountBatch":
        """The batch of one sample holding ``problem``'s counts."""
        segments = (problem.retrieved, problem.unretrieved)
        return cls(
            tuple(tuple((s.population_size, s.sample_size) for s in seg.strata) for seg in segments),
            tuple(
                tuple(np.array([s.relevant_in_sample], dtype=np.int64) for s in seg.strata)
                for seg in segments
            ),
        )

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Relevant documents sampled from each segment, per sample."""
        return sum(self.relevant[0]), sum(self.relevant[1])


def _segment_yields(batch: CountBatch, adjustment: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-sample yield estimate and variance of each segment (``core.stratified_yield``).

    Without adjustment an empty stratum sample leaves the yield undefined,
    which is an error unless no sample of the batch holds a relevant document.
    """
    if adjustment == 0:
        empty = [
            (label, idx)
            for label, strata in zip((RETRIEVED, UNRETRIEVED), batch.strata)
            for idx, (_, sample) in enumerate(strata)
            if sample == 0
        ]
        if empty and np.any(sum(batch.totals())):
            label, idx = empty[0]
            raise ValueError(
                f"{label} stratum {idx} has an empty sample; yield cannot be estimated"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        return [stratified_yield(s, r, adjustment) for s, r in zip(batch.strata, batch.relevant)]


def naive_binomial_bounds(batch: CountBatch, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Wald interval treating recall as a proportion of sampled positives.

    The denominator is the number of relevant documents in the combined
    sample; the center is the stratum-weighted recall estimate.  Assumes
    relevant documents were sampled at a single rate, which rarely holds.
    """
    z = _z_value(level)
    r1, r0 = batch.totals()
    m = r1 + r0
    if np.any(m == 0):
        raise UndefinedEstimateError(
            "naive binomial interval needs at least one sampled relevant document"
        )
    (y1, _), (y0, _) = _segment_yields(batch, 0)
    point = y1 / (y1 + y0)
    half = z * np.sqrt(point * (1.0 - point) / m)
    return np.maximum(point - half, 0.0), np.minimum(point + half, 1.0)


def normal_mid_half(
    batch: CountBatch, level: float, adjustment: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-widths of normal intervals before clipping/forcing.

    With ``adjustment`` c > 0, c positives and c negatives are added to every
    stratum sample; midpoint, yield estimates, and propagated variance are all
    recomputed from the adjusted counts.  Without adjustment both are NaN for
    samples without relevant documents, where no estimate exists.
    """
    if adjustment not in (0, 1, 2):
        raise ValueError("adjustment must be 0, 1, or 2")
    z = _z_value(level)
    (y1, v1), (y0, v0) = _segment_yields(batch, adjustment)
    with np.errstate(invalid="ignore"):
        mid, var = recall_moments(y1, v1, y0, v0)
    return mid, z * np.sqrt(var)


def normal_bounds(
    batch: CountBatch, level: float, adjustment: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Normal-approximation recall intervals, optionally count-adjusted.

    adjustment 0 is the MLE method; 1 the Laplace adjustment; 2 the
    Agresti-Coull adjustment.  Intervals are clipped to [0, 1]; the upper
    end is forced to 1 when the unretrieved sample has no relevant documents,
    and the lower end to 0 when the retrieved sample has none.
    """
    mid, half = normal_mid_half(batch, level, adjustment)
    return _force(np.maximum(mid - half, 0.0), np.minimum(mid + half, 1.0), *batch.totals())


# ---------------------------------------------------------------------------
# Koopman chi-square interval on the ratio of two binomial proportions.
#
# x of m numerator-group and y of n denominator-group draws are relevant; the
# test of phi = p_num / p_den is Pearson's chi-square at the constrained ML
# rates (phi t, t).  Along that curve, with u = y/n - t, w = 1 - y/n,
# P = (x + n) u + x w and Q = (m + n) x u + m x w + y (m - x), the largest
# accepted phi is P / (t ((m + n) u + m w)) at the root in (0, y/n) of
# G(u) = c t (1 - t) - (n / m) u^2 Q / P, c the chi-square quantile: the cubic
# (y - nt)^2 ((m + n) x t - m (x + y)) - c m n t (1 - t) ((x + n) t - (x + y))
# over n m P, which drops its root t = y/n at x = 0 and, P and Q being sums of
# like-signed parts, cancels nothing.  The smallest accepted phi is one over
# the largest with the groups swapped.  At y = n, t is 1 up to
# phi* = (x + n) / (m + n), where the statistic is Wilson's for x / m, and
# phi* / phi beyond, where it is chi* + n (phi / phi* - 1).
# ---------------------------------------------------------------------------

_NEWTON_TOL = 2.0**-32  # Newton steps stop once one moves u by at most this share of u
_NEWTON_STEPS = 64  # binds only once bisection has shrunk a bracket to an ulp


def _quadratic_root(a, b, c):
    """Nonnegative root of a u^2 - b u - c for a > 0 and c >= 0."""
    r = np.sqrt(b * b + 4.0 * a * c)
    return np.where(b > 0.0, (b + r) / (2.0 * a), 2.0 * c / (r - b))


def _largest_ratio(x, m, y, n, crit: float) -> np.ndarray:
    """Largest phi the Koopman test accepts, for float arrays x, m, y > 0 and n;
    each element steps and stops on its own, whatever else the arrays hold."""
    with np.errstate(divide="ignore", invalid="ignore"):
        star, chi_star = (x + n) / (m + n), n * n * (m - x) / (m * (x + n))
        wilson = (x + crit / 2.0 + np.sqrt(crit * (x * (m - x) / m + crit / 4.0))) / (m + crit)
        full = np.where(chi_star >= crit, wilson, star * (n + crit - chi_star) / n)
        p, w, k = y / n, (n - y) / n, n / m
        p0, q0, slope, gamma = x * w, m * x * w + y * (m - x), (m + n) * x, crit * p * w
        # Q / P peaks at q0 / p0 (u = 0) and u / P < 1 / (x + n): freezing either
        # overstates G's second term, so both quadratics' roots lie at or below G's.
        u = np.fmax(
            _quadratic_root(crit + k * q0 / p0, crit * (p - w), gamma),
            _quadratic_root(crit + k * slope / (x + n), crit * (p - w) - k * q0 / (x + n), gamma),
        )
        lo, hi, live = np.zeros(u.shape), p, y < n
        for _ in range(_NEWTON_STEPS):
            if not live.any():
                break
            t, s, pu, qu = p - u, w + u, (x + n) * u + p0, slope * u + q0
            g = crit * t * s - k * u * u * qu / pu
            dg = crit * (t - s) - k * u * ((2.0 * qu + slope * u) * pu - u * qu * (x + n)) / pu**2
            lo, hi = np.where(g > 0.0, u, lo), np.where(g < 0.0, u, hi)
            step = g / dg
            inside = (u - step >= lo) & (u - step <= hi)
            u = np.where(live, np.where(inside, u - step, 0.5 * (lo + hi)), u)
            live &= ~(inside & (np.abs(step) <= _NEWTON_TOL * u))
        return np.where(y == n, full, ((x + n) * u + p0) / ((p - u) * ((m + n) * u + m * w)))


def koopman_bounds(batch: CountBatch, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square test inversion on the unretrieved/retrieved prevalence ratio.

    Recall is a monotonically decreasing function of the ratio
    phi = pi_unretrieved / pi_retrieved, so a confidence set on phi maps to
    one on recall with the endpoints reversed.  The method has no extension
    to stratified sampling and rejects stratified batches.
    """
    check_level(level)
    if any(len(strata) > 1 for strata in batch.strata):
        raise ValueError(
            "the koopman interval does not extend to stratified sampling; "
            "each segment must be a single stratum"
        )
    ((ret_population, n),), ((unret_population, m),) = batch.strata
    if n < 1 or m < 1:
        raise ValueError("koopman interval requires at least one draw per segment")
    (y,), (x,) = batch.relevant
    x, y = x.astype(float), y.astype(float)
    scale = unret_population / ret_population
    # One root search for both ends: the upper phi end (lower recall) needs
    # y > 0, the lower one, the upper end with the groups swapped, x > 0.
    up, down = np.flatnonzero(y > 0), np.flatnonzero(x > 0)
    counts = [len(up), len(down)]
    phi = _largest_ratio(
        np.concatenate([x[up], y[down]]), np.repeat([float(m), float(n)], counts),
        np.concatenate([y[up], x[down]]), np.repeat([float(n), float(m)], counts),
        chi_square_1df_quantile(level),
    )
    lower, upper = np.zeros(len(x)), np.ones(len(x))
    lower[up] = 1.0 / (1.0 + scale * phi[: len(up)])
    upper[down] = phi[len(up):] / (phi[len(up):] + scale)
    return lower, np.maximum(upper, lower)


def koopman_interval(problem: RecallProblem, level: float) -> RecallInterval:
    """The Koopman interval of one problem; see ``koopman_bounds``."""
    return compute_interval("koopman", problem, level)


# ---------------------------------------------------------------------------
# Posterior intervals: priors, the posterior frame, the Monte Carlo reference.
# ---------------------------------------------------------------------------


def equal_tail_quantiles(values: np.ndarray, level: float) -> tuple[float, float]:
    """Nearest-rank equal-tail quantiles of an unsorted sample."""
    d, alpha = len(values), 1.0 - level
    lo, hi = (min(max(math.ceil(q * d), 1), d) for q in (alpha / 2.0, 1.0 - alpha / 2.0))
    ordered = np.sort(values)
    return float(ordered[lo - 1]), float(ordered[hi - 1])


def _resolve_prior(prior: PriorLike, population: int, sample: int) -> PriorSpec:
    if prior is None:
        raise ValueError("beta-binomial posteriors need a prior specification")
    if callable(prior):
        return prior(population, sample)
    return prior


def _posterior_frame(kernel, batch: CountBatch, level: float, family: str, prior: PriorLike):
    """Posterior bounds on recall for every sample of a batch, under the forcing rules.

    ``kernel(batch, lower, upper, sub, specs, tail)`` sets the bounds of the samples ``sub``
    that hold a relevant document, given the tail probability and each stratum's
    prior, resolved once: None under ``beta-jeffreys`` and without an unsampled
    remainder, and never for a batch of (0, 0) samples."""
    check_level(level)
    if family not in (BETA_JEFFREYS, BETA_BINOMIAL):
        raise ValueError(f"unknown posterior family: {family!r}")
    r1s, r0s = batch.totals()
    lower, upper = np.zeros(len(r1s)), np.ones(len(r1s))
    sub = np.flatnonzero((r1s > 0) | (r0s > 0))
    if len(sub):
        binomial = family == BETA_BINOMIAL
        specs = tuple(
            tuple(_resolve_prior(prior, n, s) if binomial and n > s else None for n, s in strata)
            for strata in batch.strata
        )
        kernel(batch, lower, upper, sub, specs, (1.0 - level) / 2.0)
    return _force(lower, upper, r1s, r0s)


def segment_yield_draws(
    segment: SegmentData,
    family: str,
    prior: PriorLike,
    draws: int,
    rng: RandomStream,
    segment_index: int,
) -> np.ndarray:
    """Posterior draws of a segment's yield, summed over its strata.

    Each stratum contributes its observed relevant count plus a posterior
    draw of the relevant documents among its unsampled remainder: a beta
    prevalence draw scaled by the remainder under ``beta-jeffreys``, or a
    beta-binomial count draw under ``beta-binomial``.
    """
    if family not in (BETA_JEFFREYS, BETA_BINOMIAL):
        raise ValueError(f"unknown posterior family: {family!r}")
    total = np.zeros(draws)
    for s_idx, s in enumerate(segment.strata):
        gen = rng.substream(segment_index, s_idx).generator()
        remainder = s.population_size - s.sample_size
        r, n = s.relevant_in_sample, s.sample_size
        if family == BETA_JEFFREYS:
            pi = gen.beta(0.5 + r, 0.5 + n - r, size=draws)
            total += r + pi * remainder
        else:
            if remainder == 0:
                total += r
                continue
            spec = _resolve_prior(prior, s.population_size, s.sample_size)
            q = gen.beta(spec.alpha + r, spec.beta + n - r, size=draws)
            total += r + gen.binomial(remainder, q)
    return total


def monte_carlo_interval(
    problem: RecallProblem,
    level: float,
    family: str,
    prior: PriorLike = None,
    config: MonteCarloConfig | None = None,
) -> RecallInterval:
    """Monte Carlo quantiles of the posterior on recall: the reference
    estimator for the posterior methods' bounds.

    Segment i (0 retrieved, 1 unretrieved) draws its posterior yields
    (``segment_yield_draws``) from ``config.rng.substream(i, *counts)``,
    ``counts`` its relevant counts per stratum.  The bounds are the
    equal-tail nearest-rank quantiles (``equal_tail_quantiles``) of the
    paired recall values, under the forcing rules; a (0, 0) problem gets
    [0, 1] without draws and without resolving a prior.
    """
    if config is None:
        raise ValueError("monte carlo interval estimation requires a MonteCarloConfig")
    check_level(level)
    segments = (problem.retrieved, problem.unretrieved)
    r1, r0 = (segment.total_relevant_sampled for segment in segments)
    lower, upper = 0.0, 1.0
    if r1 or r0:
        y1, y0 = (
            segment_yield_draws(
                segment, family, prior, config.draws,
                config.rng.substream(index, *(s.relevant_in_sample for s in segment.strata)), index,
            )
            for index, segment in enumerate(segments)
        )
        lower, upper = equal_tail_quantiles(y1 / (y1 + y0), level)
    lower, upper = _force(lower, upper, r1, r0)
    return RecallInterval(float(lower), float(upper), level, _point_or_none(problem), family)


# ---------------------------------------------------------------------------
# Exact beta-binomial posterior quantiles.
#
# A segment's posterior yield is the sum over its strata of the observed
# count plus a beta-binomial count over the unsampled remainder, so its pmf
# is the convolution of the strata pmfs.  Recall R = Y1 / (Y1 + Y0) has
# finitely many atoms, and the bounds are the smallest atoms at which the
# posterior mass at or below reaches alpha/2 (lower) and the mass above
# falls to alpha/2 (upper): the limit of the nearest-rank Monte Carlo
# quantiles as the draw count grows.  Each sample's search reads only its
# own pmfs and sums in a fixed order, so a batch gives the same bits as its
# samples computed one at a time.
# ---------------------------------------------------------------------------

# Each stratum pmf drops a tail only while its mass stays below this share of
# alpha/2, under the rounding error of the tail sums themselves.
_TAIL_SHARE = 1e-15


def _prevalence_range(a, b, tail) -> list[tuple[float, float]]:
    """Prevalences below and above which each Beta(a, b) posterior holds its
    ``tail``, for sequences a, b and tail: one betaincinv call for all.

    Where the inversion fails (a tail too small for it) the range reaches 0 or 1.
    """
    inv = betaincinv([*a, *b], [*b, *a], [*tail, *tail]).tolist()
    return [
        (lo if lo >= 0.0 else 0.0, 1.0 - hi if hi >= 0.0 else 1.0)
        for lo, hi in zip(inv[: len(a)], inv[len(a) :])
    ]


def _count_window(remainder: int, prevalence: tuple[float, float], tail: float) -> tuple[int, int]:
    """Counts outside which a beta-binomial(remainder, a, b) holds at most 2 ``tail`` a side,
    given the ``_prevalence_range`` of its Beta(a, b) at ``tail``.

    The prevalence leaves its ``tail`` range with probability ``tail``; a
    binomial count at mean m strays below m - z sqrt(m) or above
    m + z sqrt(m) + z^2 with probability below exp(-z^2 / 2) (Chernoff), and
    z is chosen to make that ``tail``.  With no tail the window is the
    whole support.
    """
    if tail <= 0.0:
        return 0, remainder
    lo, hi = prevalence
    z = math.sqrt(2.0 * math.log(1.0 / tail))
    m_lo, m_hi = remainder * lo, remainder * hi
    return (
        max(0, math.floor(m_lo - z * math.sqrt(m_lo))),
        min(remainder, math.ceil(m_hi + z * math.sqrt(m_hi) + z * z)),
    )


def _stratum_posteriors(
    population: int, sample: int, counts, spec: PriorSpec | None, tail: float
) -> dict[int, tuple[int, np.ndarray]]:
    """Truncated posterior pmf of one stratum's yield per relevant count.

    Maps each count r of the sorted ``counts`` to (smallest kept yield, pmf
    over consecutive yields).  Each pmf keeps the yields from the first to
    the last whose probability exceeds ``tail`` / (remainder + 1), so either
    dropped tail holds at most ``tail``, and is normalised by its own sum.
    Log pmfs are evaluated only on a window that holds every such yield, and
    counts less than a remainder apart read them from shared log-gamma
    tables over the union of their windows.
    """
    remainder = population - sample
    if remainder == 0:
        return {r: (r, np.ones(1)) for r in counts}
    floor = math.log(tail / (remainder + 1)) if tail > 0.0 else -math.inf
    groups: list[list[int]] = []
    for r in counts:
        if groups and r - groups[-1][-1] <= remainder:
            groups[-1].append(r)
        else:
            groups.append([r])
    out = {}
    for group in groups:
        # An atom outside its window has probability at most tail / (remainder + 1).
        w_tail = tail / (2 * (remainder + 1))
        ranges = _prevalence_range(
            [spec.alpha + r for r in group], [spec.beta + sample - r for r in group],
            [w_tail] * len(group),
        )
        windows = [_count_window(remainder, prevalence, w_tail) for prevalence in ranges]
        k_lo, k_hi = min(w[0] for w in windows), max(w[1] for w in windows)
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
        log_c = gammaln(remainder + 1.0) - gammaln(ks + 1.0) - gammaln(remainder - ks + 1.0)
        lo, hi = group[0] + k_lo, group[-1] + k_hi  # yields r + k
        # log G(alpha + y) over the yields, log G(beta + sample + remainder - y)
        # over the same yields in reverse.
        top = sample + remainder
        g_alpha = gammaln(spec.alpha + np.arange(lo, hi + 1))
        g_beta = gammaln(spec.beta + np.arange(top - hi, top - lo + 1))
        for r, (w_lo, w_hi) in zip(group, windows):
            first, last = r + w_lo - lo, r + w_hi - lo
            # log C(rem, k) + log G(alpha + r + k) + log G(beta + sample - r + rem - k),
            # up to a constant.
            log_p = (
                log_c[w_lo - k_lo : w_hi - k_lo + 1]
                + g_alpha[first : last + 1]
                + g_beta[hi - lo - last : hi - lo - first + 1][::-1]
            )
            log_p -= log_p.max()
            kept = np.flatnonzero(log_p > floor)
            p = np.exp(log_p[kept[0] : kept[-1] + 1])
            out[r] = (r + w_lo + int(kept[0]), p / p.sum())
    return out


class _Posteriors(NamedTuple):
    """Posterior yield pmfs of one segment, one row per distinct count vector."""

    first: np.ndarray  # smallest kept yield
    length: np.ndarray  # support length
    pmf: np.ndarray  # pmfs, zero-padded to the longest support
    mean: np.ndarray
    var: np.ndarray


def _segment_posteriors(strata, counts, specs, tail: float):
    """Each sample's row index and the posterior yield pmfs of a segment."""
    keys, rows = np.unique(np.stack(counts, axis=1), axis=0, return_inverse=True)
    per_stratum = [
        _stratum_posteriors(population, sample, sorted(set(keys[:, s].tolist())), spec, tail)
        for s, ((population, sample), spec) in enumerate(zip(strata, specs))
    ]
    firsts, pmfs = [], []
    for key in keys.tolist():
        first, pmf = per_stratum[0][key[0]]
        for s in range(1, len(key)):
            offset, p = per_stratum[s][key[s]]
            first, pmf = first + offset, np.convolve(pmf, p)
        firsts.append(first)
        pmfs.append(pmf)
    lengths = np.array([len(p) for p in pmfs])
    padded = np.zeros((len(pmfs), lengths.max()))
    mean, var = np.empty(len(pmfs)), np.empty(len(pmfs))
    for i, (first, p) in enumerate(zip(firsts, pmfs)):
        padded[i, : len(p)] = p
        y = first + np.arange(len(p))
        mean[i] = p @ y
        var[i] = p @ (y - mean[i]) ** 2
    return rows.reshape(-1), _Posteriors(np.array(firsts, dtype=float), lengths, padded, mean, var)


# Cells per stack (``_stacks``): elements x longest y1 support in the exact
# search, strata x most pmf points (two an edge) in tabulation, rows x
# longest table on the lattice.  Bounds the working arrays at a quarter
# megabyte each.
_CHUNK_CELLS = 1 << 15
# Tail masses are scored within [_TINY_MASS, 1 - _EPS_MASS], where ndtri is finite.
_TINY_MASS = 1e-300
_EPS_MASS = 2.0**-53


def _inner_index(t, ratio, outer, first, length):
    """Per y1, the y0 table index of the atoms at or below t.

    Rows are elements: ``outer`` holds each one's y1 yields, rising along
    the row, and the other arguments, of its y0 support, one value each.
    The index is the smallest y0 with y1 / (y1 + y0) <= t, less the smallest
    y0 of the support.  ``ratio`` is (1 - t) / t.  The estimate from it
    stands where it lies clear of every integer; elsewhere the atoms' own
    quotients correct it, one step at a time until no step moves.
    """
    # Counts are kept to the support and one past its end, where the index
    # saturates; NaN from 0 * inf at t <= 0 takes the far end.
    lo, hi = first, first + length
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = outer * ratio[:, None]
        k = np.ceil(x)
        k -= lo[:, None]
        np.fmax(np.fmin(k, length[:, None], out=k), 0.0, out=k)
        # x is within 3u|x| of its exact value (three roundings, u = 2^-53).
        # A quotient y1 / (y1 + y0), rounded once, can fall on the other side
        # of t than its exact value only within u y1 (1 + ratio) of x in y0.
        # The margin, 16u (1 + ratio) times the row's largest y1, is over
        # twice their sum: beyond it from every integer the loop would not
        # move the estimate.  NaN, inf and the rest run it.
        margin = 2.0**-49 * outer[:, -1] * (1.0 + ratio)
        x -= np.rint(x)
        near = ~(np.abs(x, out=x) > margin[:, None])
        if near.any():
            rows, cols = np.nonzero(near)
            c_lo, c_hi, y, t = lo[rows], hi[rows], outer[rows, cols], t[rows]
            c = k[rows, cols] + c_lo
            while True:
                step = (y / (y + c) > t).astype(float) - (y / (y + (c - 1.0)) <= t)
                moved = np.fmax(np.fmin(c + step, c_hi), c_lo)
                if np.array_equal(moved, c):
                    break
                c = moved
            k[rows, cols] = c - c_lo
    return k


def _inner_tables(post0: _Posteriors):
    """Flat tables over (row, index) of the unretrieved segment.

    The first half holds the mass of the y0 at or above each index, the
    atoms at or below t; the second half the mass below it.  ``pmf`` holds
    the probability of the y0 at each index.  Rows are ``stride`` apart.
    """
    zeros = np.zeros((len(post0.pmf), 1))
    pmf = np.hstack([post0.pmf, zeros])
    below = np.cumsum(np.hstack([zeros, post0.pmf]), axis=1)
    at_or_above = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([at_or_above.ravel(), below.ravel()]), pmf.ravel(), pmf.shape[1]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _quantile_search(post1, rows1, post0, rows0, tables, upper, tail):
    """Posterior quantiles of recall, summing over the retrieved yields.

    Each element is a (row1, row0, side) triple; ``upper`` selects the
    upper bound (mass above t falls to ``tail``) instead of the lower one
    (mass at or below t reaches ``tail``).  Each element keeps a bracket:
    t_lo, where the tail mass has not crossed, starts just below its
    smallest atom, and t_hi, where it has, at its largest atom.  The first
    probe is a logit-normal approximation of the quantile; the next ones
    step away from it, doubling the step, until the crossing is seen from
    both sides, and then interpolate on the normal scores of the tail
    masses (Illinois).  Once no y1 has more than one atom between the ends,
    those atoms are sorted and their masses accumulated from the lower
    end's tail mass.
    """
    table, pmf, stride = tables
    pmf_base = (rows0 * stride).astype(float)
    tail_base = pmf_base + np.where(upper, len(table) // 2, 0)
    y0_lo = post0.first[rows0]
    length0 = post0.length[rows0].astype(float)
    # y1 yields along the rows, zero mass past each element's support.
    length1 = post1.length[rows1]
    width = int(length1.max())
    steps = np.arange(width)
    w = post1.pmf[rows1, :width]
    y1_lo = post1.first[rows1]
    y1 = y1_lo[:, None] + steps
    valid = steps < length1[:, None]
    y1_hi, y0_hi = y1_lo + length1 - 1.0, y0_lo + length0 - 1.0
    mu1, var1, mu0, var0 = post1.mean[rows1], post1.var[rows1], post0.mean[rows0], post0.var[rows0]
    target = ndtri(tail)

    def ratio(t):
        # No atom lies at or below t <= 0 unless y1 = 0 and t = 0, which the
        # search never evaluates.
        return np.where(t > 0.0, (1.0 - t) / t, np.inf)

    def index(t, r, live):
        return _inner_index(t, r, y1[live], y0_lo[live], length0[live])

    def mass(idx, live):
        gathered = table[(idx + tail_base[live, None]).astype(np.int64)]
        gathered *= w[live]
        # A running sum along each row: the same order at any batch size.
        # np.add.reduce is not pinned so: down the columns of a (yields x
        # elements) array it adds row after row, but a lone column (one
        # element left in the search) it sums pairwise.
        return np.cumsum(gathered, axis=1, out=gathered)[:, -1]

    m = len(rows1)
    cols = np.arange(m)
    t_lo = np.nextafter(y1_lo / (y1_lo + y0_hi), -np.inf)
    t_hi = y1_hi / (y1_hi + y0_lo)
    # Logit-normal approximation: log Y1 - log Y0 is close to normal.
    sd = np.sqrt(var1 / (mu1 * mu1) + var0 / (mu0 * mu0))
    probe = 1.0 / (1.0 + np.exp(np.log(mu0) - np.log(mu1) - np.where(upper, -target, target) * sd))
    step = 0.25 * sd * probe * (1.0 - probe)
    # Where the smallest atom is 0 and the tail mass already crosses there,
    # the bracket closes on it (t_lo is the float below 0) rather than
    # halving toward it through the subnormals.  With y0 > 0 the mass at or
    # below 0 is P(Y1 = 0).
    p0 = np.where(y1_lo == 0.0, post1.pmf[rows1, 0], 0.0)
    t_hi = np.where(np.where(upper, 1.0 - p0 <= tail, p0 >= tail), 0.0, t_hi)
    r_lo, r_hi = ratio(t_lo), ratio(t_hi)  # each end's ratio, kept beside it
    m_lo = mass(np.zeros((m, width)) + length0[:, None], cols)
    # Signed distance of each end's tail mass past the target in normal
    # scores, negative at t_lo and not negative at t_hi; an end kept twice in
    # a row has its distance halved (Illinois).
    g_lo, g_hi = np.full(m, -np.inf), np.full(m, np.inf)
    kept = np.zeros(m)
    out = np.empty(m)
    while len(cols):
        mid = 0.5 * (t_lo + t_hi)
        # Adjacent floats: the crossing atom can only be t_hi itself.
        stuck = (mid <= t_lo) | (mid >= t_hi)
        out[cols[stuck]] = t_hi[stuck]
        # At most one atom per y1 between the ends once the ratio moves by
        # less than one count over the largest y1.  A yield pinned at 0
        # makes the move inf - inf or 0 x inf: NaN, never near.
        near = (np.abs(r_hi - r_lo) * y1_hi[cols] < 1.0) & ~stuck
        if near.any():
            live = cols[near]
            i_lo, i_hi = index(t_lo[near], r_lo[near], live), index(t_hi[near], r_hi[near], live)
            gap = np.abs(i_hi - i_lo) * valid[live]
            single = gap.max(axis=1) <= 1.0
            live = live[single]
            out[live] = _first_crossing(
                i_lo[single], i_hi[single], gap[single], y1_lo[live], w[live], pmf,
                pmf_base[live], y0_lo[live], m_lo[near][single], upper[live], tail,
            )
            near[np.flatnonzero(near)[~single]] = False
        keep = ~(near | stuck)
        if not keep.all():
            cols, mid, t_lo, t_hi, r_lo, r_hi, m_lo, probe, step, g_lo, g_hi, kept = (
                a[keep]
                for a in (cols, mid, t_lo, t_hi, r_lo, r_hi, m_lo, probe, step, g_lo, g_hi, kept)
            )
            if not len(cols):
                break
        open_lo, open_hi = np.isinf(g_lo), np.isinf(g_hi)
        guess = t_lo + (t_hi - t_lo) * (g_lo / (g_lo - g_hi))
        probe = np.where(
            open_lo & open_hi,
            probe,
            np.where(open_lo, t_hi - step, np.where(open_hi, t_lo + step, guess)),
        )
        probe = np.where((probe > t_lo) & (probe < t_hi), probe, mid)
        r_probe = ratio(probe)
        m_probe = mass(index(probe, r_probe, cols), cols)
        score = ndtri(np.minimum(np.maximum(m_probe, _TINY_MASS), 1.0 - _EPS_MASS))
        g = np.where(upper[cols], target - score, score - target)
        reached = g >= 0.0
        t_hi, r_hi = np.where(reached, probe, t_hi), np.where(reached, r_probe, r_hi)
        t_lo, r_lo = np.where(reached, t_lo, probe), np.where(reached, r_lo, r_probe)
        m_lo = np.where(reached, m_lo, m_probe)
        g_hi = np.where(reached, g, np.where(kept > 0, 0.5 * g_hi, g_hi))
        g_lo = np.where(reached, np.where(kept < 0, 0.5 * g_lo, g_lo), g)
        kept = np.where(reached, -1.0, 1.0)
        step = 2.0 * step
    return out


def _first_crossing(i_lo, i_hi, gap, y1_lo, w, pmf, base, y0_lo, m_lo, upper, tail):
    """The atom between two search ends at which the tail mass crosses ``tail``.

    Rows are elements, as in ``_inner_index``; ``gap`` is |i_hi - i_lo|, 0
    past each support.  On a row where it is at most 1, each y1 has at most
    one atom between the ends, at table index min(i_lo, i_hi).
    """
    rows, cols = np.nonzero(gap)
    at = np.minimum(i_lo[rows, cols], i_hi[rows, cols])
    y1, y0 = y1_lo[rows] + cols, y0_lo[rows] + at
    atoms = y1 / (y1 + y0)
    # Each row's atoms ascending, ties in row order; masses summed in that order.
    order = np.lexsort((atoms, rows))
    count = np.bincount(rows, minlength=len(base))
    start = np.cumsum(count) - count
    run = np.zeros((len(base), count.max(initial=1)))
    masses = pmf[(at + base[rows]).astype(np.int64)] * w[rows, cols]
    run[rows, np.arange(len(rows)) - start[rows]] = masses[order]
    np.cumsum(run, axis=1, out=run)
    reached = np.where(upper[:, None], m_lo[:, None] - run <= tail, m_lo[:, None] + run >= tail)
    # Rounding may leave the running mass a hair short at the last atom, the
    # one t_hi reached.
    pick = np.where(reached.any(axis=1), reached.argmax(axis=1), count - 1)
    return atoms[order[start + pick]]


def _exact_quantiles(post1, post0, rows1, rows0, upper, tail):
    """Posterior quantiles of recall for each (row1, row0, side) element.

    Each element sums over its y1 support.  Elements run in ``_stacks`` of
    their y1 support lengths, so the working arrays stay small; each
    element's result depends only on its own pmfs.
    """
    out = np.empty(len(rows1))
    tables = _inner_tables(post0)
    for stack in _stacks(post1.length[rows1].tolist()):
        out[stack] = _quantile_search(
            post1, rows1[stack], post0, rows0[stack], tables, upper[stack], tail
        )
    return out


def _exact_bounds(batch: CountBatch, lower, upper, sub: np.ndarray, specs, tail: float) -> None:
    """Set the exact bounds of the samples ``sub`` of a batch that the forcing
    rules leave open; see ``_posterior_frame``."""
    (rows1, post1), (rows0, post0) = (
        _segment_posteriors(strata, [r[sub] for r in relevant], priors, _TAIL_SHARE * tail)
        for strata, relevant, priors in zip(batch.strata, batch.relevant, specs)
    )
    r1s, r0s = batch.totals()
    need_lo, need_hi = np.flatnonzero(r1s[sub] > 0), np.flatnonzero(r0s[sub] > 0)
    which = np.concatenate([need_lo, need_hi])
    bounds = _exact_quantiles(
        post1, post0, rows1[which], rows0[which], np.arange(len(which)) >= len(need_lo), tail
    )
    lower[sub[need_lo]] = bounds[: len(need_lo)]
    upper[sub[need_hi]] = bounds[len(need_lo) :]


def betabin_exact_bounds(
    batch: CountBatch, level: float, prior: PriorLike
) -> tuple[np.ndarray, np.ndarray]:
    """Exact equal-tail beta-binomial bounds on recall for every sample,
    under the forcing rules and with priors as in ``_posterior_frame``.

    The search enumerates each segment's posterior support, about 16 sds of
    its yield, so time and memory grow with it: a pair of wide posteriors
    can take minutes.  ``posterior_bounds`` sends pairs with a segment's
    yield sd past ``_EXACT_SD_MAX`` to the lattice instead.
    """
    return _posterior_frame(_exact_bounds, batch, level, BETA_BINOMIAL, prior)


# ---------------------------------------------------------------------------
# Most conservative beta-binomial prior.
# ---------------------------------------------------------------------------

_SEARCH_RANGE = (0.01, 2.0)
_POPULATION_CAP = 1000
_GAP_CAP = 200


def _entropy_table(population: int, sample: int) -> np.ndarray:
    """H(X | Y = y) for y = 0 .. population: the entropy of the hypergeometric
    count X of relevant documents in the sample given a yield of y, which no
    prior enters.  Summed over the (sample + 1) x (population - sample + 1)
    grid of sampled and unsampled counts, one anti-diagonal per yield."""
    xs = np.arange(sample + 1)
    js = np.arange(population - sample + 1)
    r_of = xs[:, None] + js[None, :]
    log_h = (
        log_comb(sample, xs)[:, None]
        + log_comb(population - sample, js)[None, :]
        - log_comb(population, np.arange(population + 1))[r_of]
    )
    return np.bincount(
        r_of.ravel(), weights=(-np.exp(log_h) * log_h).ravel(), minlength=population + 1
    )


def _information_gain(alpha: float, beta: float, sample: int, entropy: np.ndarray) -> float:
    """I(X; Y) = H(X) - sum_y p(y) H(X | Y = y) under a beta-binomial(alpha,
    beta) prior on the yield Y, from ``_entropy_table``; O(population)."""
    population = len(entropy) - 1
    ks = np.arange(population + 1)
    g_alpha = gammaln(alpha + ks)
    g_beta = gammaln(beta + ks)
    log_norm = gammaln(alpha + beta) - gammaln(alpha) - gammaln(beta)
    log_p_y = (
        log_norm + log_comb(population, ks) + g_alpha + g_beta[::-1]
        - gammaln(alpha + beta + population)
    )
    log_p_x = (
        log_norm + log_comb(sample, ks[: sample + 1]) + g_alpha[: sample + 1]
        + g_beta[sample::-1] - gammaln(alpha + beta + sample)
    )
    return float(-np.exp(log_p_x) @ log_p_x - np.exp(log_p_y) @ entropy)


def expected_information_gain(alpha: float, beta: float, population: int, sample: int) -> float:
    """Expected KL divergence from prior to posterior yield distribution.

    Averages, over the joint prior-predictive distribution of the true yield
    and the observed sample count, the log ratio of posterior to prior
    probability: the mutual information of the two counts.  A call tabulates
    the hypergeometric entropies in O(population * sample), then evaluates the
    prior in O(population); the solver behind ``most_conservative_prior``
    tabulates once per design.  Concave and symmetric in (alpha, beta).
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("hyperparameters must be positive")
    if not 0 <= sample <= population:
        raise ValueError("sample must lie in [0, population]")
    return _information_gain(alpha, beta, sample, _entropy_table(population, sample))


@functools.lru_cache(maxsize=None)
def _solve_most_conservative(population: int, sample: int) -> float:
    entropy = _entropy_table(population, sample)
    result = minimize_scalar(
        lambda a: -_information_gain(a, a, sample, entropy),
        bounds=_SEARCH_RANGE,
        method="bounded",
        options={"xatol": 1e-4},
    )
    return float(result.x)


def most_conservative_prior(population: int, sample: int) -> PriorSpec:
    """Symmetric beta-binomial prior maximizing expected information gain.

    Large problems are capped before optimizing: the population at 1000 and
    the sample at 1000 - min(population - sample, 200), since the solution
    stabilizes beyond that.  One solve tabulates the hypergeometric entropies
    once, in O(population * sample), and each step of the bounded search then
    costs O(population).
    For a single-element sample the hyperparameters collapse toward zero; the
    search boundary is returned with a warning.
    """
    if not 1 <= sample <= population:
        raise ValueError("sample must lie in [1, population]")
    if sample == 1:
        warnings.warn(
            "most conservative prior degenerates for single-draw samples; "
            "returning the search-range boundary",
            RuntimeWarning,
            stacklevel=2,
        )
        return PriorSpec(_SEARCH_RANGE[0], _SEARCH_RANGE[0])
    if population > _POPULATION_CAP:
        sample = _POPULATION_CAP - min(population - sample, _GAP_CAP)
        population = _POPULATION_CAP
    value = _solve_most_conservative(population, sample)
    return PriorSpec(value, value)


# ---------------------------------------------------------------------------
# Posterior quantiles on a log-yield lattice.
#
# logit R = log Y1 - log Y0.  Each stratum's posterior yield is tabulated in
# blocks of consecutive yields about equally wide in log-yield, and a sum of
# strata in the sums of their blocks.  Every block is spread over the two
# nearest nodes of the lattice u = j * h of log-yields, in the proportions
# that keep its mean log-yield, and one convolution of the two node tables
# gives the distribution of the logit on the same lattice.  A one-stratum
# segment's table stops at the edges of its core (``_stratum_windows``):
# blocks beyond them, at most the core's tail a side, are spread as if at
# the edge.  The running sums of the logit's distribution,
# less a second-difference correction for the variance that the spreading
# adds, are the CDF of logit R midway between nodes; the equal-tail quantiles
# are read off by inverse cubic interpolation and mapped back through the
# logistic function.  A yield of 0 is a point mass at R = 0 or R = 1.
#
# A batch's segments are tabulated together (``_tabulate``): their strata in
# stacks of at most ``_CHUNK_CELLS`` pmf points, two an edge, each stack one
# pass over its edges, one over its masses and one over its one-stratum
# segments' tables.
# Every element takes the IEEE operations it would take alone, and each
# per-segment sum (a total, mean, sd or scale) runs over the segment's own
# blocks, so a segment keeps its bits in any stack.
#
# h depends on the pair alone.  Pairs of one h are read together: each pair's
# convolution is its own, and the reader stacks them, padded in front, and
# evaluates the corrected CDF once over the whole stack with the same IEEE
# operations on every row that a pair alone would, so a batch gives the same
# bits as each of its samples alone.
# ---------------------------------------------------------------------------

_LATTICE_TAIL = 1e-16  # posterior mass a stratum window leaves out on either side
_BLOCKS_PER_SD = 64  # one stratum: blocks about sd(log Y) / 64 wide, ...
_MAX_BLOCKS = 4096  # ... and at most this many across a stratum window
_CORE_TAIL = 1e-5  # ... inside a core leaving out at most this a side, ...
_CORE_SHARE = 1e-3  # ... and at most this share of the tail a bound reads;
_TAIL_COARSE = 8  # beyond the core, blocks this many fine steps wide
_END_BLOCKS = 16  # blocks at an end of the support summed count by count or by the beta CDF
_SUM_POINTS = 1 << 16  # blocks of a sum of strata kept before merging
_LOGIT_STEPS = 32  # h is the largest power of two at or below sd(logit R) / 32
_LOG_SPAN = 10.0  # log-yields beyond this many sds from the mean, or a core's edge, sit there

_LATTICE_ATOMS_MIN = 1e4
"""Smallest product of the two segments' posterior yield sds for lattice
beta-binomial bounds.

Below it the posterior of recall has so few atoms that its exact quantiles
stand apart from any smooth approximation, and the bounds are exact
(``betabin_exact_bounds``).  On 500 random pairs with remainders of
2,000-20,000 and samples of 2-30%, lattice bounds were within 9.3e-6 of the
exact ones at or above it, 2.0e-5 from 3,000 and 5.2e-5 from 1,000.
"""
_EXACT_SD_MAX = 1e3
"""Largest posterior yield sd of a segment for exact bounds: the exact
search sums over Y1's support, about 16 sds, and costs time and memory in
proportion to it.  A pair past it with few atoms has a segment all but fixed
beside a wide one, which the lattice places to first order."""


class _LogYields(NamedTuple):
    """A segment's posterior blocks of positive yield, by increasing log-yield."""

    log_yield: np.ndarray
    mass: np.ndarray
    spread: np.ndarray  # variance of the log-yield within each block
    zero: float  # mass at a yield of 0
    total: float  # np.sum(mass)
    mean: float
    sd: float
    core: tuple[float, float] = (-math.inf, math.inf)  # log-yields where the node tables stop


def _betabin_pmf(remainder, a, b, k: np.ndarray, lengths) -> np.ndarray:
    """Beta-binomial pmfs, continued to real counts by log-gamma: run i of
    ``lengths`` counts k is beta-binomial(remainder[i], a[i], b[i])."""
    remainder, a, b = np.array([remainder, a, b], dtype=float)
    # The terms free of k once a run; the sum taken in place, term by term in
    # the expression's order, so that a stack keeps few arrays of its length.
    log_p = gammaln(remainder + 1.0).repeat(lengths)
    log_p -= gammaln(k + 1.0)
    log_p -= gammaln(remainder.repeat(lengths) - k + 1.0)
    log_p += gammaln(a.repeat(lengths) + k)
    log_p += gammaln((b + remainder).repeat(lengths) - k)
    log_p -= gammaln(a + b + remainder).repeat(lengths)
    log_p -= betaln(a, b).repeat(lengths)
    return np.exp(log_p, out=log_p)


def _stratum_windows(strata, family: str) -> list[tuple]:
    """(a, b, lo, hi, core_lo, core_hi) of each (population, sample, r, spec,
    core_tail): the posterior's beta parameters, a window of unsampled
    relevant counts (real ones for a beta posterior) holding all but
    ``_LATTICE_TAIL`` a side, and a core inside it holding all but core_tail a
    side (the whole window when that is no more).  One ``_prevalence_range``
    call serves every window and core."""
    a, b = [], []
    for _, sample, r, spec, _ in strata:
        prior = (0.5, 0.5) if family == BETA_JEFFREYS else (spec.alpha, spec.beta)
        a.append(prior[0] + r)
        b.append(prior[1] + sample - r)
    tails = [_LATTICE_TAIL] * len(strata) + [core_tail for *_, core_tail in strata]
    ranges = _prevalence_range(a + a, b + b, tails)
    out = []
    for k, (population, sample, *_, core_tail) in enumerate(strata):
        remainder = population - sample
        (lo, hi), (core_lo, core_hi) = (
            tuple(remainder * p for p in ranges[j]) if family == BETA_JEFFREYS
            else _count_window(remainder, ranges[j], tails[j])
            for j in (k, len(strata) + k)
        )
        if not core_tail > _LATTICE_TAIL:
            core_lo, core_hi = lo, hi
        out.append((a[k], b[k], lo, hi, max(core_lo, lo), min(core_hi, hi)))
    return out


class _Grid(NamedTuple):
    """A stratum's block edges before any array is built (``_block_grid``)."""

    start: float  # the yield at grid step 0
    width: float  # a grid step, in log-yield
    r: int
    ends: tuple  # the first two edges and the last, in unsampled counts (``_block_grid``)
    runs: tuple  # (first step, stride, count) of each run of grid steps
    size: int  # edges, before equal ones merge


def _block_grid(remainder: int, r: int, window, family: str, per_sd: int, most: int) -> _Grid:
    """The grid of a stratum's block edges: blocks about sd(log Y) / ``per_sd``
    wide in log-yield across the window's core, ``most`` of them at most.

    Beyond the core, blocks are ``_TAIL_COARSE`` of those steps wide, except
    the top ``_END_BLOCKS``.  A beta-binomial block [e, e') holds the counts
    e .. e' - 1, so blocks at small yields hold one count each, a count of 0
    among them.  Yields below 1 make one block, unless the whole window lies
    below 1: then blocks reach down to a millionth of its top.
    """
    a, b, lo, hi, core_lo, core_hi = window
    discrete = family == BETA_BINOMIAL
    # The posterior sd of the count: beta-binomial, or remainder x beta.
    scale = remainder * (a + b + remainder) if discrete else remainder**2
    cv = math.sqrt(scale * a * b / (a + b + 1.0)) / (a + b) / (r + remainder * a / (a + b))
    start, end = max(r + lo, 1.0), r + hi + discrete
    if start > end:
        start = max(r + lo, 1e-6 * end)
    # math.log, not np.log: a last bit of span, first or last can move a floor or a ceil.
    span = math.log(end / start)
    width = max(min(cv, 1.0) / per_sd, span / most)
    steps = math.ceil(span / width)
    # Grid steps: every one over the core [first, last] and the top _END_BLOCKS, every
    # _TAIL_COARSE-th counted from the core beyond it, and the ends.
    first = math.floor(math.log(max(r + core_lo, start) / start) / width)
    last = max(math.ceil(math.log(min(r + core_hi + discrete, end) / start) / width), first)
    top = max(steps - _END_BLOCKS, last + 1)
    below = len(range(first, 0, -_TAIL_COARSE))
    runs = (
        (0, 0, 2),  # the window's lower end, then grid step 0
        (first - _TAIL_COARSE * (below - 1), _TAIL_COARSE, below),
        (first + 1, 1, last - first),
        (last + _TAIL_COARSE, _TAIL_COARSE, len(range(last + _TAIL_COARSE, top, _TAIL_COARSE))),
        (top, 1, max(steps + 1 - top, 0)),
    )
    size = sum(run[2] for run in runs)
    # The first two edges and the last: the window's lower end, grid step 0 and
    # the top, where step 0 is not the top.
    ends = [start - r, end - r] if size > 2 else [end - r]
    if discrete:
        ends = [float(math.floor(edge)) for edge in ends]
    ends[:1] = sorted([lo, ends[0]])  # r + lo rounds, so start - r can fall an ulp below lo
    return _Grid(start, width, r, tuple(ends), runs, size)


def _block_edges(grids: list[_Grid], family: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Left and right edges, in unsampled relevant counts, of a stack of
    strata's blocks, concatenated, and where each stratum's blocks begin
    (then the end).

    One pass over the stack gives every edge with the operations a stratum
    alone would take.
    """
    runs = [run for grid in grids for run in grid.runs]
    counts = [count for *_, count in runs]
    # Run (first, stride, count) from position p holds first + stride (i - p) at position i.
    starts = itertools.accumulate(counts, initial=0)
    offset, stride = np.array([
        [first - step * p for (first, step, _), p in zip(runs, starts)],
        [step for _, step, _ in runs],
    ]).repeat(counts, axis=1)
    index = offset + stride * np.arange(len(offset))
    sizes = [grid.size for grid in grids]
    start, width, r = np.array(
        [[g.start for g in grids], [g.width for g in grids], [g.r for g in grids]]
    ).repeat(sizes, axis=1)
    edges = start * np.exp(width * index)
    edges -= r
    if family == BETA_BINOMIAL:
        np.floor(edges, out=edges)
    bounds = list(itertools.accumulate(sizes, initial=0))
    edges[[p + i for p, g in zip(bounds, grids) for i in (0, 1, g.size - 1)[: len(g.ends)]]] = [
        edge for g in grids for edge in g.ends
    ]
    # A block between each two unequal edges of a stratum.
    apart = edges[1:] != edges[:-1]
    apart[[p - 1 for p in bounds[1:-1]]] = False
    kept = apart.nonzero()[0]
    return edges.take(kept), edges.take(kept + 1), kept.searchsorted(bounds).tolist()


def _stratum_masses(strata, family: str, left, right, firsts: list[int]) -> np.ndarray:
    """Posterior mass of the unsampled relevant count in each block of a
    stack of strata, each given as (remainder, window), whose blocks
    (``_block_edges``) begin at ``firsts``.

    Blocks take two-point Gauss-Legendre integrals of the density, or the
    pmf for one count.  Beta masses are scaled to the beta CDF's difference
    across the window, and the ``_END_BLOCKS`` at an end where the density
    or its slope is unbounded (a or b below 2) take CDF differences
    (Gauss-Legendre blocks there moved bounds by up to 7.5e-7).  By the same
    rule the beta-binomial ``_END_BLOCKS`` at the top of the support sum
    their counts one by one where b is below 2, the pmf or its slope being
    unbounded there; elsewhere they take Gauss-Legendre like the rest
    (blocks at the bottom hold one count each).  One density or pmf pass
    serves the stack; a stratum's scale is summed over its own blocks.
    """
    blocks = [f1 - f0 for f0, f1 in zip(firsts, firsts[1:])]
    remainders = [remainder for remainder, _ in strata]
    a, b = ([window[i] for _, window in strata] for i in (0, 1))
    if family == BETA_JEFFREYS:
        share = np.array(remainders, dtype=float).repeat(blocks)
        p_left, p_right = np.minimum(left / share, 1.0), np.minimum(right / share, 1.0)
        ends, cdf_at = [], []  # blocks at either end, and the edges whose CDF they take
        for (_, (a_, b_, *_)), f0, n in zip(strata, firsts, blocks):
            low = min(_END_BLOCKS, n) if a_ < 2.0 else 0
            high = min(_END_BLOCKS, n - low) if b_ < 2.0 else 0
            ends.append((low, high, len(cdf_at)))
            # Edge j of the stratum: the left of its first block, or the right of block j - 1.
            on_right = len(left) + f0 - 1
            edges = (*range(low + 1), *range(n - high, n + 1))
            cdf_at.extend(on_right + j if j else f0 for j in edges)
        lengths = [low + high + 2 for low, high, _ in ends]
        # Differences of each stratum's CDF values: the low end blocks' masses,
        # the CDF across the other blocks, the high end blocks' masses.
        at_edges = np.concatenate([p_left, p_right])[cdf_at]
        steps = np.diff(betainc(*np.array([a, b]).repeat(lengths, axis=1), at_edges))
        # Gauss-Legendre on every block; the end blocks then take their CDF differences.
        width, centre = p_right - p_left, (p_left + p_right) / 2.0
        half = width / (2.0 * math.sqrt(3.0))
        x = np.empty((2, len(centre)))
        np.subtract(centre, half, out=x[0])
        np.add(centre, half, out=x[1])
        a_1, b_1, beta = np.array(
            [[v - 1.0 for v in a], [v - 1.0 for v in b], betaln(a, b)]
        ).repeat(blocks, axis=1)
        density = np.exp(a_1 * np.log(x) + b_1 * np.log1p(-x) - beta)
        mass = (width / 2.0) * (density[0] + density[1])
        scale = [
            steps[at + low] / np.add.reduce(mass[f0 + low : f0 + n - high]) if n > low + high
            else 0.0
            for f0, n, (low, high, at) in zip(firsts, blocks, ends)
        ]
        mass *= np.array(scale).repeat(blocks)
        for f0, n, (low, high, at) in zip(firsts, blocks, ends):
            if low or high:
                mass[f0 : f0 + low] = steps[at : at + low]
                mass[f0 + n - high : f0 + n] = steps[at + low + 1 : at + low + 1 + high]
        return mass
    width = right - left
    wide = width > 1.0
    span = width[wide]
    centre = left[wide] + (span - 1.0) / 2.0
    half = span / (2.0 * math.sqrt(3.0))
    # Each block's points side by side: its one count, or its two Gauss-Legendre points.
    points = wide + 1
    ends = np.cumsum(points)
    at = ends - points
    k = np.empty(ends[-1] if len(ends) else 0)
    k[at] = left
    pair = at[wide]
    k[pair], k[pair + 1] = centre - half, centre + half
    cuts = np.concatenate([[0], ends])[firsts].tolist()
    pmf = _betabin_pmf(remainders, a, b, k, [c1 - c0 for c0, c1 in zip(cuts, cuts[1:])])
    mass = pmf[at]
    mass[wide] = (span / 2.0) * (pmf[pair] + pmf[pair + 1])
    for (remainder, (a_, b_, _, hi, *_)), f0, f1 in zip(strata, firsts, firsts[1:]):
        if hi == remainder and b_ < 2.0:
            top = f1 - min(_END_BLOCKS, f1 - f0)
            cut = np.concatenate([left[top : top + 1], right[top:f1]]).astype(np.int64)
            atoms = _betabin_pmf(
                [remainder], [a_], [b_], np.arange(cut[0], cut[-1]), [cut[-1] - cut[0]]
            )
            mass[top:f1] = np.add.reduceat(atoms, cut[:-1] - cut[0])
    return mass


def _merge_blocks(centre: np.ndarray, mass: np.ndarray, spread: np.ndarray):
    """Blocks of positive yield merged in log-yield bins 1/64 of a log-yield sd wide.

    A merged block keeps the mass, mean yield and yield variance of its
    parts; blocks beyond ``_LOG_SPAN`` sds merge into the outermost bins.
    A block at a yield of 0 stays as it is: a further stratum may add to it.
    """
    low = [values[centre == 0.0] for values in (centre, mass, spread)]
    keep = (centre > 0.0) & (mass > 0.0)
    centre, mass, spread = centre[keep], mass[keep], spread[keep]
    log_y = np.log(centre)
    weight = mass / np.sum(mass)
    mean = np.sum(weight * log_y)
    width = max(math.sqrt(np.sum(weight * (log_y - mean) ** 2)), 1e-12) / _BLOCKS_PER_SD
    reach = int(_LOG_SPAN * _BLOCKS_PER_SD)
    bins = np.clip(np.floor((log_y - mean) / width), -reach, reach).astype(np.int64) + reach
    total = np.bincount(bins, mass, 2 * reach + 1)
    used = total > 0.0
    first = np.bincount(bins, mass * centre, 2 * reach + 1)[used] / total[used]
    second = np.bincount(bins, mass * (spread + centre * centre), 2 * reach + 1)[used] / total[used]
    merged = first, total[used], np.maximum(second - first * first, 0.0)
    return tuple(np.concatenate(pair) for pair in zip(low, merged))


def _log_yields(centre, mass, spread, firsts, zeros, cores) -> list[_LogYields]:
    """Each segment's ``_LogYields`` from a stack of blocks by increasing
    yield, the segment's beginning at ``firsts`` (then the end): its blocks
    of positive yield and mass.  Each total, mean and sd is summed over the
    segment's own blocks, so a segment keeps its bits in any stack."""
    keep = np.flatnonzero((centre > 0.0) & (mass > 0.0))
    y, mass, spread = centre[keep], mass[keep], spread[keep]
    firsts = np.searchsorted(keep, firsts)
    spans = list(zip(firsts.tolist(), firsts[1:].tolist()))
    log_y, spread = np.log(y), spread / (y * y)
    weighted = mass * log_y
    totals = [np.add.reduce(mass[f0:f1]) for f0, f1 in spans]
    means = [
        np.add.reduce(weighted[f0:f1]) / total if total > 0.0 else 0.0
        for (f0, f1), total in zip(spans, totals)
    ]
    square = mass * ((log_y - np.array(means).repeat(firsts[1:] - firsts[:-1])) ** 2 + spread)
    out = []
    for (f0, f1), total, mean, zero, core in zip(spans, totals, means, zeros, cores):
        seg = log_y[f0:f1], mass[f0:f1], spread[f0:f1], zero, total
        if not total > 0.0:
            out.append(_LogYields(*seg, 0.0, 0.0))
        else:
            sd = math.sqrt(np.add.reduce(square[f0:f1]) / total)
            out.append(_LogYields(*seg, float(mean), sd, core))
    return out


def _tabulate(segments, family: str, tail: float) -> list[_LogYields]:
    """The posterior of each segment's yield given one relevant count and
    prior per stratum; ``segments`` holds (strata, count vector, priors).

    Each stratum takes blocks about equally wide in log-yield, tabulated with
    the other strata in stacks of at most ``_CHUNK_CELLS`` / 2 edges: one pass
    over a stack's edges, one over its masses and one over its one-stratum
    segments' tables.  A block of a sum of strata is a sum of their blocks.
    ``_merge_blocks`` merges a sum of two or more before a further stratum
    takes it past ``_SUM_POINTS`` blocks, and a sum past it before a census
    stratum shifts it and at the end.  ``tail`` is the posterior mass below
    the lower bound read (and above the upper).
    """
    discrete = float(family == BETA_BINOMIAL)
    # One stratum's blocks are coarse only in tails far beyond the bounds read.  Strata
    # that are summed take coarser blocks throughout, a sum being smoother than its parts.
    alone = (_BLOCKS_PER_SD, _MAX_BLOCKS, min(_CORE_TAIL, _CORE_SHARE * tail))
    owners, strata, layouts = [], [], []
    for s, (seg_strata, vector, specs) in enumerate(segments):
        layout = alone if len(seg_strata) == 1 else (32, 512, 0.0)
        for j, ((population, sample), r, spec) in enumerate(zip(seg_strata, vector, specs)):
            if population > sample:
                owners.append((s, j))
                strata.append((population, sample, r, spec, layout[2]))
                layouts.append(layout)
    windows = _stratum_windows(strata, family)
    grids = [
        _block_grid(population - sample, r, window, family, per_sd, most)
        for (population, sample, r, *_), window, (per_sd, most, _) in zip(strata, windows, layouts)
    ]
    out = [None] * len(segments)
    parts = {}  # the blocks of each stratum of a segment with more than one
    for single in (True, False):
        members = [k for k, (s, _) in enumerate(owners) if (len(segments[s][0]) == 1) is single]
        for rows in _stacks([2 * grids[k].size for k in members]):
            stack = [members[row] for row in rows]
            left, right, firsts = _block_edges([grids[k] for k in stack], family)
            mass = _stratum_masses(
                [(strata[k][0] - strata[k][1], windows[k]) for k in stack],
                family, left, right, firsts,
            )
            counts = np.array([f1 - f0 for f0, f1 in zip(firsts, firsts[1:])])
            if discrete:
                # Gauss-Legendre blocks may miss ~1e-7 of the mass, a false tail that would put
                # bounds near level 1 at 0 or 1.  A window from 0 starts with the count 0.
                sums = [np.add.reduce(mass[f0:f1]) for f0, f1 in zip(firsts, firsts[1:])]
                mass /= np.array(sums).repeat(counts)
            width = right - left
            rs = [strata[k][2] for k in stack]
            centre = np.array(rs).repeat(counts) + left + (width - discrete) / 2.0
            spread = (width**2 - discrete) / 12.0
            zeros = [
                mass[f0] if discrete and r == windows[k][2] == 0 else 0.0
                for k, r, f0 in zip(stack, rs, firsts)
            ]
            if single:
                edges = [
                    [r + windows[k][4], r + windows[k][5] + discrete] for k, r in zip(stack, rs)
                ]
                with np.errstate(divide="ignore"):  # a core from a yield of 0 has no lower edge
                    cores = map(tuple, np.log(edges).tolist())
                tables = _log_yields(centre, mass, spread, firsts, zeros, cores)
                for k, table in zip(stack, tables):
                    out[owners[k][0]] = table
            else:
                for k, f0, f1, zero in zip(stack, firsts, firsts[1:], zeros):
                    parts[owners[k]] = centre[f0:f1], mass[f0:f1], spread[f0:f1], zero
    for s, (seg_strata, vector, _) in enumerate(segments):
        if out[s] is None:
            out[s] = _summed_log_yields(vector, [parts.get((s, j)) for j in range(len(seg_strata))])
    return out


def _summed_log_yields(vector, parts) -> _LogYields:
    """The ``_LogYields`` of a segment from the blocks of each of its strata
    (``_tabulate``; None for a census stratum), as sums of one block a stratum."""
    centre, mass, spread = np.zeros(1), np.ones(1), np.zeros(1)
    zero = 1.0  # a yield of 0 takes no relevant count, sampled or not, in any stratum
    summed = False  # whether blocks of two strata were summed
    for r, part in zip(vector, parts):
        if part is None:
            if len(centre) > _SUM_POINTS:
                centre, mass, spread = _merge_blocks(centre, mass, spread)
            centre, zero = centre + r, zero * (r == 0)
            continue
        add, weight, widen, at_zero = part
        zero *= at_zero
        if summed and len(centre) * len(weight) > _SUM_POINTS:
            # Merged first, a further stratum multiplies hundreds of blocks, not tens of thousands.
            centre, mass, spread = _merge_blocks(centre, mass, spread)
        # One stratum's blocks increase, shifted by any census strata; sums of two do not.
        summed |= len(centre) > 1
        centre = (centre[:, None] + add).ravel()
        mass = (mass[:, None] * weight).ravel()
        spread = (spread[:, None] + widen).ravel()
    if len(centre) > _SUM_POINTS:
        centre, mass, spread = _merge_blocks(centre, mass, spread)
    if summed:
        order = np.argsort(centre, kind="stable")
        centre, mass, spread = centre[order], mass[order], spread[order]
    return _log_yields(centre, mass, spread, [0, len(centre)], [zero], [(-math.inf, math.inf)])[0]


def _stacks(lengths: list[int]) -> list[list[int]]:
    """Indices in order of decreasing length, in stacks whose size times its
    longest length is at most ``_CHUNK_CELLS``; a longer item stands alone."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    stacks, start = [], 0
    while start < len(order):
        stacks.append(order[start : start + max(1, _CHUNK_CELLS // lengths[order[start]])])
        start += len(stacks[-1])
    return stacks


def _nodes(segs: list[_LogYields], h: float) -> list[tuple[int, np.ndarray, float]]:
    """First node, node masses and added log-yield variance of each segment on the lattice.

    A stack of segments takes one pair of bincounts, each segment's table at
    its own offset, and one sum per segment for the added variance.
    """
    out = [None] * len(segs)
    for rows in _stacks([len(seg.mass) for seg in segs]):
        stack = [segs[r] for r in rows]
        ends = list(itertools.accumulate(len(seg.mass) for seg in stack))
        begins = [0, *ends[:-1]]
        x = np.concatenate([seg.log_yield for seg in stack])
        for seg, begin, end in zip(stack, begins, ends):
            # Log-yields increase: only a segment's ends can lie beyond its reach.
            part, reach = x[begin:end], _LOG_SPAN * seg.sd
            low, high = max(seg.core[0], seg.mean - reach), min(seg.core[1], seg.mean + reach)
            if part[0] < low or part[-1] > high:
                np.clip(part, low, high, out=part)
        x /= h
        j = np.floor(x)
        d = x - j
        idx = j.astype(np.int64)
        firsts, lasts = idx[begins].tolist(), idx[[end - 1 for end in ends]].tolist()
        sizes = [last - first + 2 for first, last in zip(firsts, lasts)]
        offsets = list(itertools.accumulate(sizes, initial=0))
        idx -= np.repeat(
            [first - offset for first, offset in zip(firsts, offsets)],
            [end - begin for begin, end in zip(begins, ends)],
        )
        mass = np.concatenate([seg.mass for seg in stack])
        rest = 1.0 - d
        nodes = np.bincount(idx, mass * rest, offsets[-1])
        nodes += np.bincount(idx + 1, mass * d, offsets[-1])
        # A block wider than a node gap (a coarse one, at small yields) counts as
        # one spread evenly over the gap.
        spread = np.minimum(np.concatenate([seg.spread for seg in stack]), h * h / 12.0)
        added = mass * (d * rest * h * h - spread)
        for r, seg, first, lo, hi, begin, end in zip(
            rows, stack, firsts, offsets, offsets[1:], begins, ends
        ):
            out[r] = first, nodes[lo:hi], float(added[begin:end].sum() / seg.total)
    return out


def _point_recall(seg1: _LogYields, seg0: _LogYields) -> float | None:
    """R where the pair's posterior is a point mass, else None."""
    if not len(seg1.mass):
        return 0.0  # no positive yield Y1: R = 0
    if not len(seg0.mass):
        return 1.0  # no positive yield Y0: R = 1
    if seg1.sd == seg0.sd == 0.0:
        return 1.0 / (1.0 + math.exp(seg0.mean - seg1.mean))
    return None


def _lattice_quantiles(h: float, pairs, targets) -> np.ndarray:
    """Posterior quantiles of recall at each target probability, one row per pair.

    ``pairs`` holds, for each pair on the lattice of step h, the posterior
    mass of Y1 at 0 and the two segments' ``_nodes``.  Pairs are read in
    stacks of at most ``_CHUNK_CELLS`` cells, longest first.  Row r of a
    stack holds its pair's CDF (the mass at 0, its running sums, the last
    sum again) after as many copies of the mass at 0 as its pmf is shorter
    than the first, so from column pad on its second-difference CDF f is, bit
    for bit, the f of the pair alone: column pad + i holds node i.  A target
    is not read where the mass of Y1 at 0 reaches it (R = 0) or the total
    mass falls short of it (R = 1).
    """
    out = np.empty((len(pairs), len(targets)))
    for rows in _stacks([len(t1) + len(t0) - 1 for _, (_, t1, _), (_, t0, _) in pairs]):
        stack = [pairs[r] for r in rows]
        pmfs = [np.convolve(t1, t0[::-1]) for _, (_, t1, _), (_, t0, _) in stack]
        width = len(pmfs[0])
        pads = [width - len(pmf) for pmf in pmfs]
        cdf = np.zeros((len(stack), width + 2))
        for row, pad, pmf in zip(cdf, pads, pmfs):
            row[pad + 1 : -1] = pmf
        np.cumsum(cdf[:, 1:-1], axis=1, out=cdf[:, 1:-1])
        zeros = [zero for zero, _, _ in stack]
        cdf[:, :-1] += np.array(zeros)[:, None]
        cdf[:, -1] = cdf[:, -2]
        totals = cdf[:, -1].tolist()
        # Midway between nodes, less the variance the spreading added.
        coef = np.array(
            [((a1 + a0) / 2.0 - h * h / 24.0) / (h * h) for _, (*_, a1), (*_, a0) in stack]
        )
        f = cdf[:, 1:-1] - coef[:, None] * (cdf[:, 2:] - 2.0 * cdf[:, 1:-1] + cdf[:, :-2])
        # The convolution's entry i is the mass of logit R at node first + i.
        firsts = [first1 - first0 - len(t0) + 1 for _, (first1, _, _), (first0, t0, _) in stack]
        # Before column pad - 1, f is the mass at 0, below every target read.
        # Column pad - 1 is the mass at 0 less coef times node 0's mass, and
        # coef >= -1/8, so it reaches p only where node 0 does, and the clamp
        # to node 0 reads it as the pair alone would.
        for k, p in enumerate(targets):
            hits = np.argmax(f >= p, axis=1).tolist()  # column 0 where none reaches p
            for r, row, pad, hit, zero, total, first in zip(
                rows, f, pads, hits, zeros, totals, firsts
            ):
                if zero >= p or total < p:
                    out[r, k] = 0.0 if zero >= p else 1.0
                    continue
                t = _crossing(row[pad:], max(hit - pad, 0), p)
                # math.exp, as for a pair alone: np.exp may differ in the last bit.
                out[r, k] = 1.0 / (1.0 + math.exp(-(first + 0.5 + t) * h))
    return out


def _crossing(f: np.ndarray, node: int, p: float) -> float:
    """Where the second-difference CDF f of one pair reaches p between nodes:
    by the inverse cubic through the four nodes around the first ``node``
    where f reaches p (at least node 1), else linearly."""
    i = max(node, 1)
    start = min(max(i - 2, 0), len(f) - 4)
    base = max(i - 3, 0)
    near = f[base : i + 3].tolist()  # every node read below
    t = math.nan
    if start >= 0:
        f0, f1, f2, f3 = near[start - base : start - base + 4]
        if f0 < f1 < f2 < f3:
            # The Lagrange cubic in f through the four nodes, at p: node a
            # weighs a times (p - f_b) / (f_a - f_b) over b != a, in b order.
            q0, q1, q2, q3 = p - f0, p - f1, p - f2, p - f3
            t = start + (
                0.0
                + q0 / (f1 - f0) * (q2 / (f1 - f2)) * (q3 / (f1 - f3))
                + 2.0 * (q0 / (f2 - f0)) * (q1 / (f2 - f1)) * (q3 / (f2 - f3))
                + 3.0 * (q0 / (f3 - f0)) * (q1 / (f3 - f1)) * (q2 / (f3 - f2))
            )
    if not i - 1 <= t <= i:
        below, above = near[i - 1 - base], near[i - base]
        # IEEE division: equal f at both nodes gives an infinity or NaN, not an error.
        t = i - 1 + np.float64(p - below) / (above - below)
    return t


def _betabin_yield_sd(strata, vector, specs) -> float:
    """The sd of a segment's beta-binomial posterior yield, given its strata's priors."""
    var = 0.0
    for (population, sample), r, spec in zip(strata, vector, specs):
        remainder = population - sample
        if remainder:
            a, b = spec.alpha + r, spec.beta + sample - r
            var += remainder * a * b * (a + b + remainder) / ((a + b) ** 2 * (a + b + 1.0))
    return math.sqrt(var)


def posterior_bounds(
    batch: CountBatch,
    level: float,
    family: str,
    prior: PriorLike,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior quantile bounds on recall for every sample of a batch.

    The bounds are lattice quantiles of the posterior of recall, except
    for beta-binomial pairs whose two posterior yield sds multiply to less
    than ``_LATTICE_ATOMS_MIN`` and are at most ``_EXACT_SD_MAX``, which
    take exact quantiles (``betabin_exact_bounds``).  Forcing rules and
    priors as in ``_posterior_frame``.
    """

    def lattice(batch, lower, upper, sub, specs, tail):
        vectors = [list(zip(*(r[sub].tolist() for r in relevant))) for relevant in batch.relevant]

        # Per segment (0 retrieved, 1 unretrieved) and count vector, computed once.
        @functools.cache
        def yield_sd(side: int, vector) -> float:
            return _betabin_yield_sd(batch.strata[side], vector, specs[side])

        exact, pairs = [], []
        for k, v1, v0 in zip(sub.tolist(), *vectors):
            if family == BETA_BINOMIAL:
                sds = yield_sd(0, v1), yield_sd(1, v0)
                if sds[0] * sds[1] < _LATTICE_ATOMS_MIN and max(sds) <= _EXACT_SD_MAX:
                    exact.append(k)
                    continue
            pairs.append((k, v1, v0))
        # The distinct segments of the lattice's pairs, tabulated together.
        keys = list(dict.fromkeys(key for _, *segments in pairs for key in enumerate(segments)))
        segments = [(batch.strata[side], vector, specs[side]) for side, vector in keys]
        posterior = dict(zip(keys, _tabulate(segments, family, tail)))
        groups = {}
        for k, v1, v0 in pairs:
            seg1, seg0 = posterior[0, v1], posterior[1, v0]
            point = _point_recall(seg1, seg0)
            if point is not None:
                lower[k], upper[k] = point, point
                continue
            h = 2.0 ** math.floor(math.log2(math.hypot(seg1.sd, seg0.sd) / _LOGIT_STEPS))
            groups.setdefault(h, []).append((v1, v0, k))
        for h, members in groups.items():
            nodes = [
                dict(zip(vectors, _nodes([posterior[side, v] for v in vectors], h)))
                for side, vectors in enumerate(
                    dict.fromkeys(member[side] for member in members) for side in (0, 1)
                )
            ]
            bounds = _lattice_quantiles(
                h,
                [(posterior[0, v1].zero, nodes[0][v1], nodes[1][v0]) for v1, v0, _ in members],
                (tail, 1.0 - tail),
            )
            index = [k for _, _, k in members]
            lower[index], upper[index] = bounds.T
        if exact:
            _exact_bounds(batch, lower, upper, np.array(exact), specs, tail)

    return _posterior_frame(lattice, batch, level, family, prior)


class MethodSpec(NamedTuple):
    """An interval method: ``kernel(batch, level, *params)`` gives its bounds."""

    kernel: Callable[..., tuple[np.ndarray, np.ndarray]]
    params: tuple = ()


METHOD_TABLE = {
    "naive-binomial": MethodSpec(naive_binomial_bounds),
    "normal-mle": MethodSpec(normal_bounds, (0,)),
    "normal-laplace": MethodSpec(normal_bounds, (1,)),
    "normal-agresti": MethodSpec(normal_bounds, (2,)),
    "koopman": MethodSpec(koopman_bounds),
    "beta-jeffreys": MethodSpec(posterior_bounds, (BETA_JEFFREYS, None)),
    "betabin-uniform": MethodSpec(posterior_bounds, (BETA_BINOMIAL, PriorSpec(1.0, 1.0))),
    "betabin-mcp": MethodSpec(posterior_bounds, (BETA_BINOMIAL, most_conservative_prior)),
    "betabin-half": MethodSpec(posterior_bounds, (BETA_BINOMIAL, PriorSpec(0.5, 0.5))),
}
"""The nine methods, in their output order."""

METHODS = tuple(METHOD_TABLE)

POSTERIOR_METHODS = frozenset(
    tag for tag, spec in METHOD_TABLE.items() if spec.kernel is posterior_bounds
)
"""Methods whose bounds are posterior quantiles (``posterior_bounds``)."""

NORMAL_ADJUSTMENTS = {
    tag: spec.params[0] for tag, spec in METHOD_TABLE.items() if spec.kernel is normal_bounds
}
"""Count adjustment of each normal-approximation method."""


def interval_bounds(
    method: str, batch: CountBatch, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of any of the nine methods for every sample."""
    if method not in METHOD_TABLE:
        raise ValueError(f"unknown interval method: {method!r}")
    kernel, params = METHOD_TABLE[method]
    return kernel(batch, level, *params)


def compute_interval(
    method: str,
    problem: RecallProblem,
    level: float,
    config: MonteCarloConfig | None = None,
) -> RecallInterval:
    """Any of the nine interval methods on one problem, by tag.

    ``config`` is ignored: no method reads a seed or a draw count.
    """
    (lower,), (upper,) = interval_bounds(method, CountBatch.of_problem(problem), level)
    return RecallInterval(float(lower), float(upper), level, _point_or_none(problem), method)
