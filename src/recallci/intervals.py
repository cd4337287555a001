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


def _prevalence_range(a: float, b: float, tail: float) -> tuple[float, float]:
    """Prevalences below and above which a Beta(a, b) posterior holds ``tail`` each.

    Where the inversion fails (a tail too small for it) the range reaches 0 or 1.
    """
    lo, hi = float(betaincinv(a, b, tail)), float(betaincinv(b, a, tail))
    return (lo if lo >= 0.0 else 0.0), (1.0 - hi if hi >= 0.0 else 1.0)


def _count_window(remainder: int, a: float, b: float, tail: float) -> tuple[int, int]:
    """Counts outside which a beta-binomial(remainder, a, b) holds at most 2 ``tail`` a side.

    The prevalence leaves its ``tail`` range with probability ``tail``; a
    binomial count at mean m strays below m - z sqrt(m) or above
    m + z sqrt(m) + z^2 with probability below exp(-z^2 / 2) (Chernoff), and
    z is chosen to make that ``tail``.  With no tail the window is the
    whole support.
    """
    if tail <= 0.0:
        return 0, remainder
    lo, hi = _prevalence_range(a, b, tail)
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
        windows = [
            _count_window(remainder, spec.alpha + r, spec.beta + sample - r,
                          tail / (2 * (remainder + 1)))
            for r in group
        ]
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


# Below this total yield a float atom lies within a fraction of a count of
# the rational it rounds, so one correction step either way fixes the
# estimate of each boundary count; at or above it the steps repeat until
# none moves.
_SETTLED_TOTAL = 2.0**26
# Cells per stack (``_stacks``): elements x longest outer support in the exact
# search, rows x longest table on the lattice.  Bounds the working arrays at a
# quarter megabyte each.
_CHUNK_CELLS = 1 << 15
# Tail masses are scored within [_TINY_MASS, 1 - _EPS_MASS], where ndtri is finite.
_TINY_MASS = 1e-300
_EPS_MASS = 2.0**-53


def _inner_index(t, ratio, outer, first, length, by_y0, settle):
    """Per outer yield, the inner table index of the atoms at or below t.

    With ``by_y0`` the outer yields are y0 and the index is 1 + the largest
    y1 with y1 / (y1 + y0) <= t, less the smallest y1 of the support; else
    the outer yields are y1 and the index is the smallest y0 with an atom at
    or below t, less the smallest y0.  ``ratio`` is t / (1 - t) (y0 outer) or
    (1 - t) / t (y1 outer).  The estimate from it is corrected against the
    atoms' own quotients, one step either way, or until no step moves when
    ``settle`` is set.
    """
    # Counts are kept to the support and one past its end, where the index
    # saturates; NaN from 0 * inf at t <= 0 takes the far end.
    if by_y0:
        lo, hi, toward = first - 1.0, first + length - 1.0, np.floor
    else:
        lo, hi, toward = first, first + length, np.ceil
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.fmax(np.fmin(toward(outer * ratio), hi), lo)
        while True:
            if by_y0:
                up = k + 1.0
                step = (up / (up + outer) <= t).astype(float) - (k / (k + outer) > t)
            else:
                down = k - 1.0
                step = (outer / (outer + k) > t).astype(float) - (outer / (outer + down) <= t)
            moved = np.fmax(np.fmin(k + step, hi), lo)
            if not settle or np.array_equal(moved, k):
                return moved - lo
            k = moved


def _inner_tables(inner: _Posteriors, by_y0: bool):
    """Flat tables over (row, inner index) of the inner segment.

    The first half holds the mass of atoms at or below t for each inner
    index, the second half the mass above; ``pmf`` holds the probability of
    the inner yield at each index.  Rows are ``stride`` apart.
    """
    zeros = np.zeros((len(inner.pmf), 1))
    pmf = np.hstack([inner.pmf, zeros])
    below = np.cumsum(np.hstack([zeros, inner.pmf]), axis=1)
    at_or_above = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    # With y0 outer the atoms at or below t are the inner yields below the
    # index; with y1 outer, those at or above it.
    halves = (below, at_or_above) if by_y0 else (at_or_above, below)
    return np.concatenate([h.ravel() for h in halves]), pmf.ravel(), pmf.shape[1]


def _quantile_search(outer, outer_rows, inner, inner_rows, tables, by_y0, upper, tail):
    """Posterior quantiles of recall, summing over one segment's yields.

    Each element is an (outer row, inner row, side) triple; ``upper``
    selects the upper bound (mass above t falls to ``tail``) instead of the
    lower one (mass at or below t reaches ``tail``).  Each element keeps a
    bracket: t_lo, where the tail mass has not crossed, starts just below
    its smallest atom, and t_hi, where it has, at its largest atom.  The
    first probe is a logit-normal approximation of the quantile; the next
    ones step away from it, doubling the step, until the crossing is seen
    from both sides, and then interpolate on the normal scores of the tail
    masses (Illinois).  Once no outer yield has more than one atom between
    the ends, those atoms are sorted and their masses accumulated from the
    lower end's tail mass.
    """
    table, pmf, stride = tables
    pmf_base = (inner_rows * stride).astype(float)
    tail_base = pmf_base + np.where(upper, len(table) // 2, 0)
    first_i = inner.first[inner_rows]
    length_i = inner.length[inner_rows].astype(float)
    # Outer yields down the columns, zero mass past each element's support.
    length_o = outer.length[outer_rows]
    width = int(length_o.max())
    steps = np.arange(width)[:, None]
    w = np.ascontiguousarray(outer.pmf[outer_rows, :width].T)
    first_o = outer.first[outer_rows]
    outer_y = first_o + steps
    valid = steps < length_o

    ends_o, ends_i = (first_o, first_o + length_o - 1.0), (first_i, first_i + length_i - 1.0)
    (y1_lo, y1_hi), (y0_lo, y0_hi) = (ends_i, ends_o) if by_y0 else (ends_o, ends_i)
    post1, rows1, post0, rows0 = (
        (inner, inner_rows, outer, outer_rows) if by_y0 else (outer, outer_rows, inner, inner_rows)
    )
    mu1, var1, mu0, var0 = post1.mean[rows1], post1.var[rows1], post0.mean[rows0], post0.var[rows0]
    span_scale = y0_hi if by_y0 else y1_hi
    settle = bool(np.any(y1_hi + y0_hi >= _SETTLED_TOTAL))
    target = ndtri(tail)

    def ratio(t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if by_y0:
                return t / (1.0 - t)
            # No atom lies at or below t <= 0 unless y1 = 0 and t = 0, which
            # the search never evaluates.
            return np.where(t > 0.0, (1.0 - t) / t, np.inf)

    def index(t, live):
        return _inner_index(
            t, ratio(t), outer_y[:, live], first_i[live], length_i[live], by_y0, settle
        )

    def mass(idx, live):
        gathered = table[(idx + tail_base[live]).astype(np.int64)]
        gathered *= w[:, live]
        # A running sum down each column: the same order at any batch size.
        return np.cumsum(gathered, axis=0, out=gathered)[-1]

    m = len(outer_rows)
    cols = np.arange(m)
    t_lo = np.nextafter(y1_lo / (y1_lo + y0_hi), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_hi = y1_hi / (y1_hi + y0_lo)
        # Logit-normal approximation: log Y1 - log Y0 is close to normal.
        sd = np.sqrt(var1 / (mu1 * mu1) + var0 / (mu0 * mu0))
        probe = 1.0 / (
            1.0 + np.exp(np.log(mu0) - np.log(mu1) - np.where(upper, -target, target) * sd)
        )
        step = 0.25 * sd * probe * (1.0 - probe)
    m_lo = mass(np.zeros((width, m)) if by_y0 else np.broadcast_to(length_i, (width, m)), cols)
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
        # At most one atom per outer yield between the ends once the ratio
        # moves by less than one count over the largest outer yield.  A yield
        # pinned at 0 makes the move inf - inf or 0 x inf: NaN, never near.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            near = (np.abs(ratio(t_hi) - ratio(t_lo)) * span_scale[cols] < 1.0) & ~stuck
        if near.any():
            live = cols[near]
            i_lo, i_hi = index(t_lo[near], live), index(t_hi[near], live)
            single = np.where(valid[:, live], np.abs(i_hi - i_lo), 0.0).max(axis=0) <= 1.0
            live = live[single]
            out[live] = _first_crossing(
                i_lo[:, single], i_hi[:, single], outer_y[:, live], valid[:, live],
                w[:, live], pmf, pmf_base[live], first_i[live], m_lo[near][single],
                upper[live], tail, by_y0,
            )
            near[np.flatnonzero(near)[~single]] = False
        keep = ~(near | stuck)
        cols, mid, t_lo, t_hi, m_lo = cols[keep], mid[keep], t_lo[keep], t_hi[keep], m_lo[keep]
        probe, step, g_lo, g_hi, kept = probe[keep], step[keep], g_lo[keep], g_hi[keep], kept[keep]
        if not len(cols):
            break
        open_lo, open_hi = np.isinf(g_lo), np.isinf(g_hi)
        with np.errstate(invalid="ignore", divide="ignore"):
            guess = t_lo + (t_hi - t_lo) * (g_lo / (g_lo - g_hi))
        probe = np.where(
            open_lo & ~open_hi,
            t_hi - step,
            np.where(open_hi & ~open_lo, t_lo + step, np.where(open_lo, probe, guess)),
        )
        probe = np.where((probe > t_lo) & (probe < t_hi), probe, mid)
        m_probe = mass(index(probe, cols), cols)
        score = ndtri(np.clip(m_probe, _TINY_MASS, 1.0 - _EPS_MASS))
        g = np.where(upper[cols], target - score, score - target)
        reached = g >= 0.0
        t_hi = np.where(reached, probe, t_hi)
        t_lo = np.where(reached, t_lo, probe)
        m_lo = np.where(reached, m_lo, m_probe)
        g_hi = np.where(reached, g, np.where(kept > 0, 0.5 * g_hi, g_hi))
        g_lo = np.where(reached, np.where(kept < 0, 0.5 * g_lo, g_lo), g)
        kept = np.where(reached, -1.0, 1.0)
        step = 2.0 * step
    return out


def _first_crossing(i_lo, i_hi, outer, valid, w, pmf, base, first_i, m_lo, upper, tail, by_y0):
    """The atom between two search ends at which the tail mass crosses ``tail``.

    Between the ends each outer yield has at most one atom, at the inner
    yield of table index min(i_lo, i_hi).
    """
    between = valid & (i_hi != i_lo)
    at = np.minimum(i_lo, i_hi)
    inner = first_i + at
    y1, y0 = (inner, outer) if by_y0 else (outer, inner)
    with np.errstate(divide="ignore", invalid="ignore"):
        atoms = np.where(between, y1 / (y1 + y0), np.inf)
    masses = np.where(between, pmf[(at + base).astype(np.int64)] * w, 0.0)
    order = np.argsort(atoms, axis=0, kind="stable")
    atoms = np.take_along_axis(atoms, order, axis=0)
    run = np.cumsum(np.take_along_axis(masses, order, axis=0), axis=0)
    reached = np.where(upper, m_lo - run <= tail, m_lo + run >= tail)
    # Rounding may leave the running mass a hair short at the last atom, the
    # one t_hi reached.
    count = between.sum(axis=0)
    pick = np.where(reached.any(axis=0), reached.argmax(axis=0), count - 1)
    return atoms[pick, np.arange(atoms.shape[1])]


def _exact_quantiles(post1, post0, rows1, rows0, upper, tail):
    """Posterior quantiles of recall for each (row1, row0, side) element.

    Each element sums over the segment whose support is shorter.  Elements
    run in ``_stacks`` of their outer support lengths, so the working arrays
    stay small; each element's result depends only on its own pmfs.
    """
    out = np.empty(len(rows1))
    lengths1, lengths0 = post1.length[rows1], post0.length[rows0]
    for by_y0, pick in ((True, lengths0 <= lengths1), (False, lengths0 > lengths1)):
        idx = np.flatnonzero(pick)
        if not len(idx):
            continue
        outer, inner = (post0, post1) if by_y0 else (post1, post0)
        rows_o, rows_i = (rows0, rows1) if by_y0 else (rows1, rows0)
        tables = _inner_tables(inner, by_y0)
        for stack in _stacks(outer.length[rows_o[idx]].tolist()):
            part = idx[stack]
            out[part] = _quantile_search(
                outer, rows_o[part], inner, rows_i[part], tables, by_y0, upper[part], tail
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
# gives the distribution of the logit on the same lattice.  Its running sums,
# less a second-difference correction for the variance that the spreading
# adds, are the CDF of logit R midway between nodes; the equal-tail quantiles
# are read off by inverse cubic interpolation and mapped back through the
# logistic function.  A yield of 0 is a point mass at R = 0 or R = 1.
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
_END_BLOCKS = 16  # beta-binomial blocks at the top of the support summed count by count
_SUM_POINTS = 1 << 16  # blocks of a sum of strata kept before merging
_LOGIT_STEPS = 32  # h is the largest power of two at or below sd(logit R) / 32
_LOG_SPAN = 10.0  # log-yields beyond this many sds from the mean sit at that distance

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
search costs time and memory in proportion to the support, about 16 sds.  A
pair past it with few atoms has a segment all but fixed beside a wide one,
which the lattice places to first order."""


class _LogYields(NamedTuple):
    """A segment's posterior blocks of positive yield, by increasing log-yield."""

    log_yield: np.ndarray
    mass: np.ndarray
    spread: np.ndarray  # variance of the log-yield within each block
    zero: float  # mass at a yield of 0
    total: float  # np.sum(mass)
    mean: float
    sd: float


def _betabin_pmf(remainder: int, a: float, b: float, k: np.ndarray) -> np.ndarray:
    """Beta-binomial(remainder, a, b) pmf, continued to real counts by log-gamma."""
    return np.exp(
        gammaln(remainder + 1.0) - gammaln(k + 1.0) - gammaln(remainder - k + 1.0)
        + gammaln(a + k) + gammaln(b + remainder - k)
        - gammaln(a + b + remainder) - betaln(a, b)
    )


def _stratum_window(population: int, sample: int, r: int, family: str, spec: PriorSpec | None):
    """(a, b, lo, hi): the posterior's beta parameters and a window of unsampled
    relevant counts (real ones for a beta posterior) holding all but
    ``_LATTICE_TAIL`` a side."""
    remainder = population - sample
    if family == BETA_JEFFREYS:
        a, b = 0.5 + r, 0.5 + sample - r
        lo, hi = _prevalence_range(a, b, _LATTICE_TAIL)
        return a, b, remainder * lo, remainder * hi
    a, b = spec.alpha + r, spec.beta + sample - r
    return (a, b, *_count_window(remainder, a, b, _LATTICE_TAIL))


def _block_edges(remainder: int, r: int, window, family: str, per_sd: int, most: int) -> np.ndarray:
    """Edges, in unsampled relevant counts, of blocks about sd(log Y) / ``per_sd``
    wide in log-yield, ``most`` of them at most.

    A beta-binomial block [e, e') holds the counts e .. e' - 1, so blocks at
    small yields hold one count each, a count of 0 among them.  Yields below
    1 make one block.
    """
    a, b, lo, hi = window
    discrete = family == BETA_BINOMIAL
    # The posterior sd of the count: beta-binomial, or remainder x beta.
    scale = remainder * (a + b + remainder) if discrete else remainder**2
    cv = math.sqrt(scale * a * b / (a + b + 1.0)) / (a + b) / (r + remainder * a / (a + b))
    start, end = max(r + lo, 1.0), r + hi + discrete
    span = math.log(end / start)
    width = max(min(cv, 1.0) / per_sd, span / most)
    edges = start * np.exp(width * np.arange(math.ceil(span / width) + 1)) - r
    edges[[0, -1]] = start - r, end - r
    edges = np.concatenate([[lo], np.floor(edges) if discrete else edges])
    if edges[1] < edges[0]:  # r + lo rounds, so start - r can fall an ulp below lo
        edges[:2] = edges[1], edges[0]
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _stratum_masses(remainder: int, window, family: str, edges: np.ndarray) -> np.ndarray:
    """Posterior mass of the unsampled relevant count in each block.

    Beta masses are CDF differences.  Beta-binomial blocks take two-point
    Gauss-Legendre integrals of the pmf, or the pmf for one count; at the top
    of the support, where the pmf may be singular, they sum their counts
    (blocks at the bottom hold one count each).
    """
    a, b, lo, hi = window
    if family == BETA_JEFFREYS:
        return np.diff(betainc(a, b, np.minimum(edges / remainder, 1.0)))
    width, left = np.diff(edges), edges[:-1]
    wide = width > 1.0
    one = ~wide
    span = width[wide]
    centre = left[wide] + (span - 1.0) / 2.0
    half = span / (2.0 * math.sqrt(3.0))
    single, points = np.count_nonzero(one), len(span)
    pmf = _betabin_pmf(remainder, a, b, np.concatenate([left[one], centre - half, centre + half]))
    mass = np.empty(len(width))
    mass[one] = pmf[:single]
    mass[wide] = (span / 2.0) * (pmf[single : single + points] + pmf[single + points :])
    if hi == remainder:
        cut = edges[-min(_END_BLOCKS, len(width)) - 1 :].astype(np.int64)
        atoms = _betabin_pmf(remainder, a, b, np.arange(cut[0], cut[-1]))
        mass[len(width) + 1 - len(cut) :] = np.add.reduceat(atoms, cut[:-1] - cut[0])
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


def _segment_log_yields(strata, vector, family: str, specs) -> _LogYields:
    """The posterior of a segment's yield given one relevant count and prior per stratum.

    Each stratum takes blocks about equally wide in log-yield.  A block of a
    sum of strata is a sum of their blocks.  ``_merge_blocks`` merges a sum
    of two or more before a further stratum takes it past ``_SUM_POINTS``
    blocks, and a sum past it before a census stratum shifts it and at the end.
    """
    discrete = float(family == BETA_BINOMIAL)
    centre, mass, spread = np.zeros(1), np.ones(1), np.zeros(1)
    zero = 1.0  # a yield of 0 takes no relevant count, sampled or not, in any stratum
    summed = False  # whether blocks of two strata were summed
    # Strata that are summed take coarser blocks, a sum being smoother than its parts.
    per_sd, most = (_BLOCKS_PER_SD, _MAX_BLOCKS) if len(strata) == 1 else (32, 512)
    for (population, sample), r, spec in zip(strata, vector, specs):
        remainder = population - sample
        if not remainder:
            if len(centre) > _SUM_POINTS:
                centre, mass, spread = _merge_blocks(centre, mass, spread)
            centre, zero = centre + r, zero * (r == 0)
            continue
        window = _stratum_window(population, sample, r, family, spec)
        edges = _block_edges(remainder, r, window, family, per_sd, most)
        width = np.diff(edges)
        part = _stratum_masses(remainder, window, family, edges)
        if discrete:
            # Gauss-Legendre blocks may miss ~1e-7 of the mass, a false tail that would put
            # bounds near level 1 at 0 or 1.  A window from 0 starts with the count 0.
            part = part / np.sum(part)
        zero *= part[0] if discrete and r == window[2] == 0 else 0.0
        if summed and len(centre) * len(part) > _SUM_POINTS:
            # Merged first, a further stratum multiplies hundreds of blocks, not tens of thousands.
            centre, mass, spread = _merge_blocks(centre, mass, spread)
        # One stratum's blocks increase, shifted by any census strata; sums of two do not.
        summed |= len(centre) > 1
        centre = (centre[:, None] + (r + edges[:-1] + (width - discrete) / 2.0)).ravel()
        mass = (mass[:, None] * part).ravel()
        spread = (spread[:, None] + (width**2 - discrete) / 12.0).ravel()
    if len(centre) > _SUM_POINTS:
        centre, mass, spread = _merge_blocks(centre, mass, spread)
    keep = (centre > 0.0) & (mass > 0.0)
    y, mass, spread = centre[keep], mass[keep], spread[keep]
    if summed:
        order = np.argsort(y, kind="stable")
        y, mass, spread = y[order], mass[order], spread[order]
    log_y, spread = np.log(y), spread / (y * y)
    total = np.sum(mass)
    if not total > 0.0:
        return _LogYields(log_y, mass, spread, zero, total, 0.0, 0.0)
    mean = np.sum(mass * log_y) / total
    sd = math.sqrt(np.sum(mass * ((log_y - mean) ** 2 + spread)) / total)
    return _LogYields(log_y, mass, spread, zero, total, float(mean), sd)


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
            if part[0] < seg.mean - reach or part[-1] > seg.mean + reach:
                np.clip(part, seg.mean - reach, seg.mean + reach, out=part)
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

        @functools.cache
        def posterior(side: int, vector) -> _LogYields:
            return _segment_log_yields(batch.strata[side], vector, family, specs[side])

        exact, groups = [], {}
        for k, v1, v0 in zip(sub.tolist(), *vectors):
            if family == BETA_BINOMIAL:
                sds = yield_sd(0, v1), yield_sd(1, v0)
                if sds[0] * sds[1] < _LATTICE_ATOMS_MIN and max(sds) <= _EXACT_SD_MAX:
                    exact.append(k)
                    continue
            seg1, seg0 = posterior(0, v1), posterior(1, v0)
            point = _point_recall(seg1, seg0)
            if point is not None:
                lower[k], upper[k] = point, point
                continue
            h = 2.0 ** math.floor(math.log2(math.hypot(seg1.sd, seg0.sd) / _LOGIT_STEPS))
            groups.setdefault(h, []).append((v1, v0, k))
        for h, members in groups.items():
            nodes = [
                dict(zip(vectors, _nodes([posterior(side, v) for v in vectors], h)))
                for side, vectors in enumerate(
                    dict.fromkeys(member[side] for member in members) for side in (0, 1)
                )
            ]
            bounds = _lattice_quantiles(
                h,
                [(posterior(0, v1).zero, nodes[0][v1], nodes[1][v0]) for v1, v0, _ in members],
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
