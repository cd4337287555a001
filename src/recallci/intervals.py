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
beta-jeffreys           Monte Carlo quantiles from per-stratum beta posteriors
                        under Jeffreys priors
betabin-uniform         equal-tail quantiles of per-stratum beta-binomial
                        posteriors, uniform prior (alpha = beta = 1)
betabin-mcp             as above with the most conservative prior per stratum
betabin-half            as above with alpha = beta = 0.5
======================  =====================================================

All methods force the lower bound to 0 when the retrieved sample holds no
relevant documents, and the upper bound to 1 when the unretrieved sample
holds none, where those rules apply.

A sample with no relevant document in either segment (a (0, 0) sample) has
no recall estimate.  ``naive-binomial``, whose denominator is the number of
sampled relevant documents, raises ``UndefinedEstimateError`` for it; the
other eight methods return [0, 1] with no point estimate, without drawing
and without resolving a prior.

The beta-binomial bounds are exact whenever every stratum remainder
(population - sample) is at most ``EXACT_REMAINDER_MAX``: the posterior of
recall is then enumerated, and the Monte Carlo draw count and seed have no
effect.  Larger remainders, and ``beta-jeffreys`` always, take Monte Carlo
quantiles.

Every method is one entry of ``METHOD_TABLE``, a batch kernel over the
relevant counts of many samples (``CountBatch``).  ``interval_bounds`` runs
it on a batch; ``compute_interval`` runs it on the batch of one problem, and
the coverage harness and the design tools on their simulated samples.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, ndtri

from .core import (
    RETRIEVED,
    UNRETRIEVED,
    RecallProblem,
    SegmentData,
    StratumCounts,
    UndefinedEstimateError,
    estimate_recall,
)
from .distributions import chi_square_1df_quantile, log_comb, normal_quantile
from .streams import RandomStream

__all__ = [
    "METHODS",
    "METHOD_TABLE",
    "MethodSpec",
    "MONTE_CARLO_METHODS",
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
    "draw_yields",
    "monte_carlo_bounds",
    "monte_carlo_interval",
    "EXACT_REMAINDER_MAX",
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


PriorLike = Union[PriorSpec, Callable[[StratumCounts], PriorSpec], None]


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
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must lie strictly inside (0, 1)")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _z_value(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    return normal_quantile(1.0 - (1.0 - level) / 2.0)


def _point_or_none(problem: RecallProblem) -> float | None:
    try:
        return estimate_recall(problem)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Closed-form and Koopman kernels over batches of samples.
#
# Each kernel takes a CountBatch and returns arrays of lower and upper bounds,
# one per sample.  Every element goes through the same sequence of IEEE
# operations whatever else is in the batch, so a batch gives the same bits as
# its samples computed one at a time; coverage tallies flip on last-bit
# changes, so this is what keeps reports reproducible.  Squares and fourth
# powers use np.float_power, which calls the C library's pow as Python's
# ``**`` does; np.power may take a SIMD path that differs in the last bit.
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
    """Per-sample yield estimate and variance of each segment.

    Adjustment c adds c positives and c negatives to every stratum sample;
    c = 0 is the stratified estimate of ``core.estimate_segment_yield``.
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
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for strata, counts in zip(batch.strata, batch.relevant):
            y = v = 0.0
            for (population, sample), r in zip(strata, counts):
                n_adj = sample + 2 * adjustment
                p = (r + adjustment) / n_adj
                y = y + population * p
                fpc = 1.0 - sample / population
                v = v + float(population**2) * (p * (1.0 - p) / n_adj) * fpc
            out.append((y, v))
    return out


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
        total = y1 + y0
        mid = y1 / total
        var = (v1 * np.float_power(y0, 2.0) + v0 * np.float_power(y1, 2.0)) / np.float_power(
            total, 4.0
        )
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
    r1, r0 = batch.totals()
    lower = np.where(r1 == 0, 0.0, np.maximum(mid - half, 0.0))
    upper = np.where(r0 == 0, 1.0, np.minimum(mid + half, 1.0))
    return lower, np.minimum(np.maximum(upper, lower), 1.0)


# ---------------------------------------------------------------------------
# Koopman chi-square interval on the ratio of two binomial proportions.
# ---------------------------------------------------------------------------


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


_BISECT_TOL = 1e-8
_PHI_CAP = 1e30
_PHI_FLOOR = 1e-300


def _double_while(accepted, phi: np.ndarray, while_accepted: np.ndarray) -> np.ndarray:
    """Double each phi while ``accepted(phi)`` equals its flag, up to the cap."""
    active = np.ones(phi.shape, dtype=bool)
    while active.any():
        go = active & (accepted(phi) == while_accepted)
        phi = np.where(go, 2.0 * phi, phi)
        active = go & ~(phi > _PHI_CAP)
    return phi


def _halve_while_accepted(accepted, phi: np.ndarray) -> np.ndarray:
    """Halve each positive phi while accepted; below the floor it becomes 0."""
    active = phi > 0.0
    while active.any():
        go = active & accepted(phi)
        phi = np.where(go, phi / 2.0, phi)
        floor = go & (phi < _PHI_FLOOR)
        phi = np.where(floor, 0.0, phi)
        active = go & ~floor
    return phi


def _bisect_cross(accepted, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Boundary of each {phi: accepted(phi)} between an inside and outside point.

    Every element stops on its own width test, so each boundary is the one
    bisecting that element alone would give.
    """
    lo, hi = inside, outside
    for _ in range(500):
        done = np.abs(hi - lo) <= _BISECT_TOL * np.maximum(
            np.maximum(np.abs(hi), np.abs(lo)), 1.0
        )
        if done.all():
            break
        mid = 0.5 * (lo + hi)
        ok = accepted(mid)
        lo = np.where(~done & ok, mid, lo)
        hi = np.where(~done & ~ok, mid, hi)
    return 0.5 * (lo + hi)


def koopman_bounds(batch: CountBatch, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square test inversion on the unretrieved/retrieved prevalence ratio.

    Recall is a monotonically decreasing function of the ratio
    phi = pi_unretrieved / pi_retrieved, so a confidence set on phi maps to
    one on recall with the endpoints reversed.  The method has no extension
    to stratified sampling and rejects stratified batches.
    """
    if any(len(strata) > 1 for strata in batch.strata):
        raise ValueError(
            "the koopman interval does not extend to stratified sampling; "
            "each segment must be a single stratum"
        )
    ((ret_population, n),), ((unret_population, m),) = batch.strata
    if n < 1 or m < 1:
        raise ValueError("koopman interval requires at least one draw per segment")
    (y,), (x,) = batch.relevant
    # Counts as floats: exact below 2**53, and much cheaper to mix with phi.
    x, y = x.astype(float), y.astype(float)
    scale = unret_population / ret_population
    crit = chi_square_1df_quantile(level)

    def acceptance(idx: np.ndarray):
        xs, ys = x[idx], y[idx]
        ms, ns = np.full(len(idx), float(m)), np.full(len(idx), float(n))
        return lambda phi: _koopman_statistic(phi, xs, ms, ys, ns) <= crit

    # The statistic is zero at the unconstrained ratio MLE and grows on both
    # sides; the MLE is 0 when x = 0 and unbounded when y = 0, so those sides
    # start the bracket from an accepted finite point instead.
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(x == 0, 0.0, np.where(y == 0, np.inf, (x / m) / (y / n)))
    up = np.flatnonzero(y > 0)  # finite upper phi bound (lower recall)
    down = np.flatnonzero(x > 0)  # positive lower phi bound (upper recall)
    unbounded = np.flatnonzero((y == 0) & (x > 0))

    # Upper phi ends expand from max(2 phi_hat, 1) while accepted; pairs
    # without an MLE walk from 1 to their first accepted point.
    walk = np.concatenate([up, unbounded])
    ends = _double_while(
        acceptance(walk),
        np.concatenate([np.maximum(2.0 * phi_hat[up], 1.0), np.ones(len(unbounded))]),
        np.arange(len(walk)) < len(up),
    )
    inside_down = phi_hat.copy()
    inside_down[unbounded] = ends[len(up):]
    inside_down = inside_down[down]
    lows = _halve_while_accepted(acceptance(down), inside_down / 2.0)

    cross = _bisect_cross(
        acceptance(np.concatenate([up, down])),
        np.concatenate([phi_hat[up], inside_down]),
        np.concatenate([ends[: len(up)], lows]),
    )
    lower = np.zeros(len(x))
    upper = np.ones(len(x))
    lower[up] = 1.0 / (1.0 + scale * cross[: len(up)])
    upper[down] = 1.0 / (1.0 + scale * cross[len(up):])
    lower = np.minimum(np.maximum(lower, 0.0), 1.0)
    return lower, np.minimum(np.maximum(upper, lower), 1.0)


def koopman_interval(problem: RecallProblem, level: float) -> RecallInterval:
    """The Koopman interval of one problem; see ``koopman_bounds``."""
    return compute_interval("koopman", problem, level)


# ---------------------------------------------------------------------------
# Monte Carlo posterior intervals.
# ---------------------------------------------------------------------------


def _nearest_rank(q: float, d: int) -> int:
    return min(max(math.ceil(q * d), 1), d)


def equal_tail_quantiles(values: np.ndarray, level: float) -> tuple[float, float]:
    """Nearest-rank equal-tail quantiles of an unsorted sample.

    Two single-rank selections replace a full sort: one at the upper rank,
    then one at the lower rank inside the prefix that the first leaves below
    it.  Order statistics are values, so the result equals indexing the
    sorted sample.
    """
    d = len(values)
    alpha = 1.0 - level
    lo = _nearest_rank(alpha / 2.0, d)
    hi = _nearest_rank(1.0 - alpha / 2.0, d)
    part = np.partition(values, hi - 1)
    upper = float(part[hi - 1])
    head = part[:hi]
    head.partition(lo - 1)
    return float(head[lo - 1]), upper


def _resolve_prior(prior: PriorLike, stratum: StratumCounts) -> PriorSpec:
    if prior is None:
        raise ValueError("beta-binomial posteriors need a prior specification")
    if callable(prior):
        return prior(stratum)
    return prior


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
            spec = _resolve_prior(prior, s)
            q = gen.beta(spec.alpha + r, spec.beta + n - r, size=draws)
            total += r + gen.binomial(remainder, q)
    return total


# Posterior draws run on a per-process thread pool: NumPy releases the
# interpreter lock while it fills arrays of variates.  Every job draws from
# its own keyed stream and sums its strata in a fixed order, so its array is
# the same on any thread and at any thread count.


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


_draw_threads = _available_cpus()
"""Threads drawing posterior yields in this process."""

_THREADED_DRAWS_MIN = 200_000
"""Fewest variates (draws x strata over all jobs) that a batch draws on threads.

Smaller batches run inline.  On a 2-vCPU x86 host, single-stratum audits at
40,000 draws (80,000 variates a batch) drawn on two threads cost about 20%
more CPU, also in the work between their batches, and had slower tails,
while batches of 160,000 or more variates gained wall time.  Coverage
studies of the built-in scenarios at 500 samples and 10,000 draws put
230,000 to several million variates in each batch.
"""

_draw_pool: tuple[int, ThreadPoolExecutor] | None = None
_draw_pool_lock = threading.Lock()


def _set_draw_threads(threads: int) -> None:
    """Fix this process's draw thread count; a process-pool initializer."""
    global _draw_threads
    _draw_threads = threads


def _forget_draw_pool() -> None:
    # A forked child has none of its parent's threads: it builds its own pool
    # instead of queueing work for threads that do not exist.
    global _draw_pool, _draw_pool_lock
    _draw_pool = None
    _draw_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_draw_pool)


def _pool_of(workers: int) -> ThreadPoolExecutor:
    global _draw_pool
    with _draw_pool_lock:
        if _draw_pool is None or _draw_pool[0] < workers:
            if _draw_pool is not None:
                _draw_pool[1].shutdown(wait=False)
            _draw_pool = (workers, ThreadPoolExecutor(workers, "recallci-draws"))
        return _draw_pool[1]


def _resolved(job: tuple) -> tuple:
    """The job with its beta-binomial prior resolved for every stratum."""
    segment, family, prior, *rest = job
    if family == BETA_BINOMIAL and not isinstance(prior, PriorSpec):
        specs = {
            s: _resolve_prior(prior, s)
            for s in segment.strata
            if s.population_size > s.sample_size
        }
        prior = specs.__getitem__
    return (segment, family, prior, *rest)


def _draw_chunk(jobs: Sequence[tuple]) -> list[np.ndarray]:
    return [segment_yield_draws(*job) for job in jobs]


def draw_yields(jobs: Sequence[tuple]) -> list[np.ndarray]:
    """``segment_yield_draws(*job)`` for every job, in job order.

    A job is the tuple of ``segment_yield_draws`` arguments.  Priors are
    resolved first, on the calling thread, so a prior's warnings, errors
    and caches behave as in a sequential run.  The jobs are then dealt
    round robin into one chunk per draw thread (all CPUs this process may
    use, unless a process pool set fewer); the calling thread draws the
    first chunk and the process's pool the others.  With one thread, or
    fewer than ``_THREADED_DRAWS_MIN`` variates in all, the jobs run
    inline.  Results do not depend on the thread count.
    """
    jobs = [_resolved(job) for job in jobs]
    variates = sum(draws * len(segment.strata) for segment, _, _, draws, *_ in jobs)
    threads = min(_draw_threads, len(jobs)) if variates >= _THREADED_DRAWS_MIN else 1
    if threads <= 1:
        return _draw_chunk(jobs)
    chunks = [jobs[t::threads] for t in range(threads)]
    pool = _pool_of(threads - 1)
    futures = [pool.submit(_draw_chunk, chunk) for chunk in chunks[1:]]
    try:
        parts = [_draw_chunk(chunks[0])]
    finally:
        wait(futures)
    parts += [future.result() for future in futures]
    out: list[np.ndarray] = [None] * len(jobs)
    for t, part in enumerate(parts):
        out[t::threads] = part
    return out


def monte_carlo_bounds(
    batch: CountBatch,
    level: float,
    family: str,
    prior: PriorLike = None,
    config: MonteCarloConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo quantiles of the posterior on recall, for every sample.

    Per draw, every stratum independently contributes a posterior yield
    draw; segment yields are summed and a recall value computed.  A
    segment's yield draws depend on its own stratum counts only, so they
    are drawn once per (segment, distinct stratum-count vector), from the
    stream ``config.rng.substream(segment, *counts)``, and shared by every
    sample that holds those counts.  Each sample's bounds are the
    equal-tail nearest-rank quantiles (see ``equal_tail_quantiles``) of its
    own ``draws`` paired recall values.  The lower bound is forced to 0 when
    no relevant documents were sampled from the retrieved segment, the upper
    to 1 when none were sampled from the unretrieved segment; a (0, 0)
    sample gets [0, 1] without draws and without resolving a prior.
    """
    if config is None:
        raise ValueError("monte carlo interval estimation requires a MonteCarloConfig")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    r1s, r0s = batch.totals()
    lower, upper = np.zeros(len(r1s)), np.ones(len(r1s))
    sub = np.flatnonzero((r1s > 0) | (r0s > 0))
    jobs, rows = [], []
    for segment_index, label in enumerate((RETRIEVED, UNRETRIEVED)):
        strata = batch.strata[segment_index]
        vectors = list(zip(*(r[sub].tolist() for r in batch.relevant[segment_index])))
        job_of = {}
        for vector in sorted(set(vectors)):
            job_of[vector] = len(jobs)
            segment = SegmentData(
                tuple(StratumCounts(n, s, r) for (n, s), r in zip(strata, vector)), label
            )
            stream = config.rng.substream(segment_index, *vector)
            jobs.append((segment, family, prior, config.draws, stream, segment_index))
        rows.append([job_of[vector] for vector in vectors])
    yields = draw_yields(jobs)
    for k, i1, i0 in zip(sub.tolist(), *rows):
        y1 = yields[i1]
        lower[k], upper[k] = equal_tail_quantiles(y1 / (y1 + yields[i0]), level)
    lower[r1s == 0] = 0.0
    upper[r0s == 0] = 1.0
    return lower, np.maximum(lower, upper)


def monte_carlo_interval(
    problem: RecallProblem,
    level: float,
    family: str,
    prior: PriorLike = None,
    config: MonteCarloConfig | None = None,
    method_tag: str | None = None,
) -> RecallInterval:
    """The Monte Carlo interval of one problem; see ``monte_carlo_bounds``."""
    (lower,), (upper,) = monte_carlo_bounds(
        CountBatch.of_problem(problem), level, family, prior, config
    )
    return RecallInterval(
        float(lower), float(upper), level, _point_or_none(problem), method_tag or family
    )


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

EXACT_REMAINDER_MAX = 20_000
"""Largest stratum remainder (population - sample) for exact quantiles.

Beta-binomial bounds are exact when every stratum remainder of the problem
is at most this; above it the Monte Carlo path runs.  The exact search of
one audit costs about as much as its 40,000 posterior draws at remainders
near 50,000 (on a 2-core x86 host); this limit keeps it at under 60% of
their cost.
"""

# Each stratum pmf drops a tail only while its mass stays below this share of
# alpha/2, under the rounding error of the tail sums themselves.
_TAIL_SHARE = 1e-15


def _stratum_posteriors(
    population: int, sample: int, counts, prior: PriorLike, tail: float
) -> dict[int, tuple[int, np.ndarray]]:
    """Truncated posterior pmf of one stratum's yield per relevant count.

    Maps each count r of the sorted ``counts`` to (smallest kept yield, pmf
    over consecutive yields).  Counts less than a remainder apart read their
    log pmfs from shared log-gamma tables.  Each pmf keeps the yields from
    the first to the last whose probability exceeds ``tail`` / (remainder +
    1), so either dropped tail holds at most ``tail``, and is normalised by
    its own sum.
    """
    remainder = population - sample
    if remainder == 0:
        return {r: (r, np.ones(1)) for r in counts}
    g_one = gammaln(1.0 + np.arange(remainder + 1))
    log_c = g_one[remainder] - g_one - g_one[::-1]
    floor = math.log(tail / (remainder + 1)) if tail > 0.0 else -math.inf
    groups: list[list[int]] = []
    for r in counts:
        if groups and r - groups[-1][-1] <= remainder:
            groups[-1].append(r)
        else:
            groups.append([r])
    out = {}
    for group in groups:
        lo, hi = group[0], group[-1]
        tables: dict[PriorSpec, tuple[np.ndarray, np.ndarray]] = {}
        for r in group:
            spec = _resolve_prior(prior, StratumCounts(population, sample, r))
            if spec not in tables:
                tables[spec] = (
                    gammaln(spec.alpha + np.arange(lo, hi + remainder + 1)),
                    gammaln(spec.beta + np.arange(sample - hi, sample - lo + remainder + 1)),
                )
            g_alpha, g_beta = tables[spec]
            # log C(rem, k) + log G(alpha + r + k) + log G(beta + sample - r + rem - k),
            # up to a constant.
            log_p = (
                log_c
                + g_alpha[r - lo : r - lo + remainder + 1]
                + g_beta[hi - r : hi - r + remainder + 1][::-1]
            )
            log_p -= log_p.max()
            kept = np.flatnonzero(log_p > floor)
            p = np.exp(log_p[kept[0] : kept[-1] + 1])
            out[r] = (r + int(kept[0]), p / p.sum())
    return out


class _Posteriors(NamedTuple):
    """Posterior yield pmfs of one segment, one row per distinct count vector."""

    first: np.ndarray  # smallest kept yield
    length: np.ndarray  # support length
    pmf: np.ndarray  # pmfs, zero-padded to the longest support
    mean: np.ndarray
    var: np.ndarray


def _segment_posteriors(strata, counts, prior: PriorLike, tail: float):
    """Each sample's row index and the posterior yield pmfs of a segment."""
    keys, rows = np.unique(np.stack(counts, axis=1), axis=0, return_inverse=True)
    per_stratum = [
        _stratum_posteriors(population, sample, sorted(set(keys[:, s].tolist())), prior, tail)
        for s, (population, sample) in enumerate(strata)
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
# Elements x outer support length per search chunk: bounds the working arrays
# at a quarter megabyte each.
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
        # moves by less than one count over the largest outer yield.
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
    run in chunks of similar support length, few enough that the working
    arrays stay small; each element's result depends only on its own pmfs.
    """
    out = np.empty(len(rows1))
    lengths1, lengths0 = post1.length[rows1], post0.length[rows0]
    for by_y0, pick in ((True, lengths0 <= lengths1), (False, lengths0 > lengths1)):
        idx = np.flatnonzero(pick)
        if not len(idx):
            continue
        outer, inner = (post0, post1) if by_y0 else (post1, post0)
        rows_o, rows_i = (rows0, rows1) if by_y0 else (rows1, rows0)
        idx = idx[np.argsort(outer.length[rows_o[idx]], kind="stable")]
        tables = _inner_tables(inner, by_y0)
        size = max(1, _CHUNK_CELLS // int(outer.length[rows_o[idx[-1]]]))
        for start in range(0, len(idx), size):
            part = idx[start : start + size]
            out[part] = _quantile_search(
                outer, rows_o[part], inner, rows_i[part], tables, by_y0, upper[part], tail
            )
    return out


def betabin_exact_bounds(
    batch: CountBatch, level: float, prior: PriorLike
) -> tuple[np.ndarray, np.ndarray]:
    """Exact equal-tail beta-binomial bounds on recall for every sample.

    Forcing rules as for ``monte_carlo_bounds``: the lower bound is 0 when
    the retrieved sample holds no relevant document, the upper bound 1 when
    the unretrieved sample holds none, so a (0, 0) sample gets [0, 1].
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly inside (0, 1)")
    tail = (1.0 - level) / 2.0
    r1s, r0s = batch.totals()
    lower, upper = np.zeros(len(r1s)), np.ones(len(r1s))
    # (0, 0) samples take no posterior, so their priors are never resolved.
    sub = np.flatnonzero((r1s > 0) | (r0s > 0))
    if not len(sub):
        return lower, upper
    cut = _TAIL_SHARE * tail
    rows1, post1 = _segment_posteriors(
        batch.strata[0], [r[sub] for r in batch.relevant[0]], prior, cut
    )
    rows0, post0 = _segment_posteriors(
        batch.strata[1], [r[sub] for r in batch.relevant[1]], prior, cut
    )
    need_lo, need_hi = np.flatnonzero(r1s[sub] > 0), np.flatnonzero(r0s[sub] > 0)
    which = np.concatenate([need_lo, need_hi])
    bounds = _exact_quantiles(
        post1, post0, rows1[which], rows0[which], np.arange(len(which)) >= len(need_lo), tail
    )
    lower[sub[need_lo]] = bounds[: len(need_lo)]
    upper[sub[need_hi]] = bounds[len(need_lo) :]
    return lower, np.maximum(lower, upper)


# ---------------------------------------------------------------------------
# Most conservative beta-binomial prior.
# ---------------------------------------------------------------------------

_SEARCH_RANGE = (0.01, 2.0)
_POPULATION_CAP = 1000
_GAP_CAP = 200


def expected_information_gain(alpha: float, beta: float, population: int, sample: int) -> float:
    """Expected KL divergence from prior to posterior yield distribution.

    Averages, over the joint prior-predictive distribution of the true yield
    and the observed sample count, the log ratio of posterior to prior
    probability.  O(population * sample) to evaluate; concave and symmetric
    in (alpha, beta).
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("hyperparameters must be positive")
    if not 0 <= sample <= population:
        raise ValueError("sample must lie in [0, population]")
    n_pop, n_smp = population, sample
    xs = np.arange(n_smp + 1)
    js = np.arange(n_pop - n_smp + 1)
    r_of = xs[:, None] + js[None, :]

    g_alpha = gammaln(alpha + np.arange(n_pop + 1))
    g_beta = gammaln(beta + np.arange(n_pop + 1))
    lc_sample = log_comb(n_smp, xs)
    lc_rest = log_comb(n_pop - n_smp, js)
    lc_pop = log_comb(n_pop, np.arange(n_pop + 1))

    log_norm = (
        gammaln(alpha + beta)
        - gammaln(alpha)
        - gammaln(beta)
        - gammaln(alpha + beta + n_pop)
    )
    log_weight = (
        log_norm
        + lc_sample[:, None]
        + lc_rest[None, :]
        + g_alpha[r_of]
        + g_beta[n_pop - r_of]
    )
    log_ratio = (
        lc_rest[None, :]
        + gammaln(alpha)
        + gammaln(beta)
        + gammaln(alpha + beta + n_smp)
        - lc_pop[r_of]
        - g_alpha[xs][:, None]
        - g_beta[n_smp - xs][:, None]
        - gammaln(alpha + beta)
    )
    return float(np.sum(np.exp(log_weight) * log_ratio))


@lru_cache(maxsize=None)
def _solve_most_conservative(population: int, sample: int) -> float:
    result = minimize_scalar(
        lambda a: -expected_information_gain(a, a, population, sample),
        bounds=_SEARCH_RANGE,
        method="bounded",
        options={"xatol": 1e-4},
    )
    return float(result.x)


def most_conservative_prior(population: int, sample: int) -> PriorSpec:
    """Symmetric beta-binomial prior maximizing expected information gain.

    Large problems are capped before optimizing: the population at 1000 and
    the sample at 1000 - min(population - sample, 200), since the solution
    stabilizes beyond that and the objective costs O(population * sample).
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


def _mcp_prior(stratum: StratumCounts) -> PriorSpec:
    return most_conservative_prior(stratum.population_size, stratum.sample_size)


def posterior_bounds(
    batch: CountBatch,
    level: float,
    family: str,
    prior: PriorLike,
    config: MonteCarloConfig | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior quantile bounds on recall for every sample of a batch.

    Beta-binomial bounds are exact (``betabin_exact_bounds``) when every
    stratum remainder of the batch's design is at most
    ``EXACT_REMAINDER_MAX``; otherwise, and for ``beta-jeffreys``, whose
    posterior is continuous, they are Monte Carlo quantiles
    (``monte_carlo_bounds``).  A config is required either way, so whether a
    call needs a seed does not depend on the counts.
    """
    if config is None:
        raise ValueError("monte carlo interval estimation requires a MonteCarloConfig")
    if family == BETA_BINOMIAL and all(
        population - sample <= EXACT_REMAINDER_MAX
        for strata in batch.strata
        for population, sample in strata
    ):
        return betabin_exact_bounds(batch, level, prior)
    return monte_carlo_bounds(batch, level, family, prior, config)


class MethodSpec(NamedTuple):
    """An interval method: ``kernel(batch, level, *params)`` gives its bounds.

    Posterior methods have ``posterior_bounds`` as kernel, (family, prior) as
    params, and take a ``MonteCarloConfig`` after them.
    """

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
    "betabin-mcp": MethodSpec(posterior_bounds, (BETA_BINOMIAL, _mcp_prior)),
    "betabin-half": MethodSpec(posterior_bounds, (BETA_BINOMIAL, PriorSpec(0.5, 0.5))),
}
"""The nine methods, in their output order."""

METHODS = tuple(METHOD_TABLE)

MONTE_CARLO_METHODS = frozenset(
    tag for tag, spec in METHOD_TABLE.items() if spec.kernel is posterior_bounds
)
"""Methods that need a ``MonteCarloConfig``."""

NORMAL_ADJUSTMENTS = {
    tag: spec.params[0] for tag, spec in METHOD_TABLE.items() if spec.kernel is normal_bounds
}
"""Count adjustment of each normal-approximation method."""


def interval_bounds(
    method: str,
    batch: CountBatch,
    level: float,
    config: MonteCarloConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of any of the nine methods for every sample."""
    if method not in METHOD_TABLE:
        raise ValueError(f"unknown interval method: {method!r}")
    kernel, params = METHOD_TABLE[method]
    if method in MONTE_CARLO_METHODS:
        return kernel(batch, level, *params, config)
    return kernel(batch, level, *params)


def compute_interval(
    method: str,
    problem: RecallProblem,
    level: float,
    config: MonteCarloConfig | None = None,
) -> RecallInterval:
    """Any of the nine interval methods on one problem, by tag."""
    (lower,), (upper,) = interval_bounds(method, CountBatch.of_problem(problem), level, config)
    return RecallInterval(float(lower), float(upper), level, _point_or_none(problem), method)
