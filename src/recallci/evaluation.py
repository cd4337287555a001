"""Coverage evaluation harness and prospective sampling-design tools.

The harness draws scenario realizations, simulates repeated samples from
each realized world, computes every requested interval method on the same
samples, and tallies how often each interval covers the true recall, falls
entirely below it (an upper gap), or entirely above it (a lower gap).

Seed discipline: every random quantity is keyed by
(master_seed, purpose, realization, ...), so reports are bit-identical for
a given master seed regardless of how realizations are scheduled across
workers.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .core import RealizationTruth, SampleDesign
from .distributions import HypergeomParams, check_level, sample_hypergeom
from .intervals import (
    METHODS,
    NORMAL_ADJUSTMENTS,
    CountBatch,
    interval_bounds,
    normal_mid_half,
)
from .io import write_table, write_text
from .scenarios import ScenarioSpec, sample_realization
from .streams import RandomStream

__all__ = [
    "EvalConfig",
    "CoverageReport",
    "evaluate_coverage",
    "coverage_rmse",
    "closest_coverage_shares",
    "design_width_curve",
    "width_vs_sample_size",
    "WidthRow",
]

_NS_REALIZATION = 0
_NS_SAMPLE = 1


@dataclass(frozen=True)
class EvalConfig:
    """Shape and seeding of a coverage study."""

    master_seed: int
    realizations: int = 1000
    samples_per_realization: int = 1000
    level: float = 0.95
    methods: tuple[str, ...] = METHODS
    mc_draws: int = 40_000
    workers: int = 1

    def __post_init__(self) -> None:
        if self.realizations < 1 or self.samples_per_realization < 1:
            raise ValueError("realizations and samples_per_realization must be >= 1")
        check_level(self.level)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown interval methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate interval methods: {list(self.methods)}")
        if self.mc_draws < 1000:
            raise ValueError("mc_draws must be at least 1000")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class CoverageReport:
    """Per-realization and aggregate coverage accounting for each method.

    For every (method, realization): the fraction of samples whose interval
    covered true recall, fell entirely below it (upper gap), fell entirely
    above it (lower gap), or had no defined point estimate (both sample
    relevant counts zero; counted as non-covering).  The four fractions sum
    to 1 exactly.  ``mean_width`` averages interval width over the defined
    samples of the realization.
    """

    scenario: str
    level: float
    methods: tuple[str, ...]
    realizations: int
    samples_per_realization: int
    master_seed: int
    mc_draws: int
    coverage: dict[str, np.ndarray]
    upper_gap: dict[str, np.ndarray]
    lower_gap: dict[str, np.ndarray]
    undefined: dict[str, np.ndarray]
    mean_width: dict[str, np.ndarray]

    def aggregate(self, method: str) -> dict[str, float]:
        """Summary statistics for one method."""
        cov = self._require(method)
        width = self.mean_width[method]
        return {
            "mean_coverage": float(np.mean(cov)),
            "median_coverage": float(np.median(cov)),
            "coverage_q1": float(np.percentile(cov, 25)),
            "coverage_q3": float(np.percentile(cov, 75)),
            "rmse": coverage_rmse(self, method),
            "mean_upper_gap": float(np.mean(self.upper_gap[method])),
            "mean_lower_gap": float(np.mean(self.lower_gap[method])),
            "mean_undefined": float(np.mean(self.undefined[method])),
            "mean_width": float(np.nanmean(width)) if np.any(~np.isnan(width)) else math.nan,
        }

    def boxplot_stats(self) -> dict:
        """Five-number summaries of coverage and gaps per method.

        Ready to render as the usual per-method box plots of realization
        coverage and of upper/lower gap fractions.
        """

        def five(values: np.ndarray) -> dict[str, float]:
            return {
                "min": float(np.min(values)),
                "q1": float(np.percentile(values, 25)),
                "median": float(np.median(values)),
                "q3": float(np.percentile(values, 75)),
                "max": float(np.max(values)),
            }

        return {
            m: {
                "coverage": five(self.coverage[m]),
                "upper_gap": five(self.upper_gap[m]),
                "lower_gap": five(self.lower_gap[m]),
            }
            for m in self.methods
        }

    def summary(self) -> dict:
        """JSON-ready aggregate summary with the run configuration echoed."""
        shares = closest_coverage_shares(self) if len(self.methods) >= 2 else {}
        per_method = {}
        for m in self.methods:
            agg = self.aggregate(m)
            if shares:
                agg["closest_coverage_share"] = shares[m]
            per_method[m] = agg
        return {
            "scenario": self.scenario,
            "level": self.level,
            "realizations": self.realizations,
            "samples_per_realization": self.samples_per_realization,
            "master_seed": self.master_seed,
            "mc_draws": self.mc_draws,
            "methods": list(self.methods),
            "per_method": per_method,
            "boxplot": self.boxplot_stats(),
        }

    def long_rows(self) -> Iterable[tuple]:
        """Long-format rows: (method, realization, coverage, above, below, width)."""
        for m in self.methods:
            for i in range(self.realizations):
                yield (
                    m,
                    i,
                    float(self.coverage[m][i]),
                    float(self.upper_gap[m][i]),
                    float(self.lower_gap[m][i]),
                    float(self.mean_width[m][i]),
                )

    def _require(self, method: str) -> np.ndarray:
        if method not in self.coverage:
            raise ValueError(f"report does not contain method {method!r}")
        return self.coverage[method]


def coverage_rmse(report: CoverageReport, method: str) -> float:
    """Root mean squared deviation of realization coverage from the level."""
    cov = report._require(method)
    return float(np.sqrt(np.mean((cov - report.level) ** 2)))


def closest_coverage_shares(report: CoverageReport) -> dict[str, float]:
    """Per-method share of realizations where it lands nearest the level.

    A realization's unit of credit is split evenly among methods tied for
    the smallest |coverage - level| at simulation fidelity; shares sum to 1.
    """
    if len(report.methods) < 2:
        raise ValueError("closest-coverage shares need at least two methods")
    diffs = np.stack(
        [np.abs(report.coverage[m] - report.level) for m in report.methods]
    )
    best = diffs.min(axis=0)
    winners = diffs == best[None, :]
    credit = winners / winners.sum(axis=0, keepdims=True)
    shares = credit.sum(axis=1) / report.realizations
    return {m: float(s) for m, s in zip(report.methods, shares)}


def _distinct_samples(
    truth: RealizationTruth, design: SampleDesign, samples: int, stream: RandomStream
) -> tuple[CountBatch, np.ndarray, np.ndarray, np.ndarray]:
    """Relevant counts (r1, r0) of ``samples`` simulated samples from one world.

    One generator of ``stream`` draws every sample's retrieved count, then
    every sample's unretrieved count.  Returns the batch of the distinct
    pairs with a defined estimate, in sorted order; whether each distinct
    pair is defined (not (0, 0)); each sample's distinct-pair index; and how
    many samples drew each distinct pair.
    """
    hg_ret = HypergeomParams(
        truth.retrieved_size, truth.retrieved_yield, design.retrieved_sample
    )
    hg_unret = HypergeomParams(
        truth.unretrieved_size, truth.unretrieved_yield, design.unretrieved_sample
    )
    gen = stream.generator()
    counts = np.empty((samples, 2), dtype=np.int64)
    counts[:, 0] = sample_hypergeom(hg_ret, gen, size=samples)
    counts[:, 1] = sample_hypergeom(hg_unret, gen, size=samples)
    pairs, inverse, weights = np.unique(
        counts, axis=0, return_inverse=True, return_counts=True
    )
    defined = pairs.any(axis=1)
    batch = CountBatch.simple(
        truth.retrieved_size, design.retrieved_sample, pairs[defined, 0],
        truth.unretrieved_size, design.unretrieved_sample, pairs[defined, 1],
    )
    return batch, defined, inverse.reshape(-1), weights


def _evaluate_realization(
    spec: ScenarioSpec, config: EvalConfig, index: int
) -> dict[str, tuple[float, float, float, float, float]]:
    base = RandomStream(config.master_seed)
    truth, design = sample_realization(spec, base.substream(_NS_REALIZATION, index))
    total = config.samples_per_realization
    # Every method sees each distinct (r1, r0) pair once, in sorted order.
    batch, defined_pairs, _, weights = _distinct_samples(
        truth, design, total, base.substream(_NS_SAMPLE, index)
    )
    undefined_count = int(weights[~defined_pairs].sum())
    defined = total - undefined_count
    weights = weights[defined_pairs]
    true_rec = truth.recall

    out: dict[str, tuple[float, float, float, float, float]] = {}
    for method in config.methods:
        lower, upper = interval_bounds(method, batch, config.level)
        above_mask = true_rec > upper
        above = int(weights[above_mask].sum())
        below = int(weights[~above_mask & (true_rec < lower)].sum())
        # A running total in pair order; np.sum's pairwise order differs.
        width_sum = 0.0
        for width in (weights * (upper - lower)).tolist():
            width_sum += width
        out[method] = (
            (defined - above - below) / total,
            above / total,
            below / total,
            undefined_count / total,
            width_sum / defined if defined else math.nan,
        )
    return out


def evaluate_coverage(spec: ScenarioSpec, config: EvalConfig) -> CoverageReport:
    """Run a full coverage study of the configured methods on a scenario.

    Every method sees the same realizations and the same simulated samples.
    Samples with no relevant documents in either segment leave every method
    without a point estimate and are tallied as undefined (non-covering).
    The report is bit-identical across runs with the same master seed,
    independent of the worker count and the order of the methods.
    """
    indices = range(config.realizations)
    if config.workers == 1:
        rows = [_evaluate_realization(spec, config, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(
                pool.map(
                    _evaluate_realization, repeat(spec), repeat(config), indices,
                    chunksize=max(1, config.realizations // (config.workers * 4)),
                )
            )

    def collect(position: int) -> dict[str, np.ndarray]:
        return {
            m: np.array([row[m][position] for row in rows]) for m in config.methods
        }

    return CoverageReport(
        scenario=spec.name,
        level=config.level,
        methods=tuple(config.methods),
        realizations=config.realizations,
        samples_per_realization=config.samples_per_realization,
        master_seed=config.master_seed,
        mc_draws=config.mc_draws,
        coverage=collect(0),
        upper_gap=collect(1),
        lower_gap=collect(2),
        undefined=collect(3),
        mean_width=collect(4),
    )


# ---------------------------------------------------------------------------
# Prospective design tools.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidthRow:
    """Best-allocation expected width for one (truth, sample size, method)."""

    retrieved_size: int
    sample_size: int
    method: str
    best_retrieved_allocation: int
    min_width: float


def _mean_width(
    truth: RealizationTruth,
    design: SampleDesign,
    method: str,
    level: float,
    samples: int,
    stream: RandomStream,
) -> float:
    """Mean interval width over simulated samples; normal widths unclipped.

    Unclipped normal widths keep the methods' characteristic behavior
    visible in design studies (widths above 1 for tiny low-prevalence
    samples, 1/sqrt(n) decay for large ones).  A sample with no relevant
    document in either segment has no estimate and counts as width 1, the
    forced [0, 1], under every method.  The sample counts are drawn from
    ``stream``.
    """
    batch, defined, inverse, _ = _distinct_samples(truth, design, samples, stream)
    widths = np.ones(len(defined))
    if method in NORMAL_ADJUSTMENTS:
        _, half = normal_mid_half(batch, level, NORMAL_ADJUSTMENTS[method])
        widths[defined] = 2.0 * half
    else:
        lower, upper = interval_bounds(method, batch, level)
        widths[defined] = upper - lower
    return float(np.mean(widths[inverse]))


def _allocation_grid(truth: RealizationTruth, size: int, grid: int) -> list[int]:
    """Feasible retrieved allocations n1 at ``grid`` evenly spaced fractions of ``size``.

    An allocation is feasible when both segments get at least one sample and
    no more than their sizes.
    """
    allocations = set()
    for i in range(grid):
        n1 = int(round(((i + 1) / (grid + 1)) * size))
        if 1 <= n1 <= truth.retrieved_size and 1 <= size - n1 <= truth.unretrieved_size:
            allocations.add(n1)
    if not allocations:
        raise ValueError(f"no feasible allocation of {size} samples for truth {truth}")
    return sorted(allocations)


def design_width_curve(
    truth: RealizationTruth,
    total_budget: int,
    allocations: Sequence[int],
    method: str,
    level: float,
    rng: RandomStream,
    samples: int = 200,
) -> list[tuple[int, float]]:
    """Expected interval width for each way of splitting a sample budget.

    For each candidate retrieved-segment allocation n1, the remaining
    budget goes to the unretrieved segment and the expected width is the
    mean over simulated samples from the known truth, drawn from
    ``rng.substream(n1)``.
    """
    curve = []
    for n1 in allocations:
        n0 = total_budget - n1
        if not (1 <= n1 <= truth.retrieved_size and 1 <= n0 <= truth.unretrieved_size):
            raise ValueError(
                f"infeasible allocation: n1={n1}, n0={n0} for segments of "
                f"{truth.retrieved_size}/{truth.unretrieved_size}"
            )
        design = SampleDesign(n1, n0)
        width = _mean_width(truth, design, method, level, samples, rng.substream(n1))
        curve.append((n1, width))
    return curve


def width_vs_sample_size(
    truths: Sequence[RealizationTruth],
    sizes: Sequence[int],
    methods: Sequence[str],
    level: float,
    rng: RandomStream,
    allocation_grid: int = 20,
    samples: int = 100,
) -> list[WidthRow]:
    """Minimal expected width over allocations, per truth, size, and method.

    For each total sample size, a grid of allocations is searched and the
    smallest mean width reported, emulating an optimally allocated design.
    The curve of truth ``t`` at size ``size`` draws from
    ``rng.substream(t, size)``.
    """
    rows: list[WidthRow] = []
    for t_idx, truth in enumerate(truths):
        for size in sizes:
            allocations = _allocation_grid(truth, size, allocation_grid)
            for method in methods:
                curve = design_width_curve(
                    truth, size, allocations, method, level, rng.substream(t_idx, size), samples
                )
                best_n1, best_width = min(curve, key=lambda point: point[1])
                rows.append(WidthRow(truth.retrieved_size, size, method, best_n1, best_width))
    return rows


def write_long_csv(report: CoverageReport, path) -> None:
    """Write the per-realization long-format CSV with a config header line."""
    header = {"scenario": report.scenario, "level": report.level,
              "realizations": report.realizations, "samples": report.samples_per_realization,
              "seed": report.master_seed, "draws": report.mc_draws}
    columns = ["method", "realization", "coverage", "above", "below", "width"]
    write_table(path, [header], columns, report.long_rows())


def write_summary_json(report: CoverageReport, path) -> None:
    write_text(path, json.dumps(report.summary(), indent=2) + "\n")


def format_summary_table(report: CoverageReport) -> str:
    """Fixed-width text table of width, coverage, and RMSE per method."""
    lines = [
        f"scenario {report.scenario}: {report.realizations} realizations x "
        f"{report.samples_per_realization} samples, level {report.level}",
        f"{'method':<16} {'width':>7} {'coverage':>9} {'rmse':>7}",
    ]
    for m in report.methods:
        agg = report.aggregate(m)
        lines.append(
            f"{m:<16} {agg['mean_width']:>7.3f} {agg['mean_coverage']:>9.3f} "
            f"{agg['rmse']:>7.3f}"
        )
    return "\n".join(lines)
