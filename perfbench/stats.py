"""Summary statistics and op accounting shared by the benchmark's processes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats.mstats import hdquantiles

# Percentile ladder searched for the tail, highest first.
_TAIL_LADDER = (99.9, *range(99, 0, -1))
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples beyond it.

    Returns None when ``n`` is too small for any percentile to qualify.
    """
    for p in _TAIL_LADDER:
        # Rounding first keeps 99.9% of 10000 at 9990, not 9991.
        if n - math.ceil(round(p * n / 100.0, 6)) >= TAIL_MIN_BEYOND:
            return float(p)
    return None


def latency_summary(values: list[float]) -> dict:
    """Median and tail of a latency sample.

    The tail is taken at :func:`tail_percentile`; below 20 samples that
    rule falls under the median, and the median is reported instead.
    Both use the Harrell-Davis estimator, a weighted mean of all order
    statistics: a workload's ops come from a fixed panel of problems with
    distinct costs, and a single order statistic would jump between
    neighbouring problems with run-to-run noise.
    """
    if not values:
        raise ValueError("no latency samples")
    p = max(tail_percentile(len(values)) or 50.0, 50.0)
    p50, tail = hdquantiles(np.asarray(values, dtype=float), prob=[0.5, p / 100.0])
    return {"p50": float(p50), "tail": float(tail), "tail_percentile": p, "n": len(values)}


@dataclass
class OpTally:
    """Counts ops by outcome.

    ``ok`` ops produced output; ``rejected`` ops ended in an error the
    library documents for that input (a known defect, not a failure);
    ``failed`` ops raised or exited unexpectedly.
    """

    ok: int = 0
    rejected: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, outcome: str, count: int = 1, reason: str | None = None) -> None:
        if outcome == "ok":
            self.ok += count
        elif outcome == "rejected":
            self.rejected += count
        elif outcome == "failed":
            self.failed += count
            if reason and len(self.failures) < 20:
                self.failures.append(reason)
        else:
            raise ValueError(f"unknown op outcome {outcome!r}")

    @property
    def attempted(self) -> int:
        return self.ok + self.rejected + self.failed
