"""Split the posterior kernels' time in the coverage harness into named stages.

Usage (from the checkout root)::

    PYTHONPATH=src python3 tools/stage_split.py [--realizations 8] [--seed 20130217]

Runs realizations 0 .. n-1 of each built-in scenario (500 samples, all nine
methods) through the coverage harness's per-realization step with each
stage below wrapped in a timer, and prints each stage's self time in ms per
realization: its wall time less that of the wrapped stages it calls.
"other" is the rest of the realization's wall time.  "blocks" counts the
posterior blocks tabulated per realization (``intervals._block_edges``),
and "masses/bound" the tail masses the exact search evaluates per bound it
searches: one at each bound's lower end, and one per probe, as scored by
``intervals.ndtri``.  "cells/pair" is the mean of len(t1) x len(t0), the
cells of one convolution, over the pairs ``intervals._lattice_quantiles``
reads.  The timers add about a microsecond per call, so the
table locates time; ``perfbench`` measures it.
"""

from __future__ import annotations

import argparse
import math
import time
from collections import defaultdict

import numpy as np

from recallci import evaluation, intervals
from recallci.scenarios import BUILTIN_SCENARIOS, builtin_scenario

# (stage, module, attribute); the lattice looks each one up at call time.
STAGES = (
    ("tabulation", intervals, "_segment_log_yields"),
    ("node tables", intervals, "_nodes"),
    ("convolution", np, "convolve"),
    ("quantile read", intervals, "_lattice_quantiles"),
    ("_betabin_pmf", intervals, "_betabin_pmf"),
    ("betainc", intervals, "betainc"),
    ("exact pmfs", intervals, "_segment_posteriors"),
    ("exact index", intervals, "_inner_index"),
    ("exact crossing", intervals, "_first_crossing"),
    ("exact search", intervals, "_quantile_search"),
)

# (count, module, attribute, what one call adds, from its arguments and result).
# "probes" relies on the exact search being the one caller in intervals.py
# that hands ndtri an array, one score per bound it probes; the other calls
# pass a scalar.  A new array call there would inflate masses/bound.
COUNTS = (
    ("blocks", intervals, "_block_edges", lambda args, edges: len(edges) - 1),
    ("searched", intervals, "_quantile_search", lambda args, bounds: len(bounds)),
    ("probes", intervals, "ndtri", lambda args, s: np.size(s) * isinstance(args[0], np.ndarray)),
    ("pairs", intervals, "_lattice_quantiles", lambda args, out: len(args[1])),
    (
        "cells",
        intervals,
        "_lattice_quantiles",
        lambda args, out: sum(len(t1) * len(t0) for _, (_, t1, _), (_, t0, _) in args[1]),
    ),
)


class StageTimer:
    """Self time per stage, with a stack of the open stages' child time."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed

        return timed


def split(scenario: str, realizations: int, seed: int) -> dict[str, float]:
    """Ms per realization of each stage, "other" and "wall" on one scenario."""
    config = evaluation.EvalConfig(
        master_seed=seed, realizations=realizations, samples_per_realization=500
    )
    spec = builtin_scenario(scenario)
    timer = StageTimer()
    counts = {name: 0 for name, *_ in COUNTS}

    def counting(name, fn, adds):
        def counted(*args):
            result = fn(*args)
            counts[name] += adds(args, result)
            return result

        return counted

    originals = [(module, attr, getattr(module, attr)) for _, module, attr, *_ in STAGES + COUNTS]
    for name, module, attr in STAGES:
        setattr(module, attr, timer.wrap(name, getattr(module, attr)))
    for name, module, attr, adds in COUNTS:
        setattr(module, attr, counting(name, getattr(module, attr), adds))
    try:
        start = time.perf_counter()
        for index in range(realizations):
            evaluation._evaluate_realization(spec, config, index)
        wall = time.perf_counter() - start
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    row = {name: 1e3 * timer.self_s[name] / realizations for name, *_ in STAGES}
    row["other"] = 1e3 * wall / realizations - sum(row.values())
    row["wall"] = 1e3 * wall / realizations
    row["blocks"] = counts["blocks"] / realizations
    searched = counts["searched"]
    row["masses/bound"] = (searched + counts["probes"]) / searched if searched else math.nan
    row["cells/pair"] = counts["cells"] / counts["pairs"] if counts["pairs"] else math.nan
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--realizations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20130217)
    args = parser.parse_args()
    rows = {s: split(s, args.realizations, args.seed) for s in BUILTIN_SCENARIOS}
    print(f"ms per realization, realizations 0-{args.realizations - 1}, seed {args.seed}")
    print(f"{'stage':<15}" + "".join(f"{s:>10}" for s in rows))
    for stage in rows[BUILTIN_SCENARIOS[0]]:
        print(f"{stage:<15}" + "".join(f"{rows[s][stage]:>10.1f}" for s in rows))


if __name__ == "__main__":
    main()
