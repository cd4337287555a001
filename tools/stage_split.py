"""Split the posterior kernels' time in the coverage harness into named stages.

Usage (from the checkout root)::

    PYTHONPATH=src python3 tools/stage_split.py [--realizations 8] [--seed 20130217]

Runs realizations 0 .. n-1 of each built-in scenario (500 samples, all nine
methods) through the coverage harness's per-realization step with each
stage below wrapped in a timer, and prints each stage's self time in ms per
realization: its wall time less that of the wrapped stages it calls.
"other" is the rest of the realization's wall time, and "blocks" counts
the posterior blocks tabulated per realization (``intervals._block_edges``).
The timers add about a microsecond per call, so the table locates time;
``perfbench`` measures it.
"""

from __future__ import annotations

import argparse
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
    blocks = 0
    block_edges = intervals._block_edges

    def counted(*args):
        nonlocal blocks
        edges = block_edges(*args)
        blocks += len(edges) - 1
        return edges

    originals = [(module, attr, getattr(module, attr)) for _, module, attr in STAGES]
    for (name, module, attr), (_, _, fn) in zip(STAGES, originals):
        setattr(module, attr, timer.wrap(name, fn))
    originals.append((intervals, "_block_edges", block_edges))
    intervals._block_edges = counted
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
    row["blocks"] = blocks / realizations
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
