"""Regenerate ``perfbench/data.json``: study panels, audit pools, references.

    PYTHONPATH=src python3 -m perfbench.make_data

Panels and pools are realizations of the built-in scenarios drawn at
``PANEL_SEED``.  The study reference holds each panel realization's
per-method coverage and mean width, averaged over ``REFERENCE_REPS``
realizations of it at ``REFERENCE_SEED``.  Run it only when the benchmark's
inputs change: the reference describes the code that produced it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from recallci import EvalConfig, ScenarioSpec, builtin_scenario, evaluate_coverage
from recallci.scenarios import sample_realization_with_variables
from recallci.streams import RandomStream

from .checks import NINE_METHODS
from .workloads import DATA_PATH, PANEL_SEED, WORKLOADS, pinned_variables

PANEL_SIZES = {"legal": 9, "small": 11, "neutral": 4}
POOL_SIZE = 40
REFERENCE_SEED = 1
REFERENCE_REPS = 4


def _nanmean(values: np.ndarray) -> float:
    values = values[~np.isnan(values)]
    return float(values.mean()) if values.size else math.nan


def main() -> None:
    base = RandomStream(PANEL_SEED)
    panels, pools, reference = {}, {}, {}
    for s_idx, (scenario, size) in enumerate(PANEL_SIZES.items()):
        spec = builtin_scenario(scenario)
        panels[scenario] = [
            sample_realization_with_variables(spec, base.substream(0, s_idx, i))[0]
            for i in range(size)
        ]
        pool = []
        for i in range(POOL_SIZE):
            _, truth, design = sample_realization_with_variables(spec, base.substream(1, s_idx, i))
            pool.append(
                [
                    truth.retrieved_size,
                    truth.unretrieved_size,
                    truth.retrieved_yield,
                    truth.unretrieved_yield,
                    design.retrieved_sample,
                    design.unretrieved_sample,
                ]
            )
        pools[scenario] = pool
        study = next(w for w in WORKLOADS.values() if w.get("scenario") == scenario)
        coverage = {m: [] for m in NINE_METHODS}
        width = {m: [] for m in NINE_METHODS}
        for i, variables in enumerate(panels[scenario]):
            report = evaluate_coverage(
                ScenarioSpec(f"{scenario}-panel-{i}", pinned_variables(variables)),
                EvalConfig(
                    master_seed=REFERENCE_SEED * 1000 + i,
                    realizations=REFERENCE_REPS,
                    samples_per_realization=study["samples_per_realization"],
                    level=study["level"],
                    methods=NINE_METHODS,
                    mc_draws=study["mc_draws"],
                    workers=2,
                ),
            )
            for m in NINE_METHODS:
                coverage[m].append(float(np.mean(report.coverage[m])))
                width[m].append(_nanmean(report.mean_width[m]))
            print(f"{scenario} panel {i} done", flush=True)
        reference[scenario] = {"coverage": coverage, "width": width}
    data = {
        "panel_seed": PANEL_SEED,
        "reference_seed": REFERENCE_SEED,
        "reference_reps": REFERENCE_REPS,
        "panels": panels,
        "audit_pools": pools,
        "study_reference": reference,
    }
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
        handle.write("\n")


if __name__ == "__main__":
    main()
