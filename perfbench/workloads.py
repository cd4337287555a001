"""Workload definitions and their seed-derived inputs.

Every workload runs a fixed panel of realizations drawn once from the
built-in scenarios and stored in ``data.json``.  The cost of one
realization of a coverage study varies about tenfold across a scenario
(coefficient of variation 0.58 on ``legal``), and audit latency varies with
the problem's sizes, so a few seed-drawn realizations would make the
figures a property of the draw rather than of the code.  The seed keys
every simulated sample, sampled relevant count and posterior draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import Problem

DATA_PATH = Path(__file__).resolve().parent / "data.json"
PANEL_SEED = 20130217

WORKLOADS = {
    "study-legal": {
        "kind": "study",
        "scenario": "legal",
        "workers": 1,
        "realizations_per_truth": 1,
        "samples_per_realization": 500,
        "mc_draws": 10_000,
        "level": 0.95,
    },
    "study-small": {
        "kind": "study",
        "scenario": "small",
        "workers": 1,
        "realizations_per_truth": 1,
        "samples_per_realization": 500,
        "mc_draws": 10_000,
        "level": 0.95,
    },
    "study-neutral-w2": {
        "kind": "study",
        "scenario": "neutral",
        "workers": 2,
        "realizations_per_truth": 2,
        "samples_per_realization": 500,
        "mc_draws": 10_000,
        "level": 0.95,
    },
    "audit": {
        "kind": "audit",
        "scenarios": ["neutral", "legal", "small"],
        "audits_per_pass": 120,
        "stratified_every": 8,
        "level": 0.95,
        "mc_draws": 40_000,
        "mc_reference_audits": 2,
        "mc_reference_draws": 200_000,
    },
}


def load_data() -> dict:
    with open(DATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned_variables(variables: dict[str, float]) -> dict[str, str]:
    """Scenario expressions that reproduce one realization exactly.

    Each variable becomes the constant it was drawn as, so the scenario
    layer redraws the same truth and design for any stream.
    """
    return {name: repr(float(value)) for name, value in variables.items()}


def pass_seed(seed: int, pass_index: int, item: int) -> int:
    """Master seed of one item of one pass."""
    return (seed * 1000 + pass_index) * 1000 + item


@dataclass(frozen=True)
class Audit:
    kind: str  # "single", "zero" (no relevant document sampled) or "stratified"
    problem: Problem
    seed: int

    def argv(self, csv_path: str | None) -> list[str]:
        if csv_path is not None:
            return ["interval", "--input", csv_path, "--seed", str(self.seed)]
        (ret,), (unret,) = self.problem
        return [
            "interval",
            "--retrieved",
            ",".join(map(str, ret)),
            "--unretrieved",
            ",".join(map(str, unret)),
            "--seed",
            str(self.seed),
        ]

    def csv_text(self) -> str:
        lines = ["segment,stratum,population,sample,relevant"]
        for label, strata in zip(("retrieved", "unretrieved"), self.problem):
            for k, (population, sample, relevant) in enumerate(strata):
                lines.append(f"{label},s{k},{population},{sample},{relevant}")
        return "\n".join(lines) + "\n"


def _draw(gen: np.random.Generator, size: int, yield_: int, sample: int) -> int:
    if yield_ == 0:
        return 0
    if yield_ == size:
        return sample
    return int(gen.hypergeometric(yield_, size - yield_, sample))


def _split(gen: np.random.Generator, truth: list[int]) -> list[tuple[int, int, int]]:
    """Split a retrieved segment into two strata and sample each."""
    size, yield_, sample = truth
    size_a = max(1, min(size - 1, round(0.6 * size)))
    yield_a = _draw(gen, size, yield_, size_a)
    sample_a = max(1, min(size_a, sample - 1, round(0.6 * sample)))
    sample_b = max(1, min(size - size_a, sample - sample_a))
    return [
        (n_s, s_s, _draw(gen, n_s, y_s, s_s))
        for n_s, y_s, s_s in (
            (size_a, yield_a, sample_a),
            (size - size_a, yield_ - yield_a, sample_b),
        )
    ]


def build_audits(data: dict, config: dict, seed: int, pass_index: int) -> list[Audit]:
    """Audit problems for one pass.

    Scenarios take turns, each walking its fixed pool of truths in order;
    the seed draws the relevant counts sampled from each truth and the
    Monte Carlo seed of each audit.  Every ``stratified_every``-th audit
    splits the retrieved segment into two strata.
    """
    gen = np.random.default_rng([seed, pass_index])
    scenarios = config["scenarios"]
    audits = []
    for k in range(config["audits_per_pass"]):
        scenario = scenarios[k % len(scenarios)]
        pool = data["audit_pools"][scenario]
        n1, n0, y1, y0, s1, s0 = pool[(k // len(scenarios)) % len(pool)]
        unret = [(n0, s0, _draw(gen, n0, y0, s0))]
        if (k + 1) % config["stratified_every"] == 0 and n1 >= 2 and s1 >= 2:
            kind, ret = "stratified", _split(gen, [n1, y1, s1])
        else:
            ret = [(n1, s1, _draw(gen, n1, y1, s1))]
            kind = "single" if ret[0][2] + unret[0][2] > 0 else "zero"
        audits.append(Audit(kind, (ret, unret), int(gen.integers(0, 2**31))))
    return audits
