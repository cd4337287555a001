"""Coverage reports reproduce a stored golden file bit for bit.

The golden file holds every ``CoverageReport`` field of a small study on each
built-in scenario, all nine methods, as exact floats.  Any change to the
interval kernels, the harness or the seeding that moves a single bit fails
here.  A change that is meant to move published numbers regenerates the file
with::

    PYTHONPATH=src python3 tests/test_coverage_golden.py

which prints, before it writes, each (scenario, field, method) whose values
moved, with their number and the largest change, or ``unchanged``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from recallci.evaluation import EvalConfig, evaluate_coverage
from recallci.scenarios import BUILTIN_SCENARIOS, builtin_scenario

GOLDEN = Path(__file__).parent / "data" / "coverage_golden.json"
FIELDS = ("coverage", "upper_gap", "lower_gap", "undefined", "mean_width")
CONFIG = dict(
    master_seed=20130217, realizations=5, samples_per_realization=200, mc_draws=2000
)


def run_study(scenario: str):
    return evaluate_coverage(builtin_scenario(scenario), EvalConfig(**CONFIG))


def report_fields(report) -> dict:
    return {
        field: {m: [float(v) for v in getattr(report, field)[m]] for m in report.methods}
        for field in FIELDS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_config_matches(golden):
    assert golden["config"] == CONFIG


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_reports_are_bit_identical_to_golden(golden, scenario):
    report = run_study(scenario)
    expected = golden["reports"][scenario]
    for field in FIELDS:
        assert list(expected[field]) == list(report.methods)
        for m in report.methods:
            stored = np.array(expected[field][m], dtype=float)
            assert np.array_equal(getattr(report, field)[m], stored, equal_nan=True), (
                scenario,
                field,
                m,
            )


def moved_values(old: dict, new: dict) -> list[str]:
    """One line per (scenario, field, method) whose values differ, or ``unchanged``."""
    lines = []
    for scenario, fields in new["reports"].items():
        for field, methods in fields.items():
            for method, values in methods.items():
                now = np.array(values, dtype=float)
                try:
                    was = np.array(old["reports"][scenario][field][method], dtype=float)
                except KeyError:
                    lines.append(f"{scenario} {field} {method}: {len(now)} new values")
                    continue
                if was.shape != now.shape:
                    lines.append(f"{scenario} {field} {method}: {len(was)} -> {len(now)} values")
                    continue
                moved = ~((was == now) | (np.isnan(was) & np.isnan(now)))
                if moved.any():
                    delta = np.max(np.abs(now[moved] - was[moved]))
                    lines.append(
                        f"{scenario} {field} {method}: {moved.sum()} values moved, "
                        f"largest |delta| {delta:.3g}"
                    )
    return lines or ["unchanged"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "config": CONFIG,
        "reports": {s: report_fields(run_study(s)) for s in BUILTIN_SCENARIOS},
    }
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(moved_values(previous, payload)))
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
