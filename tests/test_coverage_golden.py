"""Coverage reports reproduce a stored golden file bit for bit.

The golden file holds every ``CoverageReport`` field of a small study on each
built-in scenario, all nine methods, as exact floats.  Any change to the
interval kernels, the harness or the seeding that moves a single bit fails
here.  A change that is meant to move published numbers regenerates the file
with::

    PYTHONPATH=src python3 tests/test_coverage_golden.py
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {
        "config": CONFIG,
        "reports": {s: report_fields(run_study(s)) for s in BUILTIN_SCENARIOS},
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
