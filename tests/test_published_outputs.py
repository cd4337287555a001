"""Every file in ``demos/out`` is what its README command writes.

- ``study_<scenario>.{csv,json}`` come from the README's ``recallci coverage``
  command (200 realizations x 500 samples, seed 20130217).  The acceptance
  module runs those studies in full and compares the files byte for byte;
  here realizations 0-4 of each study are recomputed, all five
  ``CoverageReport`` fields, and the README table is checked against the
  JSON summaries.
- Every other file comes from one of the demo commands in ``PRODUCERS``,
  rerun here exactly as the README lists it, each from a fresh working
  directory, and compared byte for byte.

A change that is meant to move published numbers reruns the README commands.
On a mismatch the tests list, per (file, method, column), how many values
moved and the largest |delta|.
"""

import json
import os
import shlex
import subprocess
import sys

import pytest

from recallci.binomial import RULES
from recallci.evaluation import EvalConfig, evaluate_coverage
from recallci.scenarios import BUILTIN_SCENARIOS, builtin_scenario
from reference_outputs import (
    OUT,
    ROOT,
    assert_matches_committed,
    csv_values,
    host_note,
    moved_values,
)

PRODUCERS = (
    *(
        f"recallci binom --method {rule} --n 20 --points 199"
        f" --output demos/out/binomial_coverage_{rule}.csv"
        for rule in RULES
    ),
    "recallci bias --truth 2000,1000,100000,3000 --design 100,100"
    " --output demos/out/recall_sampling_distribution.csv",
    "python3 demos/sampling_design.py --fast",
)
"""The README demo commands that write to ``demos/out``."""

STUDY_SEED = 20130217
STUDY_SAMPLES = 500
HEAD = 5
STUDY_FILES = {f"study_{s}.{ext}" for s in BUILTIN_SCENARIOS for ext in ("csv", "json")}
README = (ROOT / "README.md").read_text(encoding="utf-8")

# CoverageReport field -> study CSV column; ``undefined`` is derived from the counts.
COLUMNS = {
    "coverage": "coverage",
    "upper_gap": "above",
    "lower_gap": "below",
    "undefined": "undefined",
    "mean_width": "width",
}
COUNTED = ("coverage", "above", "below")


def producer_argv(command: str) -> list[str]:
    """``command`` as run here: ``recallci`` is the CLI module, a script path is the repo's."""
    program, *args = shlex.split(command)
    if program == "recallci":
        return [sys.executable, "-m", "recallci.cli", *args]
    assert program == "python3", command
    script, *rest = args
    return [sys.executable, str(ROOT / script), *rest]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Every producer run verbatim from its own working directory with an empty
    ``demos/out``; the files they wrote, gathered in one directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    runs = {}
    for command in PRODUCERS:
        cwd = tmp_path_factory.mktemp("producer")
        (cwd / "demos" / "out").mkdir(parents=True)
        runs[command] = cwd, subprocess.Popen(
            producer_argv(command),
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
    errors = {command: run.communicate()[1] for command, (_, run) in runs.items()}
    assert all(run.returncode == 0 for _, run in runs.values()), errors
    out_dir = tmp_path_factory.mktemp("demos_out")
    for cwd, _ in runs.values():
        for path in (cwd / "demos" / "out").iterdir():
            assert not (out_dir / path.name).exists(), f"two commands write {path.name}"
            path.rename(out_dir / path.name)
    return out_dir


def test_readme_lists_every_producer():
    missing = [command for command in PRODUCERS if command not in README]
    assert not missing


def test_every_committed_file_has_a_producer(produced):
    committed = {path.name for path in OUT.iterdir()} - STUDY_FILES
    written = {path.name for path in produced.iterdir()}
    assert not committed - written, f"no listed command writes {sorted(committed - written)}"
    assert not written - committed, f"not committed: {sorted(written - committed)}"


def test_producers_reproduce_committed_files(produced):
    assert_matches_committed(produced, sorted(path.name for path in produced.iterdir()))


def committed_head(scenario: str) -> dict:
    """Realizations 0-4 of a committed study CSV, by (method, column)."""
    rows = csv_values((OUT / f"study_{scenario}.csv").read_text(encoding="utf-8"))
    head = {
        key: {where: float(v) for where, v in values.items() if int(where.split()[1]) < HEAD}
        for key, values in rows.items()
    }
    for method in {method for method, _ in rows}:
        # Each value is a count out of STUDY_SAMPLES; undefined samples are the rest.
        tallied = {
            where: sum(round(head[(method, c)][where] * STUDY_SAMPLES) for c in COUNTED)
            for where in head[(method, "coverage")]
        }
        head[(method, "undefined")] = {
            where: (STUDY_SAMPLES - n) / STUDY_SAMPLES for where, n in tallied.items()
        }
    return head


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_study_heads_match_committed_rows(scenario):
    config = EvalConfig(
        master_seed=STUDY_SEED, realizations=HEAD, samples_per_realization=STUDY_SAMPLES
    )
    report = evaluate_coverage(builtin_scenario(scenario), config)
    computed = {
        (method, column): {
            f"realization {i}": float(v) for i, v in enumerate(getattr(report, field)[method])
        }
        for field, column in COLUMNS.items()
        for method in report.methods
    }
    committed = committed_head(scenario)
    assert sum(map(len, committed.values())) == len(report.methods) * len(COLUMNS) * HEAD
    lines = moved_values(f"study_{scenario}.csv", committed, computed)
    assert not lines, f"on {host_note()}:\n" + "\n".join(lines)


def readme_table() -> dict[str, dict[str, str]]:
    """The README reference table: cell text by method and scenario."""
    section = README.split("## Reference results", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    header, body = rows[0], rows[2:]
    return {row[0]: dict(zip(header[1:], row[1:])) for row in body}


def test_readme_table_matches_summaries():
    table = readme_table()
    wrong = []
    for scenario in BUILTIN_SCENARIOS:
        summary = json.loads((OUT / f"study_{scenario}.json").read_text(encoding="utf-8"))
        assert list(table) == summary["methods"]
        for method, agg in summary["per_method"].items():
            keys = ("mean_width", "mean_coverage", "rmse")
            quoted = " / ".join(f"{agg[key]:.3f}" for key in keys)
            cell = table[method].get(scenario)
            if cell != quoted:
                wrong.append(f"README {method} {scenario}: {cell}; the JSON gives {quoted}")
    assert not wrong, "\n".join(wrong)
