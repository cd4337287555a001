"""Compare produced outputs with the committed reference files in ``demos/out``.

A mismatch is reported as one line per (file, method, column) whose values
moved, with their number, where they are and the largest |delta|, so a
change that is meant to move published numbers can quote what moved.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "demos" / "out"


def host_note() -> str:
    """The numpy and scipy versions and numpy's CPU dispatch of this process.

    The committed bytes hold on the dispatch they were made on: numpy picks
    its exp and log kernels at run time, and kernels of another dispatch
    differ in the last bit.  Bounds computed in stacks keep their bits
    because numpy's elementwise kernels under one dispatch do.  A failure
    message that names them tells "another host" apart from "the program
    moved".
    """
    enabled = [name for name, on in _multiarray_umath.__cpu_features__.items() if on]
    return (
        f"numpy {np.__version__}, scipy {scipy.__version__}; numpy CPU dispatch"
        f" {_multiarray_umath.__cpu_dispatch__}, enabled features {enabled}"
    )


def _same(was, now) -> bool:
    if was == now:
        return True
    try:
        a, b = float(was), float(now)
    except (TypeError, ValueError):
        return False
    return a == b or (math.isnan(a) and math.isnan(b))


def _delta(was, now) -> float:
    try:
        return abs(float(now) - float(was))
    except (TypeError, ValueError):
        return math.nan


def csv_values(text: str) -> dict[tuple[str, str], dict[str, str]]:
    """A CSV's values by (method, column), each keyed by realization or row."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    values: dict[tuple[str, str], dict[str, str]] = {}
    for number, row in enumerate(rows[1:], 1):
        record = dict(zip(rows[0], row))
        method = record.pop("method", "")
        realization = record.pop("realization", None)
        where = f"row {number}" if realization is None else f"realization {realization}"
        for column, value in record.items():
            values.setdefault((method, column), {})[where] = value
    return values


def json_values(text: str) -> dict[tuple[str, str], dict[str, object]]:
    """A JSON summary's leaves by (method, dotted path without the method)."""
    summary = json.loads(text)
    methods = set(summary.get("methods", ()))
    values: dict[tuple[str, str], dict[str, object]] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, path + (str(key),))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, path + (str(i),))
        else:
            method = next((p for p in path if p in methods), "")
            column = ".".join(p for p in path if p != method)
            values[(method, column)] = {"": node}

    walk(summary, ())
    return values


def moved_values(name: str, was: dict, now: dict) -> list[str]:
    """One line per (method, column) of ``name`` whose values differ."""
    lines = []
    for method, column in sorted(was.keys() | now.keys()):
        label = " ".join(part for part in (name, method, column) if part)
        old, new = was.get((method, column), {}), now.get((method, column), {})
        if old.keys() != new.keys():
            lines.append(f"{label}: {len(old)} -> {len(new)} values")
            continue
        moved = [where for where in old if not _same(old[where], new[where])]
        if not moved:
            continue
        line = f"{label}: {len(moved)} value{'s' * (len(moved) != 1)} moved"
        if moved != [""]:
            line += " (" + ", ".join(moved[:5]) + (", ..." if len(moved) > 5 else "") + ")"
        deltas = [d for d in (_delta(old[w], new[w]) for w in moved) if not math.isnan(d)]
        if deltas:
            line += f", largest |delta| {max(deltas):.3g}"
        lines.append(line)
    return lines


def file_differences(name: str, committed: str, produced: str) -> list[str]:
    """What moved between two versions of one output file; empty if equal."""
    if committed == produced:
        return []
    old_lines, new_lines = committed.splitlines(), produced.splitlines()
    lines = [
        f"{name} header: {old!r} -> {new!r}"
        for old, new in zip(old_lines, new_lines)
        if old.startswith("#") and old != new
    ]
    parse = json_values if name.endswith(".json") else csv_values
    lines += moved_values(name, parse(committed), parse(produced))
    if not lines:
        first = next(
            (i for i, (a, b) in enumerate(zip(old_lines, new_lines), 1) if a != b),
            min(len(old_lines), len(new_lines)) + 1,
        )
        lines.append(f"{name}: bytes differ from line {first}, values equal")
    return lines


def assert_matches_committed(produced_dir: Path, names) -> None:
    """Every named file in ``produced_dir`` equals its ``demos/out`` copy byte for byte."""
    lines = []
    for name in names:
        committed, produced = OUT / name, produced_dir / name
        if not committed.exists() or not produced.exists():
            lines.append(f"{name}: {'not produced' if committed.exists() else 'not committed'}")
            continue
        lines += file_differences(
            name, committed.read_bytes().decode("utf-8"), produced.read_bytes().decode("utf-8")
        )
    assert not lines, (
        f"demos/out is stale or was made on another numpy dispatch ({host_note()});"
        " rerun the README commands:\n" + "\n".join(lines)
    )
