"""CSV and JSON interchange for recall problems and results.

Problem CSV schema (header required)::

    segment,stratum,population,sample,relevant
    retrieved,strat-a,18000,300,158
    unretrieved,low,1200000,500,1

``segment`` must be ``retrieved`` or ``unretrieved``; strata appear in file
order within their segment.

Every CSV table is written by ``write_table``; its text and every JSON output
go through ``write_text``, which writes a file or standard output.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import Iterable, Mapping, Sequence

from .core import (
    RETRIEVED,
    UNRETRIEVED,
    RecallProblem,
    SegmentData,
    StratumCounts,
)
from .intervals import MonteCarloConfig, RecallInterval

__all__ = [
    "load_problem_csv",
    "parse_problem_rows",
    "write_table",
    "write_text",
    "interval_record",
]

_HEADER = ["segment", "stratum", "population", "sample", "relevant"]


class ProblemFormatError(ValueError):
    """A problem CSV that cannot be parsed into a valid RecallProblem."""


def parse_problem_rows(rows: Iterable[list[str]], source: str = "<input>") -> RecallProblem:
    """Build a RecallProblem from already-split CSV rows (header included)."""
    rows = iter(rows)
    try:
        header = [cell.strip().lower() for cell in next(rows)]
    except StopIteration:
        raise ProblemFormatError(f"{source}: empty input") from None
    if header != _HEADER:
        raise ProblemFormatError(
            f"{source}: line 1: expected header {','.join(_HEADER)!r}"
        )
    strata: dict[str, list[tuple[str, StratumCounts]]] = {RETRIEVED: [], UNRETRIEVED: []}
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise ProblemFormatError(f"{source}: line {lineno}: expected 5 fields")
        segment = row[0].strip().lower()
        stratum = row[1].strip()
        if segment not in strata:
            raise ProblemFormatError(
                f"{source}: line {lineno}: segment must be "
                f"'{RETRIEVED}' or '{UNRETRIEVED}', got {row[0]!r}"
            )
        try:
            population, sample, relevant = (int(cell) for cell in row[2:5])
        except ValueError:
            raise ProblemFormatError(
                f"{source}: line {lineno}: population, sample, and relevant "
                "must be integers"
            ) from None
        try:
            counts = StratumCounts(population, sample, relevant)
        except ValueError as exc:
            raise ProblemFormatError(
                f"{source}: line {lineno}: stratum {stratum!r}: {exc}"
            ) from None
        strata[segment].append((stratum, counts))
    for segment, entries in strata.items():
        if not entries:
            raise ProblemFormatError(f"{source}: no {segment} strata found")
    return RecallProblem(
        SegmentData(tuple(c for _, c in strata[RETRIEVED]), RETRIEVED),
        SegmentData(tuple(c for _, c in strata[UNRETRIEVED]), UNRETRIEVED),
    )


def load_problem_csv(path) -> RecallProblem:
    """Read a recall problem from a CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_problem_rows(csv.reader(handle), source=str(path))


def write_text(path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to standard output when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)  # looked up per call, so a redirected stdout gets it
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_table(
    path, headers: Sequence[Mapping], columns: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write a CSV table through ``write_text``: one ``# k=v ...`` line per
    header mapping, the column line, then one line per row with each value as
    ``str`` gives it (the shortest round-trip repr of a float)."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header.items()) for header in headers]
    lines.append(",".join(columns))
    lines += [",".join(map(str, row)) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def interval_record(
    interval: RecallInterval, config: MonteCarloConfig | None = None
) -> dict:
    """JSON-ready record of one interval result."""
    record = {
        "method": interval.method,
        "level": interval.level,
        "point": interval.point,
        "lower": interval.lower,
        "upper": interval.upper,
    }
    if config is not None:
        record["draws"] = config.draws
        record["seed"] = config.rng.seed
    else:
        record["draws"] = None
        record["seed"] = None
    return record


def dump_records(records: list[dict]) -> str:
    """Serialize interval records as deterministic, pretty JSON."""
    return json.dumps(records, indent=2, sort_keys=True) + "\n"
