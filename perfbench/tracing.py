"""In-memory spans around calls into recallci's public functions.

The tracer wraps a function by replacing the name in the module that calls
it, so the library itself is unchanged.  Each span records its name, start,
end, the span that was open when it began, and the op it belongs to.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    op_id: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        count: Callable[..., dict[str, int]] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``count`` maps the call's arguments to counter
        increments.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if count is not None:
                self.counters.update(count(*args, **kwargs))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.op_id, span_name, start, end))

        return traced

    def patch(
        self,
        target: str,
        name: str | Callable[..., str],
        count: Callable[..., dict[str, int]] | None = None,
    ) -> bool:
        """Replace ``module:attr.path`` with a traced wrapper.

        Returns False, leaving everything unchanged, when the target does
        not exist in this revision of the library.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self.wrap(original, name, count))
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent_id,
                            "op": s.op_id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to a call that does nothing."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the part of it that its child
    spans cover.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, total = out.get(s.name, (0, 0.0))
        own = (s.end - s.start) - _covered(children.get(s.span_id, []), s.start, s.end)
        out[s.name] = (calls + 1, total + own)
    return out
