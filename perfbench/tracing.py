"""In-memory span recorder for the traced run.

A span is one timed call into a layer, recorded from the benchmark's
own files: name, start, end, the enclosing span and the op it belongs
to.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of its interval that its child spans cover, so
within one op the self times of all spans add up to the op's duration.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

_NULL_SPAN = contextlib.nullcontext()


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int


class NullTracer:
    """Records nothing; used for every untraced op."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return _NULL_SPAN


class Tracer:
    """Collects spans for the ops it is handed, in a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, self.op, name, start, end)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end) covered by the union of *intervals*."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in nanoseconds of every span, keyed by span id."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.span_id: (s.end_ns - s.start_ns) - covered_ns(s.start_ns, s.end_ns, children[s.span_id])
        for s in spans
    }


def to_json(spans: list[Span], selfs: dict[int, int]) -> list[dict]:
    return [dict(asdict(s), self_ns=selfs[s.span_id]) for s in spans]
