"""A minimal in-memory span recorder for the traced benchmark run.

Each span is ``(name, start, end, parent, cell)``: ``parent`` is the
index of the enclosing span (``-1`` at top level) and ``cell`` the
spec hash of the cell it belongs to.  Spans are appended to a list and
summarized when the run ends; a layer's self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    cell: str


class SpanRecorder:
    """Records nested spans with ``perf_counter`` pairs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: str = ""):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if not cell and parent >= 0:
            cell = self.spans[parent].cell
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               cell))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(
                end=time.perf_counter())

    def set_cell(self, index: int, cell: str) -> None:
        """Label an open span, opened before its cell id was known, and
        the spans recorded inside it so far."""
        for i in range(index, len(self.spans)):
            self.spans[i] = self.spans[i]._replace(cell=cell)


def self_times(spans: List[Span]) -> List[float]:
    """Per-span duration minus the time its direct children cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """name -> {"calls", "self_s"} summed over every span of that name."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return table


def check_nesting(spans: List[Span]) -> List[str]:
    """Violations of the span invariants (empty when the trace is sound):
    every span ends after it starts, lies inside its parent, shares its
    parent's cell id, and has a non-negative self time."""
    problems = []
    for index, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {index} {span.name} ends before it "
                            f"starts")
        if span.parent >= 0:
            parent = spans[span.parent]
            if not (parent.start <= span.start and span.end <= parent.end):
                problems.append(f"span {index} {span.name} escapes its "
                                f"parent {parent.name}")
            if span.cell != parent.cell:
                problems.append(f"span {index} {span.name} changes cell "
                                f"id inside {parent.name}")
    for index, own in enumerate(self_times(spans)):
        # Tolerance for rounding in the float subtractions only.
        if own < -1e-9:
            problems.append(f"span {index} {spans[index].name} has "
                            f"negative self time {own}")
    return problems
