"""In-memory span recorder for the benchmark's traced runs.

A span is (trace id, span id, parent span id, name, start, end).  The
recorder only appends tuples while a run is being traced; self times
and per-layer totals are computed once the run is over, and the spans
are written out in one piece at the end (never while timing).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans; every span of one cell or request shares ``trace``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, trace: int, name: str):
        """Time the body as one span, nested under the innermost open span."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((trace, span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (trace, span_id, parent, name, start, end)

    def add(
        self, trace: int, name: str, start: float, end: float, parent: int = -1
    ) -> int:
        """Record a span measured elsewhere (e.g. a server-side span)."""
        span_id = len(self.spans)
        self.spans.append((trace, span_id, parent, name, start, end))
        return span_id

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus what its children cover.

        Children of one span never overlap here (the harness is serial and
        server spans are laid end to end), so the covered part is the sum
        of the children's durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def root_time(self) -> float:
        """Total seconds covered by top-level spans."""
        return sum(end - start for _, _, parent, _, start, end in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        """Dump every span as JSON lines (called once, after timing)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for trace, span_id, parent, name, start, end in self.spans:
                sink.write(
                    json.dumps(
                        {
                            "trace": trace,
                            "span": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
