"""In-memory span recorder for the traced run.

Spans are taken from the benchmark's side of each public call into a
layer (name, start, end, parent, workload id), kept in a list, and
written out once when the run ends.  A layer's self time is its span
minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, workload: str, clock=None) -> None:
        self.workload = workload
        #: a HostClock: durations are then reference-host seconds, else raw
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record a span the caller timed itself (hot loops skip the context manager)."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "workload": self.workload,
                "start": start,
                "end": end,
            }
        )

    def _length(self, span: dict) -> float:
        if self.clock is None:
            return span["end"] - span["start"]
        return self.clock.reference_seconds(span["start"], span["end"])

    def durations(self, name: str) -> list[float]:
        return [self._length(s) for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (span minus its direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time[s["id"]]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"workload": self.workload, "self_s": self.self_times(), "spans": self.spans}, f
            )
