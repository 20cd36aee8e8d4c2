"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and an end (perf_counter_ns), the span that was
open when it began, a request id and free-form attributes.  Spans are kept
in memory and written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans; the recorder is
single-threaded, so children never overlap and their durations simply add.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None, **attrs):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "request": request,
            "attrs": attrs,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def self_times_ns(self) -> list[int]:
        """Per span, its duration minus the durations of its direct children."""
        out = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return out

    def summary(self) -> dict:
        """Count, total and self milliseconds per span name."""
        rows: dict[str, dict] = {}
        for s, self_ns in zip(self.spans, self.self_times_ns()):
            row = rows.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
            row["self_ms"] += self_ns / 1e6
        return rows

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)
