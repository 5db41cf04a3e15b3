"""In-memory spans for the traced benchmark mode.

A span records a name, start and end (``perf_counter_ns``), its parent span
and the request id shared by every span of one request.  Spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover.

``Tracer(enabled=False)`` keeps the same interface and records nothing, so
the untraced run pays one attribute check per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._req = 0

    @contextmanager
    def request(self, name: str):
        """A root span that opens a new request id."""
        self._req += 1
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "req": self._req,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None,
               "counts": counts}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield counts
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def self_times(self) -> dict[str, list[float]]:
        """name -> self time in seconds of every span with that name."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(
                (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e9)
        return out

    def durations(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans
                if s["name"] == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
