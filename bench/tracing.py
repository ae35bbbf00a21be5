"""In-memory spans recorded by the benchmark around its own calls into aym.

A span has a name, start and end (perf_counter_ns), the id of the span that
was open when it started, and the id of the op it belongs to.  Spans stay in
memory until the run ends; ``write_jsonl`` dumps them and ``self_times``
subtracts the time covered by child spans.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children, user plus system.

    The benchmark times ops with it rather than the wall clock: on a shared
    virtual machine the wall clock also counts the time the host runs other
    guests on our CPU (steal time), which doubled some ops' wall time while
    their CPU time moved by a tenth.  Every op is single-threaded.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Recorder:
    """Collects spans; a disabled recorder's ``span`` costs one branch."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {"id": span_id, "name": name, "op": op_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in ms per span name: duration minus its children's durations.

    Children of one span never overlap (one call at a time), so the covered
    part of a parent's interval is the sum of its children's durations.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    totals: dict[str, float] = {}
    for s, covered in zip(spans, child_ns):
        own = (s["end_ns"] - s["start_ns"] - covered) / 1e6
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals
