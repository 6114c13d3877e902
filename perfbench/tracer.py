"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the benchmark's own calls into the program's
layers (no instrumentation inside the program).  Each span keeps its name,
start, end, parent, workload and request id, plus any counts attached at
the same boundary.  Nothing is written until :meth:`Tracer.write`, which
emits Chrome trace-event JSON (loadable in Perfetto or chrome://tracing)
and a per-layer self-time table.

Spans nest through a stack, so the tracer assumes one thread; the benchmark
runs every workload with ``num_threads=1``.  A span keeps both clocks: wall
time places it in the trace, and process CPU time gives the per-layer
metrics, on the same clock as the end-to-end ones.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: Optional[int]
    workload: str
    request: Optional[str]
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds."""
        return self.end - self.start

    @property
    def cpu(self) -> float:
        """Process CPU seconds."""
        return self.cpu_end - self.cpu_start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; ``enabled`` is False only on :class:`NullTracer`."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), float("nan"), time.process_time(),
                      float("nan"), parent, self.workload, request)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.cpu_end = time.process_time()
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Attach a count to the innermost open span."""
        self.spans[self._stack[-1]].counts[name] = value

    # -- queries ---------------------------------------------------------

    def cpu_times(self, name: str) -> List[float]:
        return [s.cpu for s in self.spans if s.name == name]

    def wall_time(self) -> float:
        """From the first span's start to the last span's end."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def coverage(self) -> float:
        """Share of :meth:`wall_time` covered by root spans."""
        wall = self.wall_time()
        roots = sum(s.duration for s in self.spans if s.parent is None)
        return roots / wall if wall > 0 else 0.0

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its children cover;
        children of one span never overlap, since spans nest on one stack.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        table: Dict[str, Dict[str, float]] = {}
        for s, covered in zip(self.spans, child_time):
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - covered
        return table

    # -- export ----------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for s in self.spans:
            args: Dict[str, object] = {"workload": s.workload, "request": s.request}
            if s.parent is not None:
                args["parent"] = self.spans[s.parent].name
            args.update(s.counts)
            events.append({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def self_time_table(self) -> str:
        table = self.self_times()
        wall = self.wall_time()
        lines = [f"# {self.workload}: traced wall {wall:.3f} s, "
                 f"root-span coverage {self.coverage():.3f}",
                 f"{'layer':<12} {'span':<34} {'calls':>7} {'total_s':>10} "
                 f"{'self_s':>10} {'self%':>6}"]
        ordered = sorted(table.items(), key=lambda item: -item[1]["self_s"])
        for name, row in ordered:
            share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
            lines.append(f"{name.split('.', 1)[0]:<12} {name:<34} "
                         f"{int(row['calls']):>7} {row['total_s']:>10.4f} "
                         f"{row['self_s']:>10.4f} {share:>6.1f}")
        return "\n".join(lines) + "\n"

    def write(self, directory: str, stem: str) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, stem + ".trace.json"), "w") as handle:
            json.dump(self.chrome_trace(), handle)
        with open(os.path.join(directory, stem + ".selftime.txt"), "w") as handle:
            handle.write(self.self_time_table())


class NullTracer(Tracer):
    """The untraced run's tracer: records nothing."""

    enabled = False

    def span(self, name: str, request: Optional[str] = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def span_cost(repeats: int = 2000) -> float:
    """Median seconds one empty span costs, measured on a throwaway tracer."""
    tracer = Tracer("calibration")
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        with tracer.span("calibration"):
            pass
        costs.append(time.perf_counter() - start)
    costs.sort()
    return costs[len(costs) // 2]
