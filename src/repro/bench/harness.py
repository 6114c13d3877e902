"""Measurement and scaling-simulation helpers for the benchmark drivers.

Absolute running times are measured directly (single-threaded wall clock).
Two kinds of multi-thread scaling curve are available:

* :func:`scaling_curve` — the *simulated* curve: a run is instrumented with a
  :class:`~repro.parallel.scheduler.WorkDepthTracker` and Brent's bound
  ``T_p = W/p + D`` is evaluated for each thread count, calibrated so that
  ``T_1`` equals the measured single-thread time (see DESIGN.md,
  "Parallelism model").  This reproduces the *shape* of the paper's Figures
  6, 7, 9, 10 out to 48 cores regardless of the local machine.  The paper's
  "48h" configuration (48 cores with hyper-threading) is modelled as 48
  physical cores with a 1.35x effective-parallelism bonus.
* :func:`measured_scaling_curve` — the *measured* curve: the function is
  actually re-run with ``num_threads=p`` for each requested count, sharding
  its batched kernels across the persistent worker pool of
  :mod:`repro.parallel.pool`, and real wall-clock times are recorded.  This
  is what ``benchmarks/bench_parallel_scaling.py`` reports; because the
  sharded kernels are deterministic, the per-count results can be asserted
  byte-identical while the times scale.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.backend import resolve_backend
from repro.core.budget import resolve_memory_budget
from repro.core.context import use_context
from repro.core.metric import resolve_metric
from repro.parallel.scheduler import WorkDepthTracker, simulated_time

try:
    import resource
except ImportError:  # pragma: no cover - Windows has no resource module
    resource = None


def peak_rss_bytes() -> Optional[int]:
    """The process's lifetime peak resident set size, in bytes.

    Read from ``resource.getrusage`` (``ru_maxrss`` is kilobytes on Linux,
    bytes on macOS).  Where the ``resource`` module is unavailable, falls
    back to ``tracemalloc``'s traced peak when tracing is active, else
    ``None`` — callers record the value as-is, so artifacts stay honest about
    what was actually measured.

    Note this is a high-water mark for the whole process: it never decreases,
    so deltas across a measured call (``peak_after - peak_before``) only
    attribute growth, not a concurrent baseline.
    """
    if resource is not None:
        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return peak * 1024 if sys.platform != "darwin" else peak
    import tracemalloc

    if tracemalloc.is_tracing():  # pragma: no cover - fallback platform path
        return int(tracemalloc.get_traced_memory()[1])
    return None  # pragma: no cover - fallback platform path


def memory_snapshot() -> Dict[str, object]:
    """Current memory facts every benchmark artifact records.

    ``peak_rss_bytes`` is the process high-water mark
    (:func:`peak_rss_bytes`); ``memory_budget`` is the ambient budget's
    canonical spec (``"unbounded"`` without one) and ``budget_peak_bytes``
    the budget's own planned high-water mark, so artifacts can compare
    planned against measured peaks.
    """
    budget = resolve_memory_budget(None)
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "memory_budget": budget.spec(),
        "budget_peak_bytes": int(budget.peak_bytes),
    }


def _memory_spec(kwargs: Dict) -> str:
    """Canonical budget spec of a measured call, for JSON metadata.

    A ``memory_budget`` kwarg wins; otherwise the ambient budget (which is
    what the call will actually run under) is reported.
    """
    return resolve_memory_budget(kwargs.get("memory_budget")).spec()


def _metric_spec(kwargs: Dict) -> str:
    """Canonical metric name of a measured call, for JSON metadata.

    Every pipeline in this library defaults to Euclidean, so a missing
    ``metric`` kwarg is reported as ``"euclidean"``.
    """
    return resolve_metric(kwargs.get("metric")).spec()


def _backend_spec(kwargs: Dict) -> Tuple[str, str]:
    """``(backend name, effective scoring dtype)`` of a measured call.

    A missing ``backend`` kwarg reports the ambient default (which is what
    the call will actually run on).  An unavailable compiled backend reports
    its fallback — the backend that really executed — not the requested name.
    """
    backend = resolve_backend(kwargs.get("backend"))
    return backend.name, backend.scoring_dtype.name

#: Thread counts reported in the paper's scaling figures; the final entry is
#: the hyper-threaded configuration ("48h").
THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 24, 36, 48, 96)

#: Thread counts for measured (real wall-clock) scaling runs: small powers of
#: two that commodity CI machines and laptops can actually provide.
MEASURED_THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def measure(function: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Run ``function`` once and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_with_tracker(function: Callable, *args, **kwargs) -> Tuple[object, WorkDepthTracker, float]:
    """Run ``function`` under a fresh work–depth tracker.

    Returns ``(result, tracker, elapsed_seconds)``.
    """
    tracker = WorkDepthTracker()
    start = time.perf_counter()
    with use_context(tracker=tracker):
        result = function(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return result, tracker, elapsed


def scaling_curve(
    function: Callable,
    *args,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    hyperthread_last: bool = True,
    **kwargs,
) -> Dict[str, object]:
    """Measured T_1 plus simulated T_p / speedup for each thread count.

    The run is instrumented once; the simulated times are Brent's bound
    calibrated so the single-thread prediction matches the measured wall
    clock.  Returns a dict with keys ``result``, ``t1_seconds``,
    ``thread_counts``, ``times`` and ``speedups``.
    """
    result, tracker, elapsed = run_with_tracker(function, *args, **kwargs)
    work = max(tracker.work, 1.0)
    depth = max(tracker.depth, 1.0)
    seconds_per_op = elapsed / (work + depth)

    times: List[float] = []
    for index, processors in enumerate(thread_counts):
        is_last = index == len(thread_counts) - 1
        factor = 1.35 if (hyperthread_last and is_last) else 1.0
        # The hyper-threaded entry is expressed as physical cores * bonus.
        physical = processors if not (hyperthread_last and is_last) else max(
            processors // 2, 1
        )
        times.append(
            simulated_time(
                work,
                depth,
                physical,
                seconds_per_op=seconds_per_op,
                hyperthread_factor=factor,
            )
        )
    t1 = times[0]
    speedups = [t1 / t for t in times]
    backend_name, scoring_dtype = _backend_spec(kwargs)
    return {
        "result": result,
        "t1_seconds": elapsed,
        "work": work,
        "depth": depth,
        "metric": _metric_spec(kwargs),
        "backend": backend_name,
        "dtype": scoring_dtype,
        "memory_budget": _memory_spec(kwargs),
        "peak_rss_bytes": peak_rss_bytes(),
        "thread_counts": list(thread_counts),
        "times": times,
        "speedups": speedups,
    }


def measured_scaling_curve(
    function: Callable,
    *args,
    thread_counts: Sequence[int] = MEASURED_THREAD_COUNTS,
    repeats: int = 1,
    **kwargs,
) -> Dict[str, object]:
    """Real wall-clock self-relative scaling of a ``num_threads``-aware call.

    Runs ``function(*args, num_threads=p, **kwargs)`` for every ``p`` in
    ``thread_counts`` (``repeats`` times each, keeping the fastest), so every
    entry is a *measured* time with the worker pool actually sized to ``p`` —
    the counterpart to the Brent-bound simulation of :func:`scaling_curve`.

    Returns a dict with ``thread_counts``, ``times``, ``speedups``
    (``T_1 / T_p``) and ``results`` (one per thread count, in order, so
    callers can assert the outputs identical across counts).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times: List[float] = []
    results: List[object] = []
    for processors in thread_counts:
        best = float("inf")
        result = None
        for _ in range(repeats):
            result, elapsed = measure(
                function, *args, num_threads=processors, **kwargs
            )
            best = min(best, elapsed)
        times.append(best)
        results.append(result)
    t1 = times[0]
    backend_name, scoring_dtype = _backend_spec(kwargs)
    return {
        "metric": _metric_spec(kwargs),
        "backend": backend_name,
        "dtype": scoring_dtype,
        "memory_budget": _memory_spec(kwargs),
        "peak_rss_bytes": peak_rss_bytes(),
        "thread_counts": list(thread_counts),
        "times": times,
        "speedups": [t1 / t for t in times],
        "results": results,
    }


def latency_stats(latencies_seconds: Sequence[float]) -> Dict[str, float]:
    """Throughput/latency summary keys every serving artifact records.

    Given per-request wall-clock latencies (seconds), returns ``requests``,
    ``total_seconds``, ``requests_per_second`` and the nearest-rank
    percentiles ``latency_p50_s`` / ``latency_p99_s``.  Percentiles are
    nearest-rank over the measured samples (no interpolation), so a reported
    p99 is always a latency that actually happened.
    """
    latencies = sorted(float(value) for value in latencies_seconds)
    if not latencies:
        raise ValueError("latency_stats requires at least one latency sample")
    total = sum(latencies)

    def nearest_rank(quantile: float) -> float:
        rank = max(1, -(-int(quantile * 100) * len(latencies) // 100))
        return latencies[min(rank, len(latencies)) - 1]

    return {
        "requests": len(latencies),
        "total_seconds": total,
        "requests_per_second": len(latencies) / total if total > 0 else float("inf"),
        "latency_p50_s": nearest_rank(0.50),
        "latency_p99_s": nearest_rank(0.99),
    }


def timed_requests(
    handler: Callable, requests: Sequence
) -> Tuple[List[object], Dict[str, float]]:
    """Answer each request through ``handler``, timing every call.

    Returns ``(responses, stats)`` where ``stats`` is
    :func:`latency_stats` over the per-request wall clocks — the measurement
    loop the serving benchmark and its CI smoke job share.
    """
    responses: List[object] = []
    latencies: List[float] = []
    for request in requests:
        start = time.perf_counter()
        responses.append(handler(request))
        latencies.append(time.perf_counter() - start)
    return responses, latency_stats(latencies)


def phase_breakdown(stats: Dict[str, float]) -> Dict[str, float]:
    """Extract the ``time_<phase>`` entries of a result's stats dict."""
    breakdown = {}
    for key, value in stats.items():
        if key.startswith("time_"):
            breakdown[key[len("time_"):]] = value
    return breakdown
