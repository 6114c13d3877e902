"""Work–depth accounting and Brent-bound running-time simulation.

The paper proves bounds of the form "O(n^2) work and O(log^2 n) depth" and its
speedup figures (Figures 6, 7, 9, 10) show how running time falls as threads
are added on a 48-core machine.  In pure Python we cannot reproduce the
machine, but we *can* measure the work and depth our implementations actually
incur and convert them into the running time Brent's scheduling theorem
predicts::

    T_p  =  W / p  +  D

The tracker below is a tiny structured profiler for exactly that purpose:

* ``tracker.add(work, depth)`` charges cost inside the currently open scope;
* ``tracker.parallel(...)`` opens a scope whose children run conceptually in
  parallel: their work adds up, their depth contributes only its maximum;
* ``tracker.sequential(...)`` opens a scope whose children run one after the
  other: both work and depth add up.

Algorithms throughout the library charge costs at the same granularity the
paper uses in its analysis (per distance evaluation, per tree-node visit, per
Kruskal batch, per recursion level), so the resulting speedup curves reproduce
the *shape* of the paper's figures.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.context import current_context


@dataclass
class _Scope:
    """One node of the work–depth composition tree."""

    kind: str  # "sequential" or "parallel"
    label: str
    work: float = 0.0
    depth: float = 0.0
    # For a parallel scope, children depths are folded via max; ``depth``
    # accumulates the running maximum.  For sequential scopes depths add.


class WorkDepthTracker:
    """Accumulates work and depth of an instrumented computation.

    The tracker is deliberately lightweight: it keeps only the running totals
    per open scope plus a per-phase summary, not the whole composition tree,
    so instrumentation overhead stays negligible even for millions of charge
    calls.
    """

    def __init__(self) -> None:
        self._stack: List[_Scope] = [_Scope("sequential", "<root>")]
        self._phase_work: Dict[str, float] = {}
        # Pool tasks charge their submitter's tracker concurrently.  Scopes
        # are opened only by the submitting thread, so only ``add`` locks.
        self._lock = threading.Lock()

    # -- charging -----------------------------------------------------------

    def add(self, work: float, depth: float = 1.0, phase: Optional[str] = None) -> None:
        """Charge ``work`` operations with critical-path length ``depth``."""
        with self._lock:
            scope = self._stack[-1]
            scope.work += work
            if scope.kind == "parallel":
                # Within a parallel scope each charged unit is an independent
                # child; only the maximum depth survives.
                scope.depth = max(scope.depth, depth)
            else:
                scope.depth += depth
            if phase is not None:
                self._phase_work[phase] = self._phase_work.get(phase, 0.0) + work

    # -- structured scopes ---------------------------------------------------

    @contextlib.contextmanager
    def parallel(self, label: str = "parallel") -> Iterator[None]:
        """Scope whose direct children execute in parallel."""
        scope = _Scope("parallel", label)
        self._stack.append(scope)
        try:
            yield
        finally:
            self._stack.pop()
            self._fold_child(scope)

    @contextlib.contextmanager
    def sequential(self, label: str = "sequential") -> Iterator[None]:
        """Scope whose direct children execute one after another."""
        scope = _Scope("sequential", label)
        self._stack.append(scope)
        try:
            yield
        finally:
            self._stack.pop()
            self._fold_child(scope)

    @contextlib.contextmanager
    def task(self, depth_hint: float = 1.0) -> Iterator[None]:
        """One task inside an enclosing parallel scope.

        The body of the task is sequential; its total depth is folded into the
        parent with ``max`` semantics.  ``depth_hint`` is the minimum depth the
        task contributes even if its body charges nothing.
        """
        scope = _Scope("sequential", "task", depth=0.0)
        self._stack.append(scope)
        try:
            yield
        finally:
            self._stack.pop()
            scope.depth = max(scope.depth, depth_hint)
            self._fold_child(scope)

    def _fold_child(self, child: _Scope) -> None:
        parent = self._stack[-1]
        parent.work += child.work
        if parent.kind == "parallel":
            parent.depth = max(parent.depth, child.depth)
        else:
            parent.depth += child.depth

    # -- results -------------------------------------------------------------

    @property
    def work(self) -> float:
        """Total work charged so far (at the root scope)."""
        return self._stack[0].work

    @property
    def depth(self) -> float:
        """Total depth charged so far (at the root scope)."""
        return self._stack[0].depth

    @property
    def phase_work(self) -> Dict[str, float]:
        """Work charged per named phase (copy)."""
        return dict(self._phase_work)

    def reset(self) -> None:
        self._stack = [_Scope("sequential", "<root>")]
        self._phase_work = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkDepthTracker(work={self.work:.3g}, depth={self.depth:.3g})"


# ---------------------------------------------------------------------------
# Ambient tracker
# ---------------------------------------------------------------------------

class _NullTracker(WorkDepthTracker):
    """Tracker that discards every charge; used when no tracker is active."""

    def add(self, work: float, depth: float = 1.0, phase: Optional[str] = None) -> None:
        return None


_NULL = _NullTracker()


def current_tracker() -> WorkDepthTracker:
    """The tracker of the current execution context (a no-op one if unset).

    Install a tracker with ``use_context(tracker=...)``
    (:mod:`repro.core.context`); pool tasks charge their submitter's tracker.
    """
    tracker = current_context().tracker
    return _NULL if tracker is None else tracker


# ---------------------------------------------------------------------------
# Brent-bound simulation
# ---------------------------------------------------------------------------

def simulated_time(
    work: float,
    depth: float,
    processors: int,
    *,
    seconds_per_op: float = 1.0,
    hyperthread_factor: float = 1.0,
) -> float:
    """Running time predicted by Brent's bound ``W/p + D``.

    ``seconds_per_op`` converts abstract operations into seconds (calibrated
    from a measured single-thread run); ``hyperthread_factor`` < 1 models the
    partial benefit of hyper-threads ("48h" in the paper's figures), where the
    extra logical cores contribute only a fraction of a physical core each.
    """
    if processors < 1:
        raise ValueError("processors must be >= 1")
    effective = processors * hyperthread_factor if hyperthread_factor != 1.0 else processors
    return (work / effective + depth) * seconds_per_op


def simulated_speedups(
    work: float,
    depth: float,
    processor_counts: Sequence[int],
    *,
    hyperthread_last: bool = False,
) -> List[float]:
    """Self-relative speedups ``T_1 / T_p`` for a list of processor counts.

    If ``hyperthread_last`` is true, the final entry of ``processor_counts``
    is treated as a hyper-threaded configuration: it gets 1.35x the effective
    parallelism of its physical-core count, mirroring the modest extra gain
    the paper reports for "48h" over 48 physical cores.
    """
    t1 = simulated_time(work, depth, 1)
    speedups: List[float] = []
    for index, p in enumerate(processor_counts):
        if hyperthread_last and index == len(processor_counts) - 1:
            tp = simulated_time(work, depth, p, hyperthread_factor=1.35)
        else:
            tp = simulated_time(work, depth, p)
        speedups.append(t1 / tp)
    return speedups
