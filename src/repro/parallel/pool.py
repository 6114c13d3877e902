"""The multicore execution engine: a persistent thread-based worker pool.

NumPy releases the GIL inside its C kernels (ufunc inner loops, BLAS matrix
products, sorts, searchsorted, fancy-index gathers), so the batched array
kernels this library is built from — BCCP size-class tensors, k-NN frontier
blocks, WSPD predicate masks, chunked merge sorts — get *real* wall-clock
multicore speedups from plain threads, the same route threaded scikit-learn
backends take.  This module provides the machinery every hot path shares:

* :class:`WorkerPool` — a persistent pool of daemon worker threads with a
  shared task queue.  Unlike a per-call ``ThreadPoolExecutor``, the workers
  are spawned once and reused for every batch of every round of every
  algorithm invocation, so the per-dispatch overhead is one queue push rather
  than a thread spawn.  Each worker owns a reusable :class:`Workspace` of
  scratch buffers (reachable via :func:`current_workspace`) so repeated
  kernel launches do not re-allocate their large temporaries.
* :func:`get_pool` — process-wide cache of pools keyed by worker count, which
  is what makes the pools persistent across calls; callers never construct a
  pool on a hot path.  A cached pool that went unhealthy (dead workers, a
  poisoning timeout) is rebuilt instead of reused.
* :func:`parallel_map` — order-preserving map over a task list, degrading to
  an inline loop for tiny inputs or ``num_threads <= 1``.
* :func:`shard_ranges` / :func:`map_shards` — fixed-boundary sharding of an
  index range.  Chunk boundaries depend only on the chunk size, never on the
  thread count, and results are combined in shard order, so a computation
  sharded this way is *deterministic*: byte-identical output at any
  ``num_threads`` (the contract the thread-determinism tests pin down).

Exceptions raised by a task propagate to the caller of ``map`` after the
whole batch has drained, so a failed round cannot leave orphan tasks writing
into shared output arrays.

**Fault tolerance** (the hardening contract the chaos suite pins down): a
``map`` never hangs on a dead worker.  Tasks are *claimed* before execution;
the waiting thread polls worker health and, when a worker dies mid-batch,
respawns it and re-enqueues the dead worker's claimed-but-unfinished tasks —
sharding is deterministic, so a re-executed task writes exactly the bytes
the first execution would have.  After ``max_retries`` death events the
pool escalates to a clean *serial fallback* (the waiting thread claims and
runs every remaining task inline, with a :class:`WorkerRecoveryWarning`);
if even that is killed, or a ``task_timeout`` passes with no progress, the
pool raises :class:`~repro.core.errors.WorkerFailedError` and marks itself
unhealthy so :func:`get_pool` rebuilds it.  The retry/timeout knobs flow
either per call or through the execution context
(:func:`repro.core.context.use_context`) that ``emst()`` / ``hdbscan()``
scope from their ``max_retries=`` / ``task_timeout=`` parameters.

**Context propagation**: every task — first run, re-execution after a
worker death, or serial fallback — runs in a copy of the execution context
the submitting thread had when it called ``map``, so pooled kernels see
their caller's backend and budget and charge their caller's tracker.
"""

from __future__ import annotations

import atexit
import queue
import threading
import time
import warnings
from contextvars import Context, copy_context
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.context import ExecutionContext, current_context
from repro.core.errors import WorkerFailedError
from repro.resilience.faults import _InjectedWorkerDeath, fault_check

T = TypeVar("T")
R = TypeVar("R")

#: Default element-chunk size used by the frontier/bound sharding call sites.
#: Large enough that each task amortizes its NumPy dispatch overhead, small
#: enough that a round's frontier splits into several tasks per worker.
DEFAULT_CHUNK = 32_768

_STOP = object()

#: How often a waiting ``map`` wakes to check worker health.  Completions
#: notify the waiter immediately; this poll only bounds how long a worker
#: death can go undetected.
_HEALTH_POLL_SECONDS = 0.05

# Task states inside a job.
_QUEUED, _CLAIMED, _DONE = 0, 1, 2


class WorkerRecoveryWarning(UserWarning):
    """Warned when the pool degrades (serial fallback after worker deaths)."""


#: Requests above this many bytes are served as one-shot allocations instead
#: of being cached: workspaces live as long as their worker thread (the whole
#: process for pooled workers), so caching a pathological one-off tensor
#: would pin its peak size in every worker forever.  64 MB is exactly the
#: steady-state BCCP class-chunk tensor, so the common case still reuses.
_MAX_CACHED_BYTES = 64 << 20


class Workspace:
    """Reusable per-thread scratch buffers for the batched kernels.

    ``take(key, shape, dtype)`` returns an array of the requested shape backed
    by a cached buffer that only grows (geometrically, capped at
    ``_MAX_CACHED_BYTES``), so a worker that evaluates thousands of similar
    BCCP size-class chunks allocates its distance tensor once instead of once
    per chunk.  Buffers are keyed by ``(key, dtype)``; the returned view
    aliases the cache, so a kernel must finish with one buffer before taking
    it again under the same key.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        needed = int(np.prod(shape)) if shape else 1
        if needed * dtype.itemsize > _MAX_CACHED_BYTES:
            # One-shot oversized request: freed with the caller, never cached.
            return np.empty(needed, dtype=dtype).reshape(shape)
        buffer = self._buffers.get((key, dtype))
        if buffer is None or buffer.size < needed:
            capacity = needed if buffer is None else max(needed, 2 * buffer.size)
            capacity = min(capacity, _MAX_CACHED_BYTES // dtype.itemsize)
            buffer = np.empty(max(capacity, needed), dtype=dtype)
            self._buffers[(key, dtype)] = buffer
        return buffer[:needed].reshape(shape)

    def clear(self) -> None:
        self._buffers.clear()


_thread_state = threading.local()


def current_workspace() -> Workspace:
    """The calling thread's reusable workspace (created lazily).

    Pool workers each get their own; the main thread gets one too, so kernels
    can use workspace buffers identically on the inline (single-thread) path.
    """
    workspace = getattr(_thread_state, "workspace", None)
    if workspace is None:
        workspace = Workspace()
        _thread_state.workspace = workspace
    return workspace


class _Job:
    """One ``map`` invocation: its tasks, results and completion latch.

    Every task moves ``queued -> claimed -> done``; claims record the
    claiming thread so the waiter can detect tasks orphaned by a dead worker
    and re-issue exactly those.  ``claim`` is the double-execution guard: a
    re-enqueued task and its stale queue entry can never both run.
    """

    __slots__ = (
        "function",
        "items",
        "context",
        "results",
        "state",
        "claimant",
        "pending",
        "error",
        "condition",
        "last_progress",
    )

    def __init__(self, function: Callable, items: List, context: Context) -> None:
        self.function = function
        self.items = items
        # One Context cannot be entered by two threads at once, so every
        # task runs in its own copy of the submitter's context.
        self.context = context
        self.results: List = [None] * len(items)
        self.state = [_QUEUED] * len(items)
        self.claimant: List[Optional[threading.Thread]] = [None] * len(items)
        self.pending = len(items)
        self.error: Optional[BaseException] = None
        self.condition = threading.Condition()
        self.last_progress = time.monotonic()

    def claim(self, index: int, thread: Optional[threading.Thread] = None) -> bool:
        """Claim a queued task; False if it is already claimed or done."""
        with self.condition:
            if self.state[index] != _QUEUED:
                return False
            self.state[index] = _CLAIMED
            self.claimant[index] = thread or threading.current_thread()
            return True

    def steal(self, index: int) -> bool:
        """Claim a task even if it is held by a *dead* thread (rescue path)."""
        with self.condition:
            if self.state[index] == _DONE:
                return False
            holder = self.claimant[index]
            if self.state[index] == _CLAIMED and holder is not None and holder.is_alive():
                return False
            self.state[index] = _CLAIMED
            self.claimant[index] = threading.current_thread()
            return True

    def requeue_abandoned(self) -> List[int]:
        """Reset tasks claimed by dead threads to queued; return their indices."""
        orphans = []
        with self.condition:
            for index, state in enumerate(self.state):
                if state != _CLAIMED:
                    continue
                holder = self.claimant[index]
                if holder is not None and not holder.is_alive():
                    self.state[index] = _QUEUED
                    self.claimant[index] = None
                    orphans.append(index)
        return orphans

    def run_task(self, index: int) -> None:
        try:
            result = self.context.copy().run(self.function, self.items[index])
            error = None
        except BaseException as exc:  # propagated to the submitting thread
            result, error = None, exc
        with self.condition:
            self.results[index] = result
            self.state[index] = _DONE
            if error is not None and self.error is None:
                self.error = error
            self.pending -= 1
            self.last_progress = time.monotonic()
            if self.pending == 0:
                self.condition.notify_all()


class WorkerPool:
    """A persistent pool of ``num_threads`` daemon worker threads.

    Workers are spawned lazily on the first threaded ``map`` and then live
    until :meth:`shutdown`; every subsequent ``map`` reuses them.  Tasks are
    dispatched through one shared queue; results are returned in input order.
    The pool is safe to share between sequential algorithm phases (that is the
    point), but a single ``map`` call's tasks must not themselves submit to
    the same pool (no nested parallelism — none of the kernels need it).
    """

    def __init__(self, num_threads: int, *, name: str = "repro-worker") -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads
        self._name = name
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._spawned = 0
        self._lock = threading.Lock()
        self._closed = False
        self._poisoned = False
        #: Worker-death events absorbed over the pool's lifetime (observable
        #: for tests and the chaos harness).
        self.deaths_detected = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers_started(self) -> int:
        """Number of live worker threads (0 until the first map)."""
        return len(self._threads)

    @property
    def healthy(self) -> bool:
        """Whether the pool can be reused: open, not poisoned by a timeout,
        and with no dead worker awaiting replacement."""
        if self._closed or self._poisoned:
            return False
        return all(thread.is_alive() for thread in self._threads)

    def _ensure_workers_locked(self) -> None:
        # Replace dead workers first (their threads can never run again),
        # then top up to the requested width.
        self._threads = [thread for thread in self._threads if thread.is_alive()]
        while len(self._threads) < self.num_threads:
            thread = threading.Thread(
                target=self._worker,
                name=f"{self._name}-{self._spawned}",
                daemon=True,
            )
            self._spawned += 1
            thread.start()
            self._threads.append(thread)

    def _worker(self) -> None:
        # Each worker owns a workspace for the whole pool lifetime, so kernel
        # scratch buffers persist across rounds and algorithm invocations.
        _thread_state.workspace = Workspace()
        while True:
            task = self._tasks.get()
            if task is _STOP:
                return
            job, index = task
            if not job.claim(index):
                continue  # stale entry for a re-executed or finished task
            if fault_check("kill-worker") is not None:
                # Injected worker death: exit with the task claimed but
                # unfinished, exactly the state a crashed thread leaves.
                return
            job.run_task(index)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers and reject further maps.  Idempotent.

        The close flag and the stop sentinels are published under the same
        lock that :meth:`map` enqueues under, so a concurrent map either
        fully enqueues before the sentinels (its tasks drain first) or
        observes the closed pool and raises — tasks can never land behind
        the sentinels and hang their job.  ``wait=False`` skips joining the
        workers (used for unhealthy pools, whose workers may be stuck; they
        are daemons, so they cannot outlive the process).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
            for _ in threads:
                self._tasks.put(_STOP)
        if wait:
            for thread in threads:
                thread.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution -----------------------------------------------------------

    def map(
        self,
        function: Callable[[T], R],
        items: Sequence[T],
        *,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> List[R]:
        """Apply ``function`` to every item; results in input order.

        Degrades to an inline loop when the pool has one worker or there is
        only one item.  The first exception raised by any task is re-raised
        here after all tasks of the batch have finished.  Worker deaths are
        absorbed per the retry policy (see the module docstring); the knobs
        default to the execution context's.
        """
        policy = current_context().override(
            max_retries=max_retries, task_timeout=task_timeout
        )
        items = list(items)
        if not items:
            return []
        if self.num_threads == 1 or len(items) == 1:
            if self._closed:
                raise RuntimeError("WorkerPool has been shut down")
            return [function(item) for item in items]
        job = _Job(function, items, copy_context())
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool has been shut down")
            self._ensure_workers_locked()
            for index in range(len(items)):
                self._tasks.put((job, index))
        return self._await_resilient(job, policy)

    # -- fault-tolerant completion --------------------------------------------

    def _await_resilient(self, job: _Job, policy: ExecutionContext) -> List:
        """Wait for a job, surviving worker deaths and bounding stalls.

        Invariants: a task runs at most once (claims), every death event is
        answered by respawn + re-enqueue of exactly the orphaned tasks, and
        the loop always exits — via completion, serial fallback, or
        ``WorkerFailedError`` — never by waiting on a thread that cannot
        answer.
        """
        deaths = 0
        while True:
            with job.condition:
                if job.pending == 0:
                    break
                job.condition.wait(timeout=_HEALTH_POLL_SECONDS)
                if job.pending == 0:
                    break
                stalled = (
                    policy.task_timeout is not None
                    and time.monotonic() - job.last_progress > policy.task_timeout
                )
            with self._lock:
                dead = [t for t in self._threads if not t.is_alive()]
            orphaned = job.requeue_abandoned()
            if dead or orphaned:
                deaths += max(len(dead), 1)
                self.deaths_detected += max(len(dead), 1)
                if deaths > policy.max_retries:
                    warnings.warn(
                        f"worker pool lost workers {deaths} times "
                        f"(max_retries={policy.max_retries}); finishing the "
                        "batch serially on the submitting thread",
                        WorkerRecoveryWarning,
                        stacklevel=3,
                    )
                    self._drain_serially(job)
                    break
                with self._lock:
                    if not self._closed:
                        self._ensure_workers_locked()
                for index in orphaned:
                    # requeue_abandoned reset them to queued; give every one a
                    # fresh queue entry (stale entries are claim-guarded).
                    self._tasks.put((job, index))
                continue
            if stalled:
                self._poisoned = True
                raise WorkerFailedError(
                    f"no pool task completed within task_timeout="
                    f"{policy.task_timeout}s ({job.pending} of "
                    f"{len(job.items)} tasks pending); the pool is marked "
                    "unhealthy and will be rebuilt on next use"
                )
        if job.error is not None:
            raise job.error
        return job.results

    def _drain_serially(self, job: _Job) -> None:
        """Serial fallback: claim and run every remaining task inline.

        Tasks still claimed by *live* workers are left to finish there; the
        loop re-scans until the job drains, stealing from any worker that
        dies in the meantime, so it can never deadlock.  An injected death
        with ``scope=any`` kills this last resort too — that is the
        exhausted-retries contract, surfaced as ``WorkerFailedError``.
        """
        while True:
            progress = False
            for index in range(len(job.items)):
                if not job.steal(index):
                    continue
                progress = True
                try:
                    if fault_check("kill-worker", serial=True) is not None:
                        raise _InjectedWorkerDeath()
                    job.run_task(index)
                except _InjectedWorkerDeath:
                    self._poisoned = True
                    raise WorkerFailedError(
                        "worker retries exhausted: the serial fallback was "
                        "killed as well; the pool is marked unhealthy and "
                        "will be rebuilt on next use"
                    ) from None
            with job.condition:
                if job.pending == 0:
                    return
                if not progress:
                    job.condition.wait(timeout=_HEALTH_POLL_SECONDS)


# ---------------------------------------------------------------------------
# Process-wide persistent pools
# ---------------------------------------------------------------------------

_pools: Dict[int, WorkerPool] = {}
_pools_lock = threading.Lock()


def resolve_num_threads(num_threads: Optional[int]) -> int:
    """Normalize a user-facing ``num_threads`` knob: None/0/negative -> 1."""
    if num_threads is None or num_threads <= 1:
        return 1
    return int(num_threads)


def get_pool(num_threads: int) -> WorkerPool:
    """The shared persistent pool with exactly ``num_threads`` workers.

    Pools are cached per worker count for the life of the process, so every
    stage of every algorithm run with the same ``num_threads`` reuses the same
    threads (and their workspaces).  Worker counts are kept exact — rather
    than handing a 4-thread request 8 cached workers — so measured scaling
    curves reflect the requested parallelism.  A cached pool that went
    unhealthy (shut down, poisoned by a timeout, or holding dead workers) is
    replaced with a fresh pool instead of reused — a poisoned cache entry
    must never wedge every later caller.
    """
    num_threads = resolve_num_threads(num_threads)
    with _pools_lock:
        pool = _pools.get(num_threads)
        if pool is None or not pool.healthy:
            if pool is not None:
                # Abandon, don't join: an unhealthy pool may hold stuck
                # workers, and they are daemons anyway.
                pool.shutdown(wait=False)
            pool = WorkerPool(num_threads)
            _pools[num_threads] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down and drop every cached pool (tests and benchmarks use this;
    also registered via ``atexit`` so daemon workers and their workspace
    buffers are drained at interpreter exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        # Healthy pools drain cleanly; unhealthy ones are abandoned rather
        # than joined, so exit can never hang on a stuck worker.
        pool.shutdown(wait=pool.healthy)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Mapping helpers
# ---------------------------------------------------------------------------

def parallel_map(
    function: Callable[[T], R],
    items: Iterable[T],
    *,
    num_threads: Optional[int] = None,
    chunk_threshold: int = 2,
) -> List[R]:
    """Apply ``function`` to every item, optionally on the shared worker pool.

    With ``num_threads`` of ``None``, ``0`` or ``1`` — or with fewer items
    than ``chunk_threshold`` — this degrades to a plain list comprehension so
    there is no pool overhead on tiny inputs.  Threaded calls dispatch to the
    persistent pool from :func:`get_pool`; results keep input order either
    way.
    """
    items = list(items)
    if not items:
        return []
    if resolve_num_threads(num_threads) == 1 or len(items) < chunk_threshold:
        return [function(item) for item in items]
    return get_pool(num_threads).map(function, items)


def shard_ranges(n: int, chunk_size: Optional[int] = None) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into fixed ``[lo, hi)`` spans of ``chunk_size``.

    Boundaries depend only on ``chunk_size`` (``None`` reads the module's
    ``DEFAULT_CHUNK`` at call time, so tests can lower it) — never on the
    thread count — so a kernel sharded over these spans produces
    byte-identical results at any ``num_threads`` (deterministic sharding +
    stable, shard-ordered reduction).
    """
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


def map_shards(
    function: Callable[[int, int], R],
    n: int,
    *,
    num_threads: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[R]:
    """Run ``function(lo, hi)`` over the fixed shards of ``range(n)``.

    Results come back in shard order, so reductions over them are stable and
    independent of scheduling.  Single-shard (or single-thread) calls run
    inline over the *same* spans, keeping the two paths bit-for-bit equal.
    """
    spans = shard_ranges(n, chunk_size)
    if not spans:
        return []
    if resolve_num_threads(num_threads) == 1 or len(spans) == 1:
        return [function(lo, hi) for lo, hi in spans]
    return get_pool(num_threads).map(lambda span: function(span[0], span[1]), spans)
