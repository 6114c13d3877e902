"""The execution context: scopes never leak across threads, pool tasks inherit.

Every ambient setting (backend, memory budget, pool retry policy, work–depth
tracker) lives in one ``ContextVar``.  These tests pin the two halves of
that contract: a scope opened on one thread is invisible to every other
thread and is fully undone on exit, however scopes on different threads
interleave; and tasks the worker pool runs for a caller see that caller's
context — its budget, its backend, its tracker.
"""

from __future__ import annotations

import importlib
import sys
import threading

import numpy as np
import pytest

from repro.core.backend import BACKENDS, resolve_backend
from repro.core.budget import MemoryBudget, resolve_memory_budget
from repro.core.context import ExecutionContext, current_context, use_context
from repro.core.errors import InvalidParameterError
from repro.emst import emst_gfk, emst_memogfk
from repro.hdbscan import hdbscan
from repro.parallel.pool import get_pool
from repro.parallel.scheduler import WorkDepthTracker, current_tracker

JOIN_SECONDS = 30


def _run_threads(*targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_SECONDS)
        assert not thread.is_alive()


def _observe_in_fresh_thread():
    seen = []
    _run_threads(lambda: seen.append(current_context()))
    return seen[0]


class TestThreadIsolation:
    def test_default_is_unchanged_after_interleaved_scopes(self):
        default = current_context()
        first_open = threading.Event()
        second_open = threading.Event()
        first_closed = threading.Event()

        def first():
            with use_context(backend="numpy-f32", memory_budget="1M"):
                first_open.set()
                second_open.wait(JOIN_SECONDS)
            first_closed.set()

        def second():
            # Opens after the first scope and closes after it: the order in
            # which save-and-restore globals leak the first scope's values.
            first_open.wait(JOIN_SECONDS)
            with use_context(backend="numpy"):
                second_open.set()
                first_closed.wait(JOIN_SECONDS)

        _run_threads(first, second)
        assert current_context() == default
        assert _observe_in_fresh_thread() == default
        assert resolve_backend(None) is default.backend

    def test_bystander_sees_only_the_defaults(self):
        default = current_context()
        scope_open = threading.Event()
        observed = threading.Event()
        seen = {}

        def owner():
            with use_context(
                backend="numpy-f32",
                memory_budget="1M",
                max_retries=0,
                task_timeout=5.0,
                tracker=WorkDepthTracker(),
            ):
                scope_open.set()
                observed.wait(JOIN_SECONDS)

        def bystander():
            scope_open.wait(JOIN_SECONDS)
            seen["context"] = current_context()
            seen["backend"] = resolve_backend(None)
            seen["budget"] = resolve_memory_budget(None)
            seen["tracker"] = current_tracker()
            observed.set()

        _run_threads(owner, bystander)
        assert seen["context"] == default
        assert seen["backend"] is default.backend
        assert seen["budget"] is default.memory_budget
        assert seen["tracker"].work == 0.0
        seen["tracker"].add(5.0)  # the no-op tracker discards charges
        assert seen["tracker"].work == 0.0


class TestScopes:
    def test_fields_override_and_none_keeps(self):
        tracker = WorkDepthTracker()
        with use_context(backend="numpy-f32", tracker=tracker) as outer:
            assert outer.backend is BACKENDS["numpy-f32"]
            with use_context(memory_budget="2M", max_retries=0) as inner:
                assert inner.backend is BACKENDS["numpy-f32"]
                assert inner.tracker is tracker
                assert inner.memory_budget.total_bytes == 2 << 20
                assert inner.max_retries == 0
                assert current_tracker() is tracker
            assert current_context() is outer
            with use_context() as same:
                assert same is outer

    def test_exit_restores_after_an_exception(self):
        before = current_context()
        with pytest.raises(RuntimeError):
            with use_context(backend="numpy-f32"):
                raise RuntimeError("boom")
        assert current_context() is before

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"task_timeout": 0}, "task_timeout"),
            ({"backend": "cuda"}, "available backends"),
            ({"memory_budget": "12X"}, "memory size"),
        ],
    )
    def test_invalid_overrides_fail_and_leave_the_context(self, overrides, match):
        before = current_context()
        with pytest.raises(InvalidParameterError, match=match):
            with use_context(**overrides):
                pass
        assert current_context() is before

    def test_context_is_frozen(self):
        context = current_context()
        assert isinstance(context, ExecutionContext)
        with pytest.raises(AttributeError):
            context.max_retries = 7


class TestPoolPropagation:
    def test_worker_charges_are_recorded(self):
        tracker = WorkDepthTracker()
        with use_context(tracker=tracker):
            get_pool(2).map(lambda _: current_tracker().add(1.0), range(64))
        assert tracker.work == 64.0

    def test_concurrent_charges_lose_no_update(self):
        """More workers than cores, switching often: every charge lands."""
        tracker = WorkDepthTracker()

        def charge(_):
            for _ in range(2000):
                current_tracker().add(1.0, 1.0, phase="stress")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_context(tracker=tracker):
                with tracker.parallel("stress"):
                    get_pool(8).map(charge, range(64))
        finally:
            sys.setswitchinterval(interval)
        assert tracker.work == 64 * 2000
        assert tracker.phase_work == {"stress": 64 * 2000}
        assert tracker.depth == 1.0

    def test_submitter_budget_is_the_task_budget(self):
        with use_context(memory_budget="1M") as context:
            seen = get_pool(2).map(
                lambda _: current_context().memory_budget, range(16)
            )
        assert all(budget is context.memory_budget for budget in seen)
        # Workers keep nothing once the map returns.
        after = get_pool(2).map(lambda _: current_context(), range(16))
        assert all(seen_context == current_context() for seen_context in after)

    def test_concurrent_submitters_keep_their_own_context(self):
        results = {}

        def submit(backend, budget):
            def run():
                with use_context(backend=backend, memory_budget=budget):
                    results[backend] = get_pool(2).map(
                        lambda _: (
                            current_context().backend.name,
                            current_context().memory_budget.total_bytes,
                        ),
                        range(48),
                    )

            return run

        _run_threads(
            submit("numpy", MemoryBudget("4M")),
            submit("numpy-f32", MemoryBudget("1M")),
        )
        assert set(results["numpy"]) == {("numpy", 4 << 20)}
        assert set(results["numpy-f32"]) == {("numpy-f32", 1 << 20)}


@pytest.fixture()
def sharded(monkeypatch):
    """Lower the shard thresholds so a small run really uses the pool."""
    monkeypatch.setattr(importlib.import_module("repro.parallel.pool"), "DEFAULT_CHUNK", 64)
    monkeypatch.setattr(importlib.import_module("repro.mst.kruskal"), "_SORT_CHUNK", 32)
    monkeypatch.setattr(
        importlib.import_module("repro.spatial.knn"), "_CHUNK_BUDGET_BYTES", 1 << 12
    )
    monkeypatch.setattr(
        importlib.import_module("repro.wspd.bccp"), "_LARGE_PAIR_ELEMENTS", 256
    )


def _charged(function, *args, **kwargs):
    tracker = WorkDepthTracker()
    with use_context(tracker=tracker):
        function(*args, **kwargs)
    return tracker.work, tracker.depth


class TestTrackerAcrossThreadCounts:
    """Work and depth are bit-equal at every ``num_threads``."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(11)
        return np.vstack(
            [rng.normal(0.0, 0.05, (150, 2)), rng.uniform(-1.0, 1.0, (150, 2))]
        )

    @pytest.mark.parametrize("driver", [emst_memogfk, emst_gfk], ids=["memogfk", "gfk"])
    def test_emst(self, points, sharded, driver):
        charges = [_charged(driver, points, num_threads=t) for t in (1, 2, 4)]
        assert charges[0][0] > 0
        assert charges[1] == charges[0] and charges[2] == charges[0]

    def test_hdbscan(self, points, sharded):
        charges = [
            _charged(hdbscan, points, min_pts=5, num_threads=t) for t in (1, 2, 4)
        ]
        assert charges[0][0] > 0
        assert charges[1] == charges[0] and charges[2] == charges[0]
