"""Tests for parallel_map and the work-depth tracker."""

import numpy as np
import pytest

from repro.core.context import use_context
from repro.parallel import (
    UnionFind,
    WorkDepthTracker,
    parallel_map,
    simulated_speedups,
    simulated_time,
)


class TestParallelMap:
    def test_sequential_path(self):
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_threaded_path_same_result(self):
        items = list(range(50))
        assert parallel_map(lambda x: x * x, items, num_threads=4) == [
            x * x for x in items
        ]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], num_threads=4) == []


class TestTrackerAndBrent:
    def test_sequential_charging(self):
        tracker = WorkDepthTracker()
        tracker.add(10, 2)
        tracker.add(5, 3)
        assert tracker.work == 15
        assert tracker.depth == 5

    def test_parallel_scope_takes_max_depth(self):
        tracker = WorkDepthTracker()
        with tracker.parallel():
            with tracker.task():
                tracker.add(10, 4)
            with tracker.task():
                tracker.add(20, 7)
        assert tracker.work == 30
        assert tracker.depth == 7

    def test_nested_scopes(self):
        tracker = WorkDepthTracker()
        with tracker.sequential():
            with tracker.parallel():
                with tracker.task():
                    tracker.add(10, 5)
                with tracker.task():
                    tracker.add(10, 5)
            tracker.add(1, 1)
        assert tracker.work == 21
        assert tracker.depth == 6

    def test_phase_accounting(self):
        tracker = WorkDepthTracker()
        tracker.add(10, 1, phase="wspd")
        tracker.add(3, 1, phase="wspd")
        tracker.add(2, 1, phase="kruskal")
        assert tracker.phase_work["wspd"] == 13
        assert tracker.phase_work["kruskal"] == 2

    def test_ambient_tracker_collects_primitive_costs(self):
        # The union-find root sweep charges one unit of work per element.
        tracker = WorkDepthTracker()
        with use_context(tracker=tracker):
            UnionFind(100).roots()
        assert tracker.work >= 100

    def test_no_tracker_is_silent(self):
        # Charging with no ambient tracker must not raise or accumulate.
        UnionFind(3).roots()

    def test_reset(self):
        tracker = WorkDepthTracker()
        tracker.add(5, 5)
        tracker.reset()
        assert tracker.work == 0
        assert tracker.depth == 0

    def test_simulated_time_brent_bound(self):
        assert simulated_time(100, 10, 1) == pytest.approx(110)
        assert simulated_time(100, 10, 10) == pytest.approx(20)

    def test_simulated_time_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            simulated_time(10, 1, 0)

    def test_simulated_speedups_monotone(self):
        speedups = simulated_speedups(1_000_000, 100, [1, 2, 4, 8, 16])
        assert speedups[0] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_speedups_bounded_by_processor_count(self):
        speedups = simulated_speedups(1_000_000, 100, [1, 4, 16])
        assert speedups[1] <= 4.0 + 1e-9
        assert speedups[2] <= 16.0 + 1e-9

    def test_hyperthread_last_gives_extra_speedup(self):
        plain = simulated_speedups(1_000_000, 1, [1, 48])
        hyper = simulated_speedups(1_000_000, 1, [1, 48], hyperthread_last=True)
        assert hyper[-1] > plain[-1]
