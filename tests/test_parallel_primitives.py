"""Tests for the parallel primitives and the work-depth tracker."""

import numpy as np
import pytest

from repro.core.context import use_context
from repro.parallel import (
    WorkDepthTracker,
    WriteMinCell,
    parallel_filter,
    parallel_map,
    parallel_max_index,
    parallel_min_index,
    parallel_split,
    prefix_sum,
    simulated_speedups,
    simulated_time,
    write_min,
)


class TestPrefixSum:
    def test_exclusive_prefix(self):
        prefix, total = prefix_sum([1, 2, 3, 4])
        assert list(prefix) == [0, 1, 3, 6]
        assert total == 10

    def test_empty_sequence(self):
        prefix, total = prefix_sum([])
        assert len(prefix) == 0
        assert total == 0

    def test_single_element(self):
        prefix, total = prefix_sum([7])
        assert list(prefix) == [0]
        assert total == 7

    def test_floats(self):
        prefix, total = prefix_sum([0.5, 0.25, 0.25])
        assert total == pytest.approx(1.0)
        assert prefix[2] == pytest.approx(0.75)

    def test_matches_numpy_cumsum(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=50)
        prefix, total = prefix_sum(values)
        assert total == values.sum()
        assert np.array_equal(prefix[1:], np.cumsum(values)[:-1])


class TestFilterAndSplit:
    def test_filter_keeps_matching(self):
        assert parallel_filter([1, 2, 3, 4, 5], lambda x: x % 2 == 0) == [2, 4]

    def test_filter_preserves_order(self):
        items = [5, 3, 8, 1, 9]
        assert parallel_filter(items, lambda x: x > 2) == [5, 3, 8, 9]

    def test_filter_empty(self):
        assert parallel_filter([], lambda x: True) == []

    def test_split_partitions(self):
        true_items, false_items = parallel_split(range(6), lambda x: x < 3)
        assert true_items == [0, 1, 2]
        assert false_items == [3, 4, 5]

    def test_split_all_true(self):
        true_items, false_items = parallel_split([1, 2], lambda x: True)
        assert true_items == [1, 2]
        assert false_items == []


class TestWriteMin:
    def test_cell_keeps_minimum(self):
        cell = WriteMinCell()
        cell.write(5.0, "a")
        cell.write(3.0, "b")
        cell.write(9.0, "c")
        assert cell.value == 3.0
        assert cell.payload == "b"

    def test_cell_write_returns_success(self):
        cell = WriteMinCell(10.0)
        assert cell.write(5.0)
        assert not cell.write(7.0)

    def test_array_write_min(self):
        cells = np.full(3, np.inf)
        assert write_min(cells, 1, 4.0)
        assert not write_min(cells, 1, 6.0)
        assert cells[1] == 4.0


class TestReductions:
    def test_min_index(self):
        assert parallel_min_index([5.0, 1.0, 3.0]) == 1

    def test_max_index(self):
        assert parallel_max_index([5.0, 1.0, 9.0, 3.0]) == 2

    def test_min_index_empty_raises(self):
        with pytest.raises(ValueError):
            parallel_min_index([])


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
        tracker = WorkDepthTracker()
        with use_context(tracker=tracker):
            prefix_sum(list(range(100)))
        assert tracker.work >= 100

    def test_no_tracker_is_silent(self):
        # Charging with no ambient tracker must not raise or accumulate.
        prefix_sum([1, 2, 3])

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
