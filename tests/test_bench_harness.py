"""Tests for the shared benchmark harness."""

import numpy as np
import pytest

from repro.bench import (
    THREAD_COUNTS,
    format_scaling_series,
    format_table,
    measure,
    measured_scaling_curve,
    memory_snapshot,
    peak_rss_bytes,
    phase_breakdown,
    run_with_tracker,
    scaling_curve,
)
from repro.core.context import use_context
from repro.emst import emst_memogfk
from repro.emst.api import emst


class TestMeasure:
    def test_returns_result_and_time(self):
        result, elapsed = measure(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0.0

    def test_run_with_tracker_collects_work(self):
        points = np.random.default_rng(0).random((80, 2))
        result, tracker, elapsed = run_with_tracker(emst_memogfk, points)
        assert result.is_spanning_tree()
        assert tracker.work > 0
        assert tracker.depth > 0
        assert elapsed > 0


class TestScalingCurve:
    def test_speedups_monotone_and_bounded(self):
        points = np.random.default_rng(1).random((120, 2))
        curve = scaling_curve(emst_memogfk, points, thread_counts=(1, 2, 4, 8))
        speedups = curve["speedups"]
        assert speedups[0] == pytest.approx(1.0)
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] <= 8.0 + 1e-9

    def test_hyperthreaded_final_entry(self):
        points = np.random.default_rng(2).random((100, 2))
        curve = scaling_curve(emst_memogfk, points, thread_counts=(1, 48, 96))
        # The "96" entry models 48 physical cores with hyper-threading and
        # must not exceed 48 * 1.35 effective parallelism.
        assert curve["speedups"][-1] <= 48 * 1.35 + 1e-9

    def test_default_thread_counts_match_paper_figures(self):
        assert THREAD_COUNTS[0] == 1
        assert THREAD_COUNTS[-1] == 96  # 48 cores with hyper-threading


class TestMemoryKeys:
    def test_peak_rss_is_positive_and_monotone(self):
        first = peak_rss_bytes()
        assert first is None or first > 0
        # Force some growth, then re-read: the high-water mark never drops.
        ballast = np.ones(1 << 20)
        second = peak_rss_bytes()
        del ballast
        if first is not None:
            assert second >= first

    def test_memory_snapshot_reports_ambient_budget(self):
        snapshot = memory_snapshot()
        assert set(snapshot) == {
            "peak_rss_bytes",
            "memory_budget",
            "budget_peak_bytes",
        }
        assert snapshot["memory_budget"] == "unbounded"
        assert snapshot["budget_peak_bytes"] == 0
        with use_context(memory_budget="64M"):
            scoped = memory_snapshot()
        assert scoped["memory_budget"] == "64M"

    def test_scaling_curve_records_memory_keys(self):
        points = np.random.default_rng(3).random((100, 2))
        curve = scaling_curve(emst_memogfk, points, thread_counts=(1, 2))
        assert curve["memory_budget"] == "unbounded"
        assert curve["peak_rss_bytes"] is None or curve["peak_rss_bytes"] > 0

    def test_measured_scaling_curve_reports_budget_kwarg(self):
        points = np.random.default_rng(4).random((100, 2))
        curve = measured_scaling_curve(
            emst, points, thread_counts=(1, 2), memory_budget="32M"
        )
        assert curve["memory_budget"] == "32M"
        u0, v0, w0 = curve["results"][0].edges.as_arrays()
        u1, v1, w1 = curve["results"][1].edges.as_arrays()
        assert np.array_equal(u0, u1)
        assert np.array_equal(v0, v1)
        assert np.array_equal(w0, w1)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.0], ["b", 123456.0]], title="Demo"
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_number_formatting(self):
        text = format_table(["x"], [[0.000123], [12.5], [0]])
        assert "0.000123" in text
        assert "12.5" in text

    def test_format_scaling_series(self):
        text = format_scaling_series("demo", [1, 4, 96], [1.0, 3.5, 20.0])
        assert "demo" in text
        assert "48h" in text  # the final entry renders as hyper-threaded
        assert "3.50x" in text

    def test_phase_breakdown_extracts_time_keys(self):
        stats = {"time_wspd": 1.0, "time_kruskal": 2.0, "rounds": 3}
        breakdown = phase_breakdown(stats)
        assert breakdown == {"wspd": 1.0, "kruskal": 2.0}


class TestLatencyStats:
    def test_keys_and_percentiles(self):
        from repro.bench.harness import latency_stats

        # 100 samples: 1ms..100ms; nearest-rank p50 = 50ms, p99 = 99ms.
        stats = latency_stats([i / 1000 for i in range(1, 101)])
        assert stats["requests"] == 100
        assert stats["latency_p50_s"] == pytest.approx(0.050)
        assert stats["latency_p99_s"] == pytest.approx(0.099)
        assert stats["requests_per_second"] == pytest.approx(
            100 / stats["total_seconds"]
        )

    def test_single_sample(self):
        from repro.bench.harness import latency_stats

        stats = latency_stats([0.25])
        assert stats["latency_p50_s"] == 0.25
        assert stats["latency_p99_s"] == 0.25
        assert stats["requests_per_second"] == pytest.approx(4.0)

    def test_empty_rejected(self):
        from repro.bench.harness import latency_stats

        with pytest.raises(ValueError):
            latency_stats([])

    def test_timed_requests_round_trip(self):
        from repro.bench.harness import timed_requests

        responses, stats = timed_requests(lambda x: x * 2, [1, 2, 3])
        assert responses == [2, 4, 6]
        assert stats["requests"] == 3
        assert stats["latency_p99_s"] >= stats["latency_p50_s"] >= 0.0
