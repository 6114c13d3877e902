"""Engine-wide memory budget: identity gates plus out-of-core completion.

The memory budget (:mod:`repro.core.budget`) replaces the kernels' hard-coded
tile constants with one bytes ceiling and turns on spill-to-disk for the
growable buffers.  This driver gates its two contracts:

* **Identity gate** (every scale) — EMST edges/weights and HDBSCAN* labels
  under budgets from comfortable (``256M``) down to far below any tile floor
  (``1`` byte) must be **byte-identical** to the unbudgeted engine.  The
  budget may only change tile/chunk sizes, never results.
* **Out-of-core gate** (full scale) — EMST and HDBSCAN* at the headline
  ``n = 10^7`` must *complete* with the points memory-mapped from disk and
  the engine capped at ``512M``, and the run's resident-set growth must stay
  under ``budget + fixed overhead allowance``.  At smoke scale
  (``REPRO_BENCH_SCALE < 1``) the run still executes end to end — memmapped
  input, bounded budget, spill threshold forced low so the spill path is
  exercised — but the RSS ceiling is only recorded, not asserted, since a
  tiny run's RSS is dominated by the interpreter.

Every record in the JSON artifact (``REPRO_BENCH_JSON``, default
``BENCH_memory_budget.json``) carries wall-clock times, the budget's own
planned peak (:attr:`~repro.core.budget.MemoryBudget.peak_bytes`), spill
counters, and the measured process peak RSS
(:func:`repro.bench.harness.peak_rss_bytes`).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import memory_snapshot, peak_rss_bytes
from repro.core.budget import MemoryBudget, parse_memory_size
from repro.core.points import open_memmap_points
from repro.emst.api import emst
from repro.hdbscan.api import hdbscan

from _common import scaled

#: Budgets the identity gate sweeps: comfortable, tight, below every default
#: tile constant, and degenerate (clamps at the tile floors everywhere).
BUDGET_AXIS = ("256M", "32M", "4M", 1)

#: Scale of the identity-gate records (each is fitted once per budget of
#: ``BUDGET_AXIS``, so this stays moderate).
IDENTITY_N = 4_000

#: Headline scale of the out-of-core gate (the ISSUE's n = 10^7 target).
OUT_OF_CORE_N = 10_000_000

#: The engine's bytes ceiling for the out-of-core run.
OUT_OF_CORE_BUDGET = "512M"

#: Fixed allowance on top of the budget for everything the budget does not
#: govern: the interpreter and NumPy, transient BLAS workspaces, and the page
#: cache the unlinked spill memmaps ride on (the kernel counts hot mapped
#: pages toward RSS even though it can drop them under pressure).
RSS_ALLOWANCE_BYTES = parse_memory_size("1G")

_FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0

_RESULTS: dict = {}


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    machine = _RESULTS.setdefault("machine", {})
    machine["scale"] = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    machine.update(memory_snapshot())
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_memory_budget.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _budget_spec(budget) -> str:
    return MemoryBudget(budget).spec() if budget is not None else "unbounded"


def test_identity_across_budgets(benchmark):
    """EMST and HDBSCAN* results are byte-identical at every budget."""
    n = scaled(IDENTITY_N)
    points = np.random.default_rng(7).random((n, 3))
    times: dict = {}
    runs: dict = {}

    def run_all():
        for budget in (None,) + BUDGET_AXIS:
            start = time.perf_counter()
            tree = emst(points, method="memogfk", memory_budget=budget)
            clustering = hdbscan(points, min_pts=10, memory_budget=budget)
            times[_budget_spec(budget)] = time.perf_counter() - start
            runs[_budget_spec(budget)] = (tree, clustering)
        return times

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    ref_tree, ref_clustering = runs["unbounded"]
    ref_edges = ref_tree.edges.as_arrays()
    ref_labels = ref_clustering.eom_labels()
    for budget in BUDGET_AXIS:
        spec = _budget_spec(budget)
        tree, clustering = runs[spec]
        for reference, candidate in zip(ref_edges, tree.edges.as_arrays()):
            assert np.array_equal(reference, candidate), (
                f"EMST diverged under memory_budget={spec}"
            )
        assert np.array_equal(
            ref_clustering.core_distances, clustering.core_distances
        ), f"core distances diverged under memory_budget={spec}"
        assert np.array_equal(ref_labels, clustering.eom_labels()), (
            f"HDBSCAN* labels diverged under memory_budget={spec}"
        )

    for spec, seconds in times.items():
        print(f"[memory-budget] identity n={n} budget={spec}: {seconds:.3f}s")
    _record(
        "identity",
        {
            "n": n,
            "budgets": {spec: {"seconds": seconds} for spec, seconds in times.items()},
            "byte_identical": True,
        },
    )


def test_out_of_core_completion(benchmark):
    """EMST + HDBSCAN* at n = 10^7 complete under a fixed 512M engine budget.

    The points live in a ``.npy`` file and enter the engine as a read-only
    memory map (never copied into budgeted RAM); the edge buffers spill to
    unlinked temporary-file memmaps past the budget's threshold.  At full
    scale the resident-set growth of the measured region must stay under
    ``budget + RSS_ALLOWANCE_BYTES``.
    """
    n = scaled(OUT_OF_CORE_N)
    budget_bytes = parse_memory_size(OUT_OF_CORE_BUDGET)
    # Cap the spill threshold at one edge-endpoint column so smoke-scale runs
    # exercise the spill path too, instead of only at 10^7.
    budget = MemoryBudget(
        OUT_OF_CORE_BUDGET,
        spill_threshold=max(min(budget_bytes // 8, n * 8), 1 << 16),
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as tmp:
        npy_path = Path(tmp) / "points.npy"
        # Stream the points to disk in slabs so the generator itself never
        # holds the full array (the whole point of the out-of-core run).
        writer = np.lib.format.open_memmap(
            npy_path, mode="w+", dtype=np.float64, shape=(n, 2)
        )
        rng = np.random.default_rng(11)
        slab = 1 << 20
        for start in range(0, n, slab):
            stop = min(start + slab, n)
            writer[start:stop] = rng.random((stop - start, 2))
        writer.flush()
        del writer

        points = open_memmap_points(npy_path)
        rss_before = peak_rss_bytes()
        times: dict = {}
        results: dict = {}

        def run_pipelines():
            start = time.perf_counter()
            results["emst"] = emst(points, method="memogfk", memory_budget=budget)
            times["emst"] = time.perf_counter() - start
            start = time.perf_counter()
            results["hdbscan"] = hdbscan(
                points,
                min_pts=10,
                method="memogfk",
                compute_dendrogram=False,
                memory_budget=budget,
            )
            times["hdbscan"] = time.perf_counter() - start
            return times

        benchmark.pedantic(run_pipelines, rounds=1, iterations=1)

        assert results["emst"].num_edges == n - 1
        assert results["hdbscan"].mst.num_edges == n - 1

        rss_after = peak_rss_bytes()
        rss_delta = (
            rss_after - rss_before
            if rss_before is not None and rss_after is not None
            else None
        )
        ceiling = budget_bytes + RSS_ALLOWANCE_BYTES
        for stage, seconds in times.items():
            print(f"[memory-budget] out-of-core n={n} {stage}: {seconds:.3f}s")
        print(
            f"[memory-budget] rss_delta={rss_delta} ceiling={ceiling} "
            f"planned_peak={budget.peak_bytes} spilled={budget.spilled_buffers}"
        )
        _record(
            "out_of_core",
            {
                "n": n,
                "budget": budget.spec(),
                "budget_bytes": budget_bytes,
                "rss_allowance_bytes": RSS_ALLOWANCE_BYTES,
                "times": times,
                "emst_total_weight": results["emst"].total_weight,
                "peak_rss_before_bytes": rss_before,
                "peak_rss_after_bytes": rss_after,
                "rss_delta_bytes": rss_delta,
                "budget_peak_bytes": int(budget.peak_bytes),
                "spilled_buffers": int(budget.spilled_buffers),
                "spilled_bytes": int(budget.spilled_bytes),
                "gate_active": bool(_FULL_SCALE and rss_delta is not None),
            },
        )
        if _FULL_SCALE and rss_delta is not None:
            assert rss_delta <= ceiling, (
                f"out-of-core RSS growth {rss_delta} exceeds the "
                f"{budget.spec()} budget + {RSS_ALLOWANCE_BYTES} allowance"
            )
