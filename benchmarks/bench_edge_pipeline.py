"""Array-native edge pipeline: the BCCP phase and the dendrogram build.

This driver measures the two hot stages downstream of the spatial engine:

* the **BCCP phase** of GFK/MemoGFK — the full WSPD pair set of a 20k-point
  kd-tree evaluated through the batched size-class kernel
  (:func:`repro.wspd.bccp.bccp_batch` via the array-backed
  :class:`~repro.wspd.bccp.BCCPCache`); its time is recorded, and the
  winners of up to 500 sampled pairs must equal an inline exact brute
  force over the two nodes' points — on the points and on a copy shifted
  by ``1e6``, where the expansion-scored argmin would pick wrong winners;
* the **dendrogram build** — the array union-find merge sweep of
  :func:`repro.dendrogram.sequential.dendrogram_sequential` against the
  historical per-edge dict-and-``add_internal`` loop (reproduced here
  verbatim as the reference), with an identical linkage matrix and a >= 2x
  speedup at the headline scale.

Results are also written as JSON (see ``REPRO_BENCH_JSON``) so the CI
workflow can archive them.

Run with ``pytest benchmarks/bench_edge_pipeline.py -s``; set
``REPRO_BENCH_SCALE`` to grow or shrink the dataset sizes (the speedup
assertion is enforced at scale >= 1 only, since tiny smoke runs are
dominated by constant overheads).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.bench.harness import memory_snapshot
from repro.dendrogram import dendrogram_sequential
from repro.dendrogram.sequential import _ordered_children, tree_vertex_distances
from repro.dendrogram.structure import Dendrogram
from repro.emst import emst_gfk, emst_memogfk
from repro.parallel.unionfind import UnionFind
from repro.spatial import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.wspd import compute_wspd_ids

from _common import scaled

#: Headline scale of the acceptance criterion.
HEADLINE_N = 20_000

_RESULTS: dict = {}


def _at_full_scale() -> bool:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    _RESULTS.setdefault("machine", {}).update(memory_snapshot())
    path = os.environ.get("REPRO_BENCH_JSON", "bench_edge_pipeline.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def dendrogram_sequential_reference(edge_list, num_points, start=0):
    """The PR-1 per-edge construction: dict bindings + one add_internal per edge."""
    vertex_distance = tree_vertex_distances(edge_list, num_points, start)
    dendrogram = Dendrogram(num_points)
    order = sorted(range(len(edge_list)), key=lambda index: edge_list[index][2])
    union_find = UnionFind(num_points)
    cluster_node = {}
    last_node = -1
    for index in order:
        u, v, weight = edge_list[index]
        root_u = union_find.find(u)
        root_v = union_find.find(v)
        node_u = cluster_node.get(root_u, root_u)
        node_v = cluster_node.get(root_v, root_v)
        left, right = _ordered_children(node_u, node_v, u, v, vertex_distance)
        new_node = dendrogram.add_internal(left, right, weight, (u, v))
        union_find.union(u, v)
        cluster_node[union_find.find(u)] = new_node
        last_node = new_node
    dendrogram.set_root(last_node)
    return dendrogram


#: WSPD pairs re-checked against the inline brute-force BCCP.
IDENTITY_SAMPLE = 500

#: Translation of the second checked copy: large enough that the BLAS
#: expansion's cancellation error exceeds the point spacing.
SHIFT = 1e6


def _wspd_bccp(points):
    """The tree, its WSPD pairs and their batched winners (timed)."""
    tree = KDTree(points, leaf_size=1)
    pair_a, pair_b = compute_wspd_ids(tree)
    start = time.perf_counter()
    winners = BCCPCache(tree).get_batch(pair_a, pair_b)
    return tree, pair_a, pair_b, winners, time.perf_counter() - start


def _assert_exact_winners(tree, pair_a, pair_b, winners):
    """Sampled pairs: the winner is the row-major first candidate whose
    exact weight is the pair's exact minimum, with that weight."""
    flat = tree.flat
    sample = np.random.default_rng(1).choice(
        pair_a.size, size=min(IDENTITY_SAMPLE, pair_a.size), replace=False
    )
    for i in sample.tolist():
        ia = flat.point_indices(pair_a[i])
        ib = flat.point_indices(pair_b[i])
        u, v = np.repeat(ia, ib.size), np.tile(ib, ia.size)
        exact = flat.metric.exact_edge_weights(flat.points, u, v)
        first = int(np.flatnonzero(exact == exact.min())[0])
        got = tuple(column[i] for column in winners)
        assert (u[first], v[first], exact[first]) == got, (
            "batched BCCP kernel diverged from the exact brute force"
        )
    return sample.size


def test_batched_bccp_phase(benchmark):
    """Batched BCCP phase time, and its winners equal brute force."""
    n = scaled(HEADLINE_N)
    points = np.random.default_rng(0).random((n, 2))
    tree, pair_a, pair_b, winners, batched = benchmark.pedantic(
        _wspd_bccp, args=(points,), rounds=1, iterations=1
    )
    checked = _assert_exact_winners(tree, pair_a, pair_b, winners)
    shifted = _wspd_bccp(points + SHIFT)
    checked_shifted = _assert_exact_winners(*shifted[:4])

    print(
        f"\n[edge-pipeline] BCCP phase n={n} pairs={pair_a.size}: "
        f"batched {batched:.3f}s; {checked} sampled pairs equal brute force "
        f"(and {checked_shifted} of the copy shifted by {SHIFT:g})"
    )
    _record(
        "bccp_phase",
        {"n": n, "pairs": int(pair_a.size), "batched_seconds": batched},
    )


def test_dendrogram_build_speedup(benchmark):
    """Array merge sweep >= 2x over the per-edge reference, identical linkage."""
    n = scaled(HEADLINE_N)
    points = np.random.default_rng(1).random((n, 2))
    mst = emst_memogfk(points)
    edge_list = [(int(u), int(v), float(w)) for u, v, w in mst.edges]

    def measure():
        start = time.perf_counter()
        reference = dendrogram_sequential_reference(edge_list, n)
        per_edge = time.perf_counter() - start
        start = time.perf_counter()
        fast = dendrogram_sequential(mst.edges, n)
        array_native = time.perf_counter() - start
        return reference, fast, per_edge, array_native

    reference, fast, per_edge, array_native = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    assert np.array_equal(
        reference.to_linkage_matrix(), fast.to_linkage_matrix()
    ), "array-native dendrogram diverged from the per-edge reference"
    assert reference.root == fast.root

    speedup = per_edge / array_native
    print(
        f"\n[edge-pipeline] dendrogram build n={n}: "
        f"per-edge {per_edge:.3f}s -> array {array_native:.3f}s ({speedup:.1f}x)"
    )
    _record(
        "dendrogram_build",
        {
            "n": n,
            "per_edge_seconds": per_edge,
            "array_seconds": array_native,
            "speedup": speedup,
        },
    )
    if _at_full_scale():
        assert speedup >= 2.0


def test_gfk_memogfk_msts_agree(benchmark):
    """End-to-end cross-check: both round drivers produce the same MST."""
    n = scaled(HEADLINE_N) // 4
    points = np.random.default_rng(2).random((n, 2))

    def measure():
        start = time.perf_counter()
        gfk = emst_gfk(points)
        gfk_seconds = time.perf_counter() - start
        start = time.perf_counter()
        memo = emst_memogfk(points)
        memo_seconds = time.perf_counter() - start
        return gfk, memo, gfk_seconds, memo_seconds

    gfk, memo, gfk_seconds, memo_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    def canonical(result):
        endpoints, weights = result.edge_arrays()
        lo = np.minimum(endpoints[:, 0], endpoints[:, 1])
        hi = np.maximum(endpoints[:, 0], endpoints[:, 1])
        order = np.lexsort((hi, lo, weights))
        return lo[order], hi[order], weights[order]

    for left, right in zip(canonical(gfk), canonical(memo)):
        assert np.array_equal(left, right)
    print(
        f"\n[edge-pipeline] end-to-end n={n}: "
        f"GFK {gfk_seconds:.3f}s, MemoGFK {memo_seconds:.3f}s, MSTs identical"
    )
    _record(
        "end_to_end",
        {"n": n, "gfk_seconds": gfk_seconds, "memogfk_seconds": memo_seconds},
    )
