"""Flat kd-tree engine: build and all-points kNN throughput.

This driver records the speedup of the array-native
:class:`~repro.spatial.flat.FlatKDTree` (structure-of-arrays storage, batched
frontier traversals) against two baselines on the all-points k-NN — the
core-distance workload of HDBSCAN*:

* the historical node-object tree preserved in :mod:`repro.spatial.legacy`
  (one Python object per node, per-query recursive traversal), on 20k
  uniform 2-D points, where the flat engine must be at least 2x faster end
  to end;
* chunked brute force (:func:`~repro.spatial.knn.knn_bruteforce`), the
  fastest other exact k-NN in the repository, at the serving configuration
  (20k uniform 2-D points, k=10, leaf size 8 < k), where tree build plus
  query must be at least 2x faster.  Leaves smaller than k are the case in
  which a traversal whose pruning bound never becomes finite degrades to
  brute force, so this gate guards the k-point seed subtree.

Run with ``pytest benchmarks/bench_flat_tree.py -s`` to see the table; set
``REPRO_BENCH_SCALE`` to grow or shrink the dataset sizes.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.spatial import KDTree, knn
from repro.spatial.knn import knn_bruteforce
from repro.spatial.legacy import LegacyKDTree, legacy_knn

from _common import scaled

#: (n, d, k, leaf_size) configurations; the first is the acceptance headline.
CONFIGS = [
    (20_000, 2, 10, 32),
    (5_000, 5, 10, 32),
]


def _measure(points: np.ndarray, k: int, leaf_size: int):
    start = time.perf_counter()
    flat_tree = KDTree(points, leaf_size=leaf_size)
    flat_build = time.perf_counter() - start
    start = time.perf_counter()
    _, flat_dists = knn(flat_tree, k)
    flat_query = time.perf_counter() - start

    start = time.perf_counter()
    legacy_tree = LegacyKDTree(points, leaf_size=leaf_size)
    legacy_build = time.perf_counter() - start
    start = time.perf_counter()
    _, legacy_dists = legacy_knn(legacy_tree, k)
    legacy_query = time.perf_counter() - start

    assert np.allclose(flat_dists, legacy_dists, rtol=1e-12, atol=0)
    return flat_build, flat_query, legacy_build, legacy_query


@pytest.mark.parametrize("n,d,k,leaf_size", CONFIGS)
def test_flat_tree_speedup(benchmark, n, d, k, leaf_size):
    """Flat engine must be >= 2x faster than the node-object path."""
    points = np.random.default_rng(0).random((scaled(n), d))
    flat_build, flat_query, legacy_build, legacy_query = benchmark.pedantic(
        _measure, args=(points, k, leaf_size), rounds=1, iterations=1
    )
    build_speedup = legacy_build / flat_build
    query_speedup = legacy_query / flat_query
    total_speedup = (legacy_build + legacy_query) / (flat_build + flat_query)
    print(
        f"\n[flat-tree] n={points.shape[0]} d={d} k={k} leaf={leaf_size}: "
        f"build {legacy_build:.3f}s -> {flat_build:.3f}s ({build_speedup:.1f}x), "
        f"all-points kNN {legacy_query:.3f}s -> {flat_query:.3f}s "
        f"({query_speedup:.1f}x), end-to-end {total_speedup:.1f}x"
    )
    assert total_speedup >= 2.0


#: (n, d, k, leaf_size) of the serving tree's all-points k-NN.
SERVING_CONFIG = (20_000, 2, 10, 8)


def test_kdtree_beats_bruteforce(benchmark):
    """kd-tree build + all-points k-NN must be >= 2x faster than brute force."""
    n, d, k, leaf_size = SERVING_CONFIG
    points = np.random.default_rng(0).random((scaled(n), d))

    def measure():
        start = time.perf_counter()
        _, tree_dists = knn(KDTree(points, leaf_size=leaf_size), k)
        tree_seconds = time.perf_counter() - start
        start = time.perf_counter()
        _, brute_dists = knn_bruteforce(points, k)
        brute_seconds = time.perf_counter() - start
        return tree_dists, tree_seconds, brute_dists, brute_seconds

    tree_dists, tree_seconds, brute_dists, brute_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    # Brute force's matrix expansion is ~1e-8 off on the zero self-distance.
    assert np.allclose(tree_dists, brute_dists, rtol=1e-9, atol=1e-7)
    speedup = brute_seconds / tree_seconds
    print(
        f"\n[kdtree-vs-brute] n={points.shape[0]} d={d} k={k} leaf={leaf_size}: "
        f"brute force {brute_seconds:.3f}s -> kd-tree build+query "
        f"{tree_seconds:.3f}s ({speedup:.1f}x)"
    )
    if float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0:
        assert speedup >= 2.0
