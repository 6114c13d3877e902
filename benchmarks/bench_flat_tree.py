"""Flat kd-tree engine: build plus all-points kNN against brute force.

This driver records the speedup of the array-native
:class:`~repro.spatial.flat.FlatKDTree` (structure-of-arrays storage, batched
frontier traversals) on the all-points k-NN — the core-distance workload of
HDBSCAN* — against chunked brute force
(:func:`~repro.spatial.knn.knn_bruteforce`), the fastest other exact k-NN in
the repository.  At the serving configuration (20k uniform 2-D points, k=10,
leaf size 8 < k) tree build plus query must be at least 2x faster.  Leaves
smaller than k are the case in which a traversal whose pruning bound never
becomes finite degrades to brute force, so this gate guards the k-point seed
subtree.

Run with ``pytest benchmarks/bench_flat_tree.py -s`` to see the result; set
``REPRO_BENCH_SCALE`` to grow or shrink the dataset size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.spatial import KDTree, knn
from repro.spatial.knn import knn_bruteforce

from _common import scaled


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
