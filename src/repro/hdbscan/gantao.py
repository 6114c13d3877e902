"""HDBSCAN*-GanTao: the exact baseline of Section 3.2.1.

The algorithm parallelizes Gan & Tao's approach and makes it exact: core
distances are computed with ``minPts``-nearest-neighbour queries, a WSPD with
the *standard* (geometric) notion of well-separation is built, the BCCP* of
every pair (exact bichromatic closest pair under the mutual reachability
distance) provides one candidate edge per pair, and an MST is computed over
those edges.  As in the paper's implementation, the MST step reuses the
MemoGFK machinery (pairs are retrieved round by round rather than
materialized), so the only difference from HDBSCAN*-MemoGFK is the separation
predicate — which is exactly the comparison the paper's experiments isolate.

Every stage runs on the flat array engine: the kd-tree is built once as a
:class:`~repro.spatial.flat.FlatKDTree`, its ``cd_min`` / ``cd_max`` arrays
are annotated with one vectorized sweep, the MemoGFK window traversals
evaluate the separation and ρ-window tests over whole node frontiers at once,
and each round's surviving pairs are resolved by the batched BCCP* size-class
kernel through the array-backed cache (one call per round).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.memogfk import memogfk_mst
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.mst.edges import EdgeList
from repro.spatial.kdtree import KDTree


def hdbscan_mst_gantao(
    points,
    min_pts: int = 10,
    *,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact MST of the mutual reachability graph, Gan & Tao style.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    min_pts:
        HDBSCAN* ``minPts`` parameter.
    core_dists:
        Optional precomputed core distances (skips the k-NN step).
    num_threads:
        Worker threads for every batched stage — the core-distance k-NN
        blocks and the MemoGFK-engine traversal/BCCP*/Kruskal rounds all
        shard onto the persistent worker pool with deterministic chunking,
        so the MST is byte-identical at any thread count.
    metric:
        Distance metric the core distances and mutual reachability are taken
        under (name, Metric instance, or ``None`` for Euclidean).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "hdbscan-gantao")

    timings = {}
    start = time.perf_counter()
    if core_dists is None:
        core_dists = compute_core_distances(
            data, min(min_pts, n), num_threads=num_threads, metric=metric
        )
    timings["core-dist"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = KDTree(data, metric=metric)
    tree.annotate_core_distances(core_dists)
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    edges, stats = memogfk_mst(
        tree,
        separation="geometric",
        core_distances=core_dists,
        num_threads=num_threads,
    )
    timings["wspd+kruskal"] = time.perf_counter() - start

    stats.update({f"time_{name}": value for name, value in timings.items()})
    stats["min_pts"] = min_pts
    return EMSTResult(edges, n, "hdbscan-gantao", stats=stats)
