"""EMST-Naive: BCCP edge of every WSPD pair, then one MST pass.

This is the method of Callahan and Kosaraju that Section 3.1.2 describes as
the starting point: build a WSPD, connect the bichromatic closest pair of
every well-separated pair with an edge weighted by its distance, and compute
an MST of the resulting O(n)-edge graph.  Every BCCP is computed, whether or
not the MST will ever need it — the inefficiency GFK/MemoGFK remove.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal
from repro.parallel.scheduler import current_tracker
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.wspd import compute_wspd_ids


def emst_naive(
    points,
    *,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact metric MST via "all BCCPs of the WSPD, then Kruskal".

    Parameters
    ----------
    points:
        Input point array of shape ``(n, d)``.
    num_threads:
        Accepted for API compatibility.  All BCCPs are evaluated by one
        size-class-batched array kernel call, which outruns the former
        per-pair thread pool, so the value is unused.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "naive")

    timings = {}
    start = time.perf_counter()
    tree = KDTree(data, metric=metric)
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    pair_a, pair_b = compute_wspd_ids(tree, separation="geometric")
    timings["wspd"] = time.perf_counter() - start

    start = time.perf_counter()
    cache = BCCPCache(tree)
    tracker = current_tracker()
    with tracker.parallel("naive-bccp"):
        point_a, point_b, weights = cache.get_batch(pair_a, pair_b)
    timings["bccp"] = time.perf_counter() - start

    start = time.perf_counter()
    tree_edges = kruskal((point_a, point_b, weights), n)
    timings["kruskal"] = time.perf_counter() - start

    stats = {
        "wspd_pairs": int(pair_a.size),
        "pairs_materialized": int(pair_a.size),
        "bccp_calls": cache.num_bccp_calls,
        "distance_evaluations": cache.num_distance_evaluations,
    }
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(tree_edges, n, "naive", stats=stats)
