"""EMST-GFK: parallel GeoFilterKruskal over a materialized WSPD (Algorithm 2).

The algorithm proceeds in rounds.  In each round it

1. splits the remaining WSPD pairs into the "cheap" pairs ``S_l`` with
   cardinality ``|A| + |B| <= beta`` and the rest ``S_u``;
2. computes ``rho_hi``, the minimum bounding-sphere distance of the pairs in
   ``S_u`` (a lower bound on any edge those pairs can produce);
3. computes the BCCP of every cheap pair and keeps the ones whose edge weight
   is at most ``rho_hi`` (set ``S_l1``);
4. feeds those edges to Kruskal with a shared union-find;
5. filters out every remaining pair whose two nodes are already fully
   connected, and doubles ``beta``.

The pair set lives as two parallel node-id arrays over the flat tree engine,
so the cardinality split, the ``rho_hi`` reduction and the connectivity filter
of step 5 are all single vectorized passes: connectivity is snapshotted once
per round as per-node component ranges (one union-find root sweep plus one
bottom-up tree reduction), and a pair is fully connected exactly when both
nodes are root-uniform with the same root.  Step 3 submits the whole cheap
frontier to the batched BCCP kernel through the array-backed
:class:`~repro.wspd.bccp.BCCPCache` (one vectorized hit/miss partition, one
size-class-grouped kernel call), so BCCP results are cached across rounds and
pairs filtered in step 5 may never have their BCCP computed at all — that is
the saving over EMST-Naive.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple

import numpy as np

from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal_batch_arrays
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.separation import node_distances
from repro.wspd.wspd import compute_wspd_ids, frontier_gaps


def connectivity_snapshot(
    flat: FlatKDTree, union_find: UnionFind
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node (min, max) union-find root over every tree node.

    One vectorized root sweep plus one bottom-up tree reduction replaces the
    per-pair point loops of the ``f_diff`` filter: a node's points all lie in
    one component iff its min and max root coincide.
    """
    roots = union_find.roots()
    return flat.node_value_ranges(roots)


def pairs_fully_connected(
    root_min: np.ndarray, root_max: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``f_diff`` of Algorithm 2 for whole pair arrays at once.

    True where every point of ``a`` and ``b`` lies in one component; such a
    pair can never again contribute an MST edge, so it is discarded without
    computing its BCCP.
    """
    return (
        (root_min[a] == root_max[a])
        & (root_min[b] == root_max[b])
        & (root_min[a] == root_min[b])
    )


def emst_gfk(
    points,
    *,
    beta_growth: str = "double",
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact metric MST via parallel GeoFilterKruskal (Algorithm 2).

    Parameters
    ----------
    points:
        Input point array of shape ``(n, d)``.
    beta_growth:
        ``"double"`` for the paper's exponentially increasing batch threshold
        (needed for the polylogarithmic round bound) or ``"increment"`` for
        the sequential Chatterjee et al. schedule (used by the beta ablation
        benchmark).
    num_threads:
        Number of worker threads for the batched stages: the WSPD center-gap
        and separation sweeps, each round's BCCP size-class kernel, the
        center gaps behind ``rho_hi`` and the Kruskal weight sort all shard
        onto the persistent worker pool (:mod:`repro.parallel.pool`).
        Sharding uses fixed chunk boundaries and shard-ordered reductions, so
        the MST is byte-identical at any thread count; ``None``/``0``/``1``
        run inline.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean);
        it rides the kd-tree into every separation mask and BCCP kernel.
    """
    if beta_growth not in ("double", "increment"):
        raise ValueError("beta_growth must be 'double' or 'increment'")
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "gfk")

    timings = {}
    start = time.perf_counter()
    tree = KDTree(data, metric=metric)
    timings["build-tree"] = time.perf_counter() - start
    flat = tree.flat

    start = time.perf_counter()
    pair_a, pair_b = compute_wspd_ids(
        tree, separation="geometric", num_threads=num_threads
    )
    timings["wspd"] = time.perf_counter() - start
    total_pairs = int(pair_a.size)

    sizes = flat.node_sizes
    cardinality = sizes[pair_a] + sizes[pair_b]

    cache = BCCPCache(tree, num_threads=num_threads)
    union_find = UnionFind(n)
    output = EdgeList()
    tracker = current_tracker()

    start = time.perf_counter()
    beta = 2
    rounds = 0
    try:
        while len(output) < n - 1 and pair_a.size:
            rounds += 1
            cheap = cardinality <= beta
            tracker.add(
                float(pair_a.size), math.log2(pair_a.size + 1), phase="gfk-split"
            )
            exp_a, exp_b = pair_a[~cheap], pair_b[~cheap]
            if exp_a.size:
                gap = frontier_gaps(flat, exp_a, exp_b, num_threads)
                rho_hi = float(node_distances(flat, exp_a, exp_b, gap).min())
                tracker.add(float(exp_a.size), math.log2(exp_a.size + 1), phase="gfk-split")
            else:
                rho_hi = math.inf

            cheap_a, cheap_b = pair_a[cheap], pair_b[cheap]
            with tracker.parallel("gfk-bccp"):
                point_a, point_b, weight = cache.get_batch(cheap_a, cheap_b)
            light = weight <= rho_hi
            heavy_mask = ~light

            kruskal_batch_arrays(
                point_a[light],
                point_b[light],
                weight[light],
                output,
                union_find,
                num_threads=num_threads,
            )

            remaining_a = np.concatenate([cheap_a[heavy_mask], exp_a])
            remaining_b = np.concatenate([cheap_b[heavy_mask], exp_b])
            if remaining_a.size:
                root_min, root_max = connectivity_snapshot(flat, union_find)
                alive = ~pairs_fully_connected(root_min, root_max, remaining_a, remaining_b)
                pair_a = remaining_a[alive]
                pair_b = remaining_b[alive]
            else:
                pair_a = remaining_a
                pair_b = remaining_b
            cardinality = sizes[pair_a] + sizes[pair_b]
            tracker.add(
                float(remaining_a.size), math.log2(remaining_a.size + 1), phase="gfk-filter"
            )

            if beta_growth == "double":
                beta *= 2
            else:
                beta += 1
    finally:
        # Under a bounded budget the store columns may be spill-file
        # memmaps; closing here unmaps them even if a round dies.  The
        # evaluation counters survive for the stats below.
        cache.close()
    timings["kruskal"] = time.perf_counter() - start

    stats = {
        "wspd_pairs": total_pairs,
        "pairs_materialized": total_pairs,
        "bccp_calls": cache.num_bccp_calls,
        "distance_evaluations": cache.num_distance_evaluations,
        "rounds": rounds,
    }
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(output, n, "gfk", stats=stats)
