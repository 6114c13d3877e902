"""Dual-tree-style Borůvka EMST baseline.

The paper compares its sequential running times against mlpack's Dual-Tree
Borůvka implementation (March et al., Table 3).  mlpack is not available in
this reproduction, so this module provides the stand-in: Borůvka's algorithm
where each round finds, for every component, its lightest outgoing edge using
kd-tree nearest-neighbour queries that prune subtrees entirely contained in
the query point's own component.

Each round is one batched traversal of the flat kd-tree for all points at
once, in the shape of :meth:`~repro.spatial.flat.FlatKDTree.query_knn`: a
frontier of (point, node) pairs is pruned against every point's current
nearest-foreign bound with array comparisons, leaf candidates are folded with
the metric's exact pair kernel, and the survivors are expanded.  The number
of components at least halves per round, so there are ``O(log n)`` rounds.
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
from repro.parallel.primitives import segment_ranges
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind
from repro.spatial.flat import FlatKDTree


def _fold(
    flat: FlatKDTree,
    labels: np.ndarray,
    pair_q: np.ndarray,
    pair_n: np.ndarray,
    best_d: np.ndarray,
    best_i: np.ndarray,
) -> None:
    """Fold the foreign points of (point, leaf) pairs into each point's best.

    The best is the lexicographically smallest ``(distance, index)``, so ties
    go to the smallest point index whatever order the leaves are folded in.
    """
    counts = flat.node_end[pair_n] - flat.node_start[pair_n]
    cand_q = np.repeat(pair_q, counts)
    cand_i = flat.perm[segment_ranges(flat.node_start[pair_n], counts)]
    keep = labels[cand_i] != labels[cand_q]
    cand_q = cand_q[keep]
    cand_i = cand_i[keep]
    cand_d = flat.metric.diff_norms(flat.points[cand_i] - flat.points[cand_q])
    keep = cand_d <= best_d[cand_q]
    if not keep.any():
        return
    cand_q, cand_i, cand_d = cand_q[keep], cand_i[keep], cand_d[keep]
    order = np.lexsort((cand_i, cand_d, cand_q))
    first = np.ones(order.size, dtype=bool)
    first[1:] = cand_q[order[1:]] != cand_q[order[:-1]]
    win = order[first]
    q, d, i = cand_q[win], cand_d[win], cand_i[win]
    better = (d < best_d[q]) | ((d == best_d[q]) & (i < best_i[q]))
    best_d[q[better]] = d[better]
    best_i[q[better]] = i[better]


def _nearest_foreign(
    flat: FlatKDTree, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every point's nearest neighbour in another component.

    Returns ``(distance, index)`` arrays.  A node is skipped for a point when
    it is pure in the point's own component (``flat.node_value_ranges``
    gives per-node label ranges) or when its box gap exceeds the point's
    current bound; gaps equal to the bound are kept, so an equidistant
    neighbour with a smaller index is still found.
    """
    n = flat.size
    points = flat.points
    left, right = flat.left_child, flat.right_child
    lab_min, lab_max = flat.node_value_ranges(labels)
    best_d = np.full(n, np.inf)
    best_i = np.full(n, n, dtype=np.int64)

    def foreign(nodes: np.ndarray, queries: np.ndarray) -> np.ndarray:
        own = labels[queries]
        return (lab_min[nodes] != own) | (lab_max[nodes] != own)

    # Seed: descend into the nearer child that still holds a foreign point.
    # The root does (there are at least two components), so the seed leaf
    # does too and every bound is finite before the frontier starts.
    seed = np.zeros(n, dtype=np.int64)
    active = np.flatnonzero(left[seed] >= 0)
    while active.size:
        lc, rc = left[seed[active]], right[seed[active]]
        ok_l, ok_r = foreign(lc, active), foreign(rc, active)
        dl = flat.min_distances_to_points(points[active], lc)
        dr = flat.min_distances_to_points(points[active], rc)
        seed[active] = np.where(ok_l & (~ok_r | (dl <= dr)), lc, rc)
        active = active[left[seed[active]] >= 0]
    all_q = np.arange(n, dtype=np.int64)
    _fold(flat, labels, all_q, seed, best_d, best_i)

    frontier_q, frontier_n = all_q, np.zeros(n, dtype=np.int64)
    while frontier_q.size:
        keep = foreign(frontier_n, frontier_q)
        frontier_q, frontier_n = frontier_q[keep], frontier_n[keep]
        gap = flat.min_distances_to_points(points[frontier_q], frontier_n)
        keep = gap <= best_d[frontier_q]
        frontier_q, frontier_n = frontier_q[keep], frontier_n[keep]
        leaf = left[frontier_n] < 0
        fresh = leaf & (frontier_n != seed[frontier_q])
        if fresh.any():
            _fold(flat, labels, frontier_q[fresh], frontier_n[fresh], best_d, best_i)
        inner_q, inner_n = frontier_q[~leaf], frontier_n[~leaf]
        frontier_q = np.concatenate([inner_q, inner_q])
        frontier_n = np.concatenate([left[inner_n], right[inner_n]])
    return best_d, best_i


def emst_dualtree_boruvka(
    points,
    *,
    leaf_size: int = 16,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact metric MST via kd-tree Borůvka with component pruning.

    Each component takes its lightest outgoing edge ``(w, u, v)`` (endpoints
    ordered ``u < v``; the smallest triple wins ties, so the choices are
    consistent and never close a cycle), and a round's edges are united in
    sorted order.  ``num_threads`` is accepted so the public ``emst(...)``
    knob is uniform across methods; the traversal itself runs inline.
    ``metric`` selects the distance (Euclidean by default).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "dualtree-boruvka")

    timings = {}
    start = time.perf_counter()
    flat = FlatKDTree(data, leaf_size=leaf_size, metric=metric)
    timings["build-tree"] = time.perf_counter() - start

    tracker = current_tracker()
    log_n = max(math.log2(n), 1.0)
    union_find = UnionFind(n)
    output = EdgeList()
    rounds = 0
    all_points = np.arange(n, dtype=np.int64)

    start = time.perf_counter()
    while union_find.num_components > 1:
        rounds += 1
        labels = union_find.component_labels()
        tracker.add(n * log_n, log_n, phase="boruvka")
        distance, neighbour = _nearest_foreign(flat, labels)
        lo = np.minimum(all_points, neighbour)
        hi = np.maximum(all_points, neighbour)
        # Each component's lightest (w, u, v), then those edges by weight.
        order = np.lexsort((hi, lo, distance, labels))
        first = np.ones(n, dtype=bool)
        first[1:] = labels[order[1:]] != labels[order[:-1]]
        chosen = order[first]
        chosen = chosen[np.lexsort((hi[chosen], lo[chosen], distance[chosen]))]
        u, v, w = lo[chosen], hi[chosen], distance[chosen]
        accepted = union_find.union_many(u, v)
        if not accepted.any():
            break
        output.extend_arrays(u[accepted], v[accepted], w[accepted])
    timings["boruvka"] = time.perf_counter() - start

    stats = {"rounds": rounds}
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(output, n, "dualtree-boruvka", stats=stats)
