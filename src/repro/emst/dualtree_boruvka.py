"""Dual-tree-style Borůvka EMST baseline.

The paper compares its sequential running times against mlpack's Dual-Tree
Borůvka implementation (March et al., Table 3).  mlpack is not available in
this reproduction, so this module provides the stand-in: Borůvka's algorithm
where each round finds, for every component, its lightest outgoing edge using
kd-tree nearest-neighbour queries that prune subtrees entirely contained in
the query point's own component.

Each round therefore costs roughly O(n log n) distance work and the number of
components halves per round, mirroring the structure (and practical behaviour)
of the dual-tree algorithm at the scale this reproduction runs at.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind
from repro.spatial.kdtree import KDNode, KDTree


def _annotate_components(tree: KDTree, labels: np.ndarray) -> dict:
    """For every node, the single component label of its points, or -1 if mixed."""
    purity = {}
    for node in reversed(list(tree.nodes())):
        if node.is_leaf:
            unique = np.unique(labels[node.indices])
            purity[node.node_id] = int(unique[0]) if unique.shape[0] == 1 else -1
        else:
            left = purity[node.left.node_id]
            right = purity[node.right.node_id]
            purity[node.node_id] = left if (left == right and left != -1) else -1
    return purity


def _nearest_foreign(
    tree: KDTree,
    purity: dict,
    labels: np.ndarray,
    query_index: int,
    query_label: int,
):
    """Nearest neighbour of a point that lies in a different component."""
    points = tree.points
    metric = tree.metric
    query = points[query_index]
    best_distance = math.inf
    best_index = -1

    def gap(node: KDNode) -> float:
        return node.box.min_distance_to_point(query, metric)

    def visit(node: KDNode, node_gap: float) -> None:
        nonlocal best_distance, best_index
        if purity[node.node_id] == query_label or node_gap >= best_distance:
            return
        if node.is_leaf:
            candidates = node.indices[labels[node.indices] != query_label]
            if candidates.shape[0] == 0:
                return
            diffs = points[candidates] - query
            dists = metric.diff_norms(diffs)
            local_best = int(np.argmin(dists))
            if dists[local_best] < best_distance:
                best_distance = float(dists[local_best])
                best_index = int(candidates[local_best])
            return
        # Each child's box gap is evaluated once: it orders the children and
        # is the pruning test when the child is visited.
        first, second = node.left, node.right
        first_gap, second_gap = gap(first), gap(second)
        if second_gap < first_gap:
            first, second = second, first
            first_gap, second_gap = second_gap, first_gap
        visit(first, first_gap)
        visit(second, second_gap)

    visit(tree.root, gap(tree.root))
    return best_index, best_distance


def emst_dualtree_boruvka(
    points,
    *,
    leaf_size: int = 16,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Exact metric MST via kd-tree Borůvka with component pruning.

    ``num_threads`` is accepted so the public ``emst(...)`` knob is uniform
    across methods; the point-by-point Borůvka search itself is sequential.
    ``metric`` selects the distance (Euclidean by default).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "dualtree-boruvka")

    timings = {}
    start = time.perf_counter()
    tree = KDTree(data, leaf_size=leaf_size, metric=metric)
    timings["build-tree"] = time.perf_counter() - start

    tracker = current_tracker()
    union_find = UnionFind(n)
    output = EdgeList()
    rounds = 0

    start = time.perf_counter()
    while union_find.num_components > 1:
        rounds += 1
        labels = union_find.component_labels()
        purity = _annotate_components(tree, labels)
        tracker.add(n * max(math.log2(n), 1.0), max(math.log2(n), 1.0), phase="boruvka")

        # Lightest outgoing edge per component, found point by point.
        best = {}
        for index in range(n):
            label = int(labels[index])
            neighbor, distance = _nearest_foreign(tree, purity, labels, index, label)
            if neighbor < 0:
                continue
            key = best.get(label)
            if key is None or distance < key[0]:
                best[label] = (distance, index, neighbor)

        merged = False
        for distance, u, v in sorted(best.values()):
            if union_find.union(u, v):
                output.append(u, v, distance)
                merged = True
        if not merged:
            break
    timings["boruvka"] = time.perf_counter() - start

    stats = {"rounds": rounds}
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(output, n, "dualtree-boruvka", stats=stats)
