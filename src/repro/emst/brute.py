"""Brute-force EMST: Kruskal over the complete Euclidean graph.

This is the ground truth used by the test suite (every other EMST variant must
produce a tree of identical total weight) and the "naive O(n^2) space"
comparison point the paper contrasts its memory usage against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metric import Metric, MetricLike, resolve_metric
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal
from repro.parallel.scheduler import current_tracker

#: Pairs per exact-weight batch, bounding the gathered difference rows.
_CHUNK = 1 << 16


def emst_bruteforce(
    points, *, num_threads: Optional[int] = None, metric: MetricLike = None
) -> EMSTResult:
    """Exact metric MST by sorting all ``n (n - 1) / 2`` pairwise distances.

    Memory use is Θ(n^2); intended for reference/testing on small inputs.
    ``num_threads`` parallelizes the Kruskal weight sort; ``metric`` selects
    the distance (Euclidean by default).
    """
    data = as_points(points, min_points=1)
    return complete_graph_mst(
        data, resolve_metric(metric), name="bruteforce", num_threads=num_threads
    )


def complete_graph_mst(
    data: np.ndarray,
    metric: Metric,
    core_distances: Optional[np.ndarray] = None,
    *,
    name: str,
    num_threads: Optional[int] = None,
) -> EMSTResult:
    """Kruskal over the complete graph: the brute-force EMST and HDBSCAN*
    reference.

    Every weight comes from the metric's exact pair kernel — the mutual
    reachability distance when ``core_distances`` is given — so the tree's
    weights are the bits every other exact method reports.
    """
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, name)
    current_tracker().add(float(n) * n, 1.0, phase="bruteforce")
    upper_i, upper_j = np.triu_indices(n, k=1)
    weights = np.concatenate(
        [
            metric.exact_edge_weights(
                data,
                upper_i[lo : lo + _CHUNK],
                upper_j[lo : lo + _CHUNK],
                core_distances,
            )
            for lo in range(0, upper_i.size, _CHUNK)
        ]
    )
    order = np.argsort(weights, kind="stable")
    edges = zip(upper_i[order], upper_j[order], weights[order])
    tree_edges = kruskal(edges, n, num_threads=num_threads)
    return EMSTResult(tree_edges, n, name, stats={"distance_evaluations": n * n})
