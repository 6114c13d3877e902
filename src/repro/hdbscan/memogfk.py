"""HDBSCAN*-MemoGFK: the paper's space-efficient algorithm (Section 3.2.2).

Identical in structure to :mod:`repro.hdbscan.gantao`, with one change that is
the paper's core HDBSCAN* contribution: the WSPD / MemoGFK traversals use the
new notion of well-separation — a pair is well-separated when it is
*geometrically separated* **or** *mutually unreachable* — so the recursion
terminates earlier and far fewer pairs are ever generated (Theorem 3.2 proves
the MST over the resulting BCCP* edges is still an MST of the full mutual
reachability graph; Theorem 3.3 gives the O(n · minPts) space bound).  Like
the EMST drivers, each round's retrieved pairs go through the batched BCCP*
kernel and the vectorized Kruskal batch in whole-array form.
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


def hdbscan_mst_memogfk(
    points,
    min_pts: int = 10,
    *,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    checkpoint=None,
) -> EMSTResult:
    """Exact MST of the mutual reachability graph with the new well-separation.

    Parameters are identical to :func:`repro.hdbscan.gantao.hdbscan_mst_gantao`,
    plus ``checkpoint``: a
    :class:`~repro.resilience.checkpoint.CheckpointManager` enabling the
    per-round state commits of :func:`repro.emst.memogfk.memogfk_mst` (the
    ``hdbscan()`` entry point wires this up from its ``checkpoint_dir=``).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "hdbscan-memogfk")

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
        separation="hdbscan",
        core_distances=core_dists,
        num_threads=num_threads,
        checkpoint=checkpoint,
    )
    timings["wspd+kruskal"] = time.perf_counter() - start

    stats.update({f"time_{name}": value for name, value in timings.items()})
    stats["min_pts"] = min_pts
    return EMSTResult(edges, n, "hdbscan-memogfk", stats=stats)
