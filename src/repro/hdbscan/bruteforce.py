"""Brute-force MST of the complete mutual reachability graph.

Θ(n^2) space and time — the reference every HDBSCAN* MST implementation is
tested against, and the naive approach whose memory footprint the paper's
Theorem 3.3 improves on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.emst.brute import complete_graph_mst
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances


def hdbscan_mst_bruteforce(
    points,
    min_pts: int = 10,
    *,
    core_dists: Optional[np.ndarray] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """MST of the mutual reachability graph by Kruskal over all n(n-1)/2
    edges, each weighed by the exact pair kernel (see
    :func:`repro.emst.brute.complete_graph_mst`)."""
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if core_dists is None:
        core_dists = compute_core_distances(data, min(min_pts, n), metric=metric)
    core_dists = np.asarray(core_dists, dtype=np.float64)
    if core_dists.shape != (n,):
        raise ValueError("core_distances must have one entry per point")
    return complete_graph_mst(
        data, resolve_metric(metric), core_dists, name="hdbscan-bruteforce"
    )
