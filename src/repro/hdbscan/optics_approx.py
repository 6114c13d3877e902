"""Parallel approximate OPTICS (Appendix C, after Gan & Tao).

The approximation parameter ``rho >= 0`` determines the WSPD separation
constant ``s = sqrt(8 / rho)``: the larger the required precision (smaller
``rho``), the larger the separation constant and the more well-separated
pairs are generated.  For every pair ``(A, B)`` a *representative point* is
chosen on each side (the paper's implementation simply picks an arbitrary
point, as does this one — deterministically, the first point of the node's
``perm`` slice), and edges are added according to the four cardinality cases
of Appendix C, with weight::

    w(u, v) = max(cd(u), cd(v), d(u, v) / (1 + rho))

The MST of the resulting multigraph is an MST of a graph whose weights
approximate the mutual reachability distances within a factor of ``1 + rho``.

The edges of all pairs are generated at once from the decomposition's
node-id arrays: a node with fewer than ``minPts`` points contributes all of
its members, a larger one only its representative, so each pair yields a
``members(A) × members(B)`` block in row-major order.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal
from repro.parallel.scheduler import current_tracker
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.wspd import compute_wspd_ids

#: Edges generated per vectorized block, bounding the gathered coordinate
#: rows of one block.
_EDGE_CHUNK = 1 << 18


def _appendix_c_edges(
    flat: FlatKDTree,
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    core_dists: np.ndarray,
    min_pts: int,
    rho: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of every well-separated pair (the four cases of App. C).

    Pair order is kept, and each pair's edges are its
    ``members(A) × members(B)`` block in row-major order, where a node with
    at least ``min_pts`` points is represented by its first member alone.
    """
    sizes = flat.node_sizes
    members_a = np.where(sizes[a_ids] < min_pts, sizes[a_ids], 1)
    members_b = np.where(sizes[b_ids] < min_pts, sizes[b_ids], 1)
    per_pair = members_a * members_b
    ends = np.cumsum(per_pair)
    total = int(ends[-1]) if ends.size else 0
    start_a = flat.node_start[a_ids]
    start_b = flat.node_start[b_ids]
    perm = flat.perm
    points = flat.points
    metric = flat.metric
    scale = 1.0 + rho

    u = np.empty(total, dtype=np.int64)
    v = np.empty(total, dtype=np.int64)
    w = np.empty(total, dtype=np.float64)
    for lo in range(0, total, _EDGE_CHUNK):
        hi = min(lo + _EDGE_CHUNK, total)
        edge = np.arange(lo, hi, dtype=np.int64)
        pair = np.searchsorted(ends, edge, side="right")
        row, col = np.divmod(edge - (ends[pair] - per_pair[pair]), members_b[pair])
        eu = perm[start_a[pair] + row]
        ev = perm[start_b[pair] + col]
        u[lo:hi] = eu
        v[lo:hi] = ev
        distance = metric.diff_norms(points[eu] - points[ev]) / scale
        w[lo:hi] = np.maximum(np.maximum(core_dists[eu], core_dists[ev]), distance)
    return u, v, w


def optics_approx_mst(
    points,
    min_pts: int = 10,
    *,
    rho: float = 0.125,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """Approximate MST for OPTICS / HDBSCAN* with approximation parameter rho.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    min_pts:
        OPTICS/HDBSCAN* ``minPts`` parameter.
    rho:
        Approximation parameter (> 0); the separation constant is
        ``sqrt(8 / rho)`` (``rho = 0.125`` gives ``s = 8``, the value used in
        the paper's Figure 10 experiments).
    core_dists:
        Optional precomputed core distances.
    num_threads:
        Thread count for the k-NN batches and the WSPD separation tests.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean);
        the ``1 + rho`` approximation argument only uses the triangle
        inequality, so it carries over to every norm-induced metric.
    """
    if rho <= 0:
        raise InvalidParameterError("rho must be positive")
    data = as_points(points, min_points=1)
    resolved_metric = resolve_metric(metric)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "optics-gantao-approx")

    timings = {}
    start = time.perf_counter()
    if core_dists is None:
        core_dists = compute_core_distances(
            data, min(min_pts, n), num_threads=num_threads, metric=resolved_metric
        )
    core_dists = np.asarray(core_dists, dtype=np.float64)
    timings["core-dist"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = KDTree(data, metric=resolved_metric)
    timings["build-tree"] = time.perf_counter() - start

    separation_constant = math.sqrt(8.0 / rho)

    start = time.perf_counter()
    a_ids, b_ids = compute_wspd_ids(
        tree, separation="geometric", s=separation_constant, num_threads=num_threads
    )
    u, v, w = _appendix_c_edges(tree.flat, a_ids, b_ids, core_dists, min_pts, rho)
    # Every pair's edges are generated independently of the others.
    current_tracker().add(float(u.size), 1.0, phase="wspd")
    timings["wspd"] = time.perf_counter() - start

    start = time.perf_counter()
    tree_edges = kruskal((u, v, w), n, num_threads=num_threads)
    timings["kruskal"] = time.perf_counter() - start

    stats = {
        "wspd_pairs": int(a_ids.size),
        "graph_edges": int(u.size),
        "rho": rho,
        "separation_constant": separation_constant,
        "min_pts": min_pts,
    }
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(tree_edges, n, "optics-gantao-approx", stats=stats)
