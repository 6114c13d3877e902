"""Distance kernels: thin dispatchers over the pluggable metric core.

Historically this module *was* the geometry of the library — hardcoded
Euclidean kernels.  The kernels now live on :class:`repro.core.metric.Metric`
implementations; the functions here keep the established call signatures and
dispatch to a metric (Euclidean by default).  The cost accounting in
:mod:`repro.parallel.scheduler` still charges work in units of "distance
evaluations" regardless of the metric.
"""

from __future__ import annotations

import numpy as np

from repro.core.metric import EUCLIDEAN, MetricLike, resolve_metric


def euclidean(p, q) -> float:
    """Euclidean distance between two points given as 1-d coordinate arrays.

    Called in tight loops from the BCCP and k-NN paths, so inputs that are
    already float64 ndarrays skip the ``asarray`` round-trip.
    """
    return EUCLIDEAN.point_distance(p, q)


def point_distance(p, q, metric: MetricLike = None) -> float:
    """Distance between two points under ``metric`` (Euclidean by default)."""
    return resolve_metric(metric).point_distance(p, q)


def squared_distances_to_point(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row of ``points`` to ``query``.

    This is the Euclidean-only internal comparison-space fast path
    ("sqeuclidean"); metric-general callers use
    :meth:`Metric.distances_to_point` instead.
    """
    return EUCLIDEAN.squared_distances_to_point(points, query)


def pairwise_distances(points: np.ndarray, metric: MetricLike = None) -> np.ndarray:
    """Full ``(n, n)`` distance matrix of a point set under ``metric``."""
    return resolve_metric(metric).pairwise_distances(points)


def cross_distances(
    a: np.ndarray, b: np.ndarray, metric: MetricLike = None
) -> np.ndarray:
    """``(len(a), len(b))`` matrix of distances between two sets.

    The Euclidean default uses the expansion ``|x - y|^2 = |x|^2 + |y|^2 -
    2 x.y`` so the whole computation is a single matrix product; negative
    values produced by floating-point cancellation are clamped to zero before
    the square root.  Non-Euclidean metrics accumulate one coordinate axis at
    a time, so peak memory matches the Euclidean kernel.
    """
    return resolve_metric(metric).cross_distances(a, b)


def exact_edge_weights(
    points: np.ndarray,
    index_a: np.ndarray,
    index_b: np.ndarray,
    core_distances=None,
    metric: MetricLike = None,
) -> np.ndarray:
    """Cancellation-safe edge weights for parallel arrays of point indices.

    The matrix kernels (:func:`cross_distances` and the batched BCCP kernel)
    may trade a few digits for batching; MST edge weights must be exact, so
    the winning pairs are re-evaluated with a direct difference-and-norm
    pass.  With ``core_distances`` the returned weight is the mutual
    reachability distance ``max(cd(u), cd(v), d(u, v))``.  This is the single
    exact kernel shared by the scalar and batched BCCP/BCCP* paths.
    """
    return resolve_metric(metric).exact_edge_weights(
        points, index_a, index_b, core_distances
    )


def closest_pair_bruteforce(a: np.ndarray, b: np.ndarray, metric: MetricLike = None):
    """Bichromatic closest pair by exhaustive search.

    Returns ``(i, j, distance)`` where ``i`` indexes ``a`` and ``j`` indexes
    ``b``.  This is the reference the kd-tree/WSPD BCCP implementations are
    tested against.
    """
    dists = resolve_metric(metric).cross_distances(a, b)
    flat = int(np.argmin(dists))
    i, j = divmod(flat, dists.shape[1])
    return i, j, float(dists[i, j])
