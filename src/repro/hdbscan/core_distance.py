"""Core distances.

The core distance of a point ``p`` for a given ``minPts`` is the distance from
``p`` to its ``minPts``-nearest neighbour, counting ``p`` itself (so
``minPts = 1`` gives core distance 0 for every point and HDBSCAN* degenerates
to the EMST, Appendix D).

The ``"kdtree"`` method rides the same flat array engine as every other
traversal in the library: the all-points query runs as batched frontier
traversals of :class:`repro.spatial.flat.FlatKDTree`, and the resulting core
distances are what :meth:`KDTree.annotate_core_distances` folds back into the
tree's ``cd_min`` / ``cd_max`` arrays for the HDBSCAN* separation tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backend import BackendLike, KernelBackend, resolve_backend
from repro.core.budget import BudgetLike
from repro.core.context import use_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import Metric, MetricLike, resolve_metric
from repro.core.points import as_points
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import knn, knn_bruteforce


def _check_tree(
    tree: KDTree,
    data: np.ndarray,
    metric: Metric,
    backend: Optional[KernelBackend],
) -> None:
    """Reject a supplied kd-tree that does not index ``data`` as asked.

    ``backend`` is the caller's explicit backend, or ``None`` to accept the
    tree's own.
    """
    if tree.metric != metric:
        raise InvalidParameterError(
            f"the supplied kd-tree was built under metric "
            f"{tree.metric.spec()!r}, which conflicts with "
            f"metric={metric.spec()!r}"
        )
    if tree.size != data.shape[0]:
        raise InvalidParameterError(
            f"the supplied kd-tree indexes {tree.size} points, but "
            f"{data.shape[0]} points were given"
        )
    if not np.array_equal(tree.points, data):
        raise InvalidParameterError(
            "the supplied kd-tree was built over a different point set"
        )
    if backend is not None and tree.backend.name != backend.name:
        raise InvalidParameterError(
            f"the supplied kd-tree runs backend {tree.backend.name!r}, which "
            f"conflicts with backend={backend.name!r}"
        )


def core_distances(
    points,
    min_pts: int,
    *,
    method: str = "kdtree",
    tree: Optional[KDTree] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    backend: BackendLike = None,
    memory_budget: BudgetLike = None,
) -> np.ndarray:
    """Core distance of every point for the given ``minPts``.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    min_pts:
        The HDBSCAN* ``minPts`` parameter (``1 <= minPts <= n``).
    method:
        ``"kdtree"`` (the default: the batched flat-tree traversal the
        paper's algorithm uses, O(k n log n)) or ``"bruteforce"`` (chunked
        O(n^2) brute force, kept as the test oracle).  Measured at n=2·10⁴,
        k=10 on one core, the kd-tree is 13× faster than brute force in 2D,
        5.6× faster in 7D and 1.2× faster in 16D.  kd-tree values are the
        exact :meth:`~repro.core.metric.Metric.diff_norms` distance to the
        ``minPts``-th neighbour, the bits every edge weight is read with;
        brute force scores with the expansion kernel and may differ from
        them in the last bits.
    tree:
        Optional pre-built kd-tree reused when ``method="kdtree"``.  It must
        be built over exactly ``points`` under ``metric``, and under
        ``backend`` when one is given explicitly; otherwise
        :class:`~repro.core.errors.InvalidParameterError` is raised.
    num_threads:
        Thread count for the underlying k-NN batches.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean).
    backend:
        Kernel backend for the k-NN batches (name, KernelBackend instance,
        or ``None`` for the ambient default).  Core distances are always
        returned in exact float64: lowered backends re-evaluate the selected
        neighbours before the ``minPts``-th distance is read off.
    memory_budget:
        Bytes ceiling for the k-NN tiles (int, size string like ``"512M"``,
        a :class:`~repro.core.budget.MemoryBudget`, or ``None`` for the
        ambient default).  Results are byte-identical at any budget.
    """
    with use_context(memory_budget=memory_budget):
        data = as_points(points)
        resolved_metric = resolve_metric(metric)
        resolved_backend = resolve_backend(backend)
        n = data.shape[0]
        if not 1 <= min_pts <= n:
            raise InvalidParameterError(f"minPts must be in [1, {n}], got {min_pts}")
        if tree is not None:
            _check_tree(
                tree,
                data,
                resolved_metric,
                None if backend is None else resolved_backend,
            )
        if min_pts == 1:
            return np.zeros(n, dtype=np.float64)
        if method == "bruteforce":
            _, distances = knn_bruteforce(
                data,
                min_pts,
                num_threads=num_threads,
                metric=resolved_metric,
                backend=resolved_backend,
            )
        elif method == "kdtree":
            if tree is None:
                tree = KDTree(
                    data,
                    leaf_size=max(16, min_pts),
                    metric=resolved_metric,
                    backend=resolved_backend,
                )
            _, distances = knn(tree, min_pts, num_threads=num_threads)
        else:
            raise InvalidParameterError("method must be 'bruteforce' or 'kdtree'")
        return np.ascontiguousarray(distances[:, -1], dtype=np.float64)
