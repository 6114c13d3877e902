"""The kd-tree handle: a :class:`FlatKDTree` plus its construction context.

The tree described in Section 2.3 / 3.1.1 of the paper — spatial-median
splits, per-node bounding boxes and spheres, optional ``cd_min`` / ``cd_max``
core-distance annotations — is stored as the array-native
:class:`repro.spatial.flat.FlatKDTree`, and a node is named by its id in
those arrays.  :class:`KDTree` owns one flat tree together with the point
set, metric and backend it was built under, plus the per-point core
distances the HDBSCAN* drivers attach; every traversal reads ``tree.flat``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.errors import InvalidParameterError, NotComputedError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.spatial.flat import FlatKDTree


class KDTree:
    """Spatial-median kd-tree over an ``(n, d)`` point array.

    Parameters
    ----------
    points:
        The point set (validated through :func:`repro.core.points.as_points`).
    leaf_size:
        Maximum number of points in a leaf.  The paper builds WSPD trees with
        one point per leaf; k-NN queries are usually faster with slightly
        larger leaves, so the default is configurable.
    metric:
        Distance metric (name, :class:`~repro.core.metric.Metric` instance,
        or ``None`` for Euclidean).  The metric rides the tree: the flat
        engine's node radii and gap distances, the WSPD separation masks and
        the BCCP kernels all read it from here.
    backend:
        Kernel backend (name, :class:`~repro.core.backend.KernelBackend`
        instance, or ``None`` for the ambient default).  Like the metric it
        rides the tree: the flat engine snapshots it at construction and
        every batched kernel driven through this tree dispatches through it.

    The underlying storage is the flat array engine, exposed as ``tree.flat``;
    the batch traversals in :mod:`repro.spatial.knn`, :mod:`repro.wspd` and
    :mod:`repro.emst` drive it directly.
    """

    def __init__(
        self,
        points,
        *,
        leaf_size: int = 1,
        metric: MetricLike = None,
        backend: BackendLike = None,
    ) -> None:
        if leaf_size < 1:
            raise InvalidParameterError("leaf_size must be >= 1")
        self.points = as_points(points)
        self.leaf_size = leaf_size
        self.metric = resolve_metric(metric)
        self.backend = resolve_backend(backend)
        self.flat = FlatKDTree(
            self.points, leaf_size=leaf_size, metric=self.metric, backend=self.backend
        )
        self._core_distances: Optional[np.ndarray] = None

    @classmethod
    def from_flat(cls, flat: FlatKDTree) -> "KDTree":
        """Wrap an already-built :class:`FlatKDTree` without rebuilding it.

        Used by the serving layer to restore a fitted tree from
        :meth:`FlatKDTree.state_arrays` storage: construction parameters and
        the point set are taken from the flat engine, and if the flat tree
        carries core-distance annotations they are surfaced through
        :attr:`core_distances` (reconstructed from the per-point values is not
        possible, so callers re-annotate; the node extrema survive as-is).
        """
        tree = object.__new__(cls)
        tree.points = flat.points
        tree.leaf_size = flat.leaf_size
        tree.metric = flat.metric
        tree.backend = flat.backend
        tree.flat = flat
        tree._core_distances = None
        return tree

    # -- structural accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.flat.num_nodes

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def height(self) -> int:
        """Length of the longest root-to-leaf path (root alone has height 0)."""
        return self.flat.height

    # -- core-distance annotation (HDBSCAN*) ----------------------------------

    def annotate_core_distances(self, core_distances: np.ndarray) -> None:
        """Attach per-node min/max core distances used by HDBSCAN* separation.

        ``core_distances[i]`` must be the core distance of point ``i`` (the
        distance to its minPts-nearest neighbour, including itself).
        """
        core_distances = np.asarray(core_distances, dtype=np.float64)
        if core_distances.shape != (self.size,):
            raise InvalidParameterError(
                "core_distances must have one value per point"
            )
        self.flat.annotate_core_distances(core_distances)
        self._core_distances = core_distances

    @property
    def core_distances(self) -> np.ndarray:
        """Core distances previously attached via :meth:`annotate_core_distances`."""
        if self._core_distances is None:
            raise NotComputedError(
                "core distances have not been annotated on this tree"
            )
        return self._core_distances

    @property
    def has_core_distances(self) -> bool:
        return self._core_distances is not None
