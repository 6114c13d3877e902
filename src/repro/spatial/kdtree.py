"""Node-view compatibility layer over the flat structure-of-arrays kd-tree.

The tree described in Section 2.3 / 3.1.1 of the paper — spatial-median
splits, per-node bounding boxes and spheres, optional ``cd_min`` / ``cd_max``
core-distance annotations — is *stored* as the array-native
:class:`repro.spatial.flat.FlatKDTree`.  This module keeps the original
object-style API on top of it: :class:`KDTree` owns a flat tree, and
:class:`KDNode` is a lightweight **view** onto one node id whose attributes
(``indices``, ``box``, ``sphere``, ``left``, ``right``, ``cd_min`` …) read
straight out of the flat arrays.

Hot paths never touch these views: the WSPD, GFK/MemoGFK and k-NN traversals
drive the flat arrays in batch form.  The views exist so that algorithm code
that genuinely works pair-at-a-time (BCCP kernels, the dual-tree Borůvka and
OPTICS baselines, the test-suite's structural checks) keeps its natural
object-shaped interface.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.bounding import BoundingBox, BoundingSphere
from repro.core.errors import InvalidParameterError, NotComputedError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.spatial.flat import FlatKDTree


class KDNode:
    """View onto one node of a :class:`FlatKDTree` (a leaf when childless).

    Views are created on demand and cached by the owning :class:`KDTree`, so
    ``node.left is tree.node(node.left.node_id)`` always holds and repeated
    attribute access does not rebuild boxes or spheres.
    """

    __slots__ = ("_tree", "node_id", "_box", "_sphere")

    def __init__(self, tree: "KDTree", node_id: int) -> None:
        self._tree = tree
        self.node_id = node_id
        self._box: Optional[BoundingBox] = None
        self._sphere: Optional[BoundingSphere] = None

    @property
    def _flat(self) -> FlatKDTree:
        return self._tree.flat

    @property
    def indices(self) -> np.ndarray:
        """Point indices owned by this node (a view into the permutation)."""
        return self._flat.point_indices(self.node_id)

    @property
    def box(self) -> BoundingBox:
        if self._box is None:
            flat = self._flat
            self._box = BoundingBox(
                flat.node_lower[self.node_id], flat.node_upper[self.node_id]
            )
        return self._box

    @property
    def sphere(self) -> BoundingSphere:
        if self._sphere is None:
            flat = self._flat
            self._sphere = BoundingSphere(
                flat.node_center[self.node_id],
                float(flat.node_radius[self.node_id]),
                metric=self._tree.metric,
            )
        return self._sphere

    @property
    def left(self) -> Optional["KDNode"]:
        child = int(self._flat.left_child[self.node_id])
        return None if child < 0 else self._tree.node(child)

    @property
    def right(self) -> Optional["KDNode"]:
        child = int(self._flat.right_child[self.node_id])
        return None if child < 0 else self._tree.node(child)

    @property
    def cd_min(self) -> Optional[float]:
        values = self._flat.cd_min
        return None if values is None else float(values[self.node_id])

    @property
    def cd_max(self) -> Optional[float]:
        values = self._flat.cd_max
        return None if values is None else float(values[self.node_id])

    @property
    def size(self) -> int:
        """Number of points contained in this node."""
        flat = self._flat
        return int(flat.node_end[self.node_id] - flat.node_start[self.node_id])

    @property
    def is_leaf(self) -> bool:
        return int(self._flat.left_child[self.node_id]) < 0

    @property
    def diameter(self) -> float:
        """Diameter of the node's bounding sphere (``A_diam`` in the paper)."""
        return 2.0 * float(self._flat.node_radius[self.node_id])

    def children(self) -> List["KDNode"]:
        if self.is_leaf:
            return []
        return [self.left, self.right]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return f"KDNode(id={self.node_id}, {kind}, size={self.size})"


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
        self._views: dict = {}
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
        tree._views = {}
        tree._core_distances = None
        return tree

    # -- structural accessors -------------------------------------------------

    def node(self, node_id: int) -> KDNode:
        """The (cached) view onto node ``node_id``."""
        view = self._views.get(node_id)
        if view is None:
            view = KDNode(self, node_id)
            self._views[node_id] = view
        return view

    @property
    def root(self) -> KDNode:
        return self.node(0)

    @property
    def num_nodes(self) -> int:
        return self.flat.num_nodes

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def nodes(self) -> Iterator[KDNode]:
        """Iterate over all nodes (id order: parent before children)."""
        return (self.node(i) for i in range(self.flat.num_nodes))

    def leaves(self) -> Iterator[KDNode]:
        return (self.node(int(i)) for i in self.flat.leaf_ids())

    def height(self) -> int:
        """Length of the longest root-to-leaf path (root alone has height 0)."""
        return self.flat.height

    def node_points(self, node: KDNode) -> np.ndarray:
        """Coordinate array of the points contained in ``node``."""
        return self.points[node.indices]

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
