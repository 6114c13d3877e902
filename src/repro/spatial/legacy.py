"""Reference node-object kd-tree (the pre-flat implementation).

This module preserves the original pointer-based tree — one Python object per
node, recursive single-query traversals — exactly as the reproduction first
shipped it.  It is *not* used by any algorithm anymore: the production path is
the array-native :class:`repro.spatial.flat.FlatKDTree`.  It exists so that

* ``benchmarks/bench_flat_tree.py`` can measure the speedup of the flat
  engine against the historical baseline, and
* the equivalence tests can check that both engines produce the same
  neighbourhood structure.

Nothing here charges the work–depth tracker; the production engine owns the
cost accounting.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.core.bounding import BoundingBox, BoundingSphere
from repro.core.errors import InvalidParameterError
from repro.core.points import as_points


class LegacyKDNode:
    """One node of the object tree; a leaf when it has no children."""

    __slots__ = ("node_id", "indices", "box", "sphere", "left", "right")

    def __init__(self, node_id: int, indices: np.ndarray, box: BoundingBox) -> None:
        self.node_id = node_id
        self.indices = indices
        self.box = box
        self.sphere: BoundingSphere = box.to_sphere()
        self.left: Optional["LegacyKDNode"] = None
        self.right: Optional["LegacyKDNode"] = None

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class LegacyKDTree:
    """Spatial-median kd-tree built from per-node Python objects."""

    def __init__(self, points, *, leaf_size: int = 1) -> None:
        if leaf_size < 1:
            raise InvalidParameterError("leaf_size must be >= 1")
        self.points = as_points(points)
        self.leaf_size = leaf_size
        self._nodes: List[LegacyKDNode] = []
        self.root = self._build(np.arange(self.points.shape[0], dtype=np.int64))

    def _new_node(self, indices: np.ndarray) -> LegacyKDNode:
        box = BoundingBox.of_points(self.points[indices])
        node = LegacyKDNode(len(self._nodes), indices, box)
        self._nodes.append(node)
        return node

    def _build(self, indices: np.ndarray) -> LegacyKDNode:
        node = self._new_node(indices)
        stack = [node]
        while stack:
            current = stack.pop()
            if current.size <= self.leaf_size:
                continue
            left_idx, right_idx = self._split(current)
            if left_idx is None:
                continue
            current.left = self._new_node(left_idx)
            current.right = self._new_node(right_idx)
            stack.append(current.left)
            stack.append(current.right)
        return node

    def _split(self, node: LegacyKDNode):
        coords = self.points[node.indices]
        extent = node.box.extent
        dimension = int(np.argmax(extent))
        if extent[dimension] <= 0.0:
            if node.size <= self.leaf_size:
                return None, None
            half = node.size // 2
            return node.indices[:half], node.indices[half:]
        midpoint = (node.box.lower[dimension] + node.box.upper[dimension]) * 0.5
        mask = coords[:, dimension] < midpoint
        left = node.indices[mask]
        right = node.indices[~mask]
        if left.size == 0 or right.size == 0:
            order = np.argsort(coords[:, dimension], kind="stable")
            half = node.size // 2
            left = node.indices[order[:half]]
            right = node.indices[order[half:]]
        return left, right

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def legacy_knn(
    tree: LegacyKDTree, k: int, *, queries: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query best-first traversal, exactly as the seed implementation."""
    if k < 1 or k > tree.size:
        raise InvalidParameterError(f"k must be in [1, {tree.size}]")
    query_points = tree.points if queries is None else as_points(queries)
    results = [_query_single(tree, query_points[i], k) for i in range(query_points.shape[0])]
    indices = np.stack([r[0] for r in results])
    distances = np.stack([r[1] for r in results])
    return indices, distances


def _box_gap(box: BoundingBox, query: np.ndarray) -> float:
    """Point-to-box distance as the seed computed it (``np.linalg.norm``), so
    the baseline keeps the seed's per-node cost."""
    gap = np.maximum(np.maximum(box.lower - query, query - box.upper), 0.0)
    return float(np.linalg.norm(gap))


def _query_single(
    tree: LegacyKDTree, query: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    heap: list = []
    points = tree.points

    def visit(node: LegacyKDNode) -> None:
        if len(heap) == k and -heap[0][0] <= _box_gap(node.box, query):
            return
        if node.is_leaf:
            leaf_points = points[node.indices]
            diffs = leaf_points - query
            dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            for dist, idx in zip(dists, node.indices):
                if len(heap) < k:
                    heapq.heappush(heap, (-float(dist), int(idx)))
                elif dist < -heap[0][0]:
                    heapq.heapreplace(heap, (-float(dist), int(idx)))
            return
        first, second = node.left, node.right
        if _box_gap(second.box, query) < _box_gap(first.box, query):
            first, second = second, first
        visit(first)
        visit(second)

    visit(tree.root)
    ordered = sorted(((-neg, idx) for neg, idx in heap))
    distances = np.array([dist for dist, _ in ordered], dtype=np.float64)
    indices = np.array([idx for _, idx in ordered], dtype=np.int64)
    return indices, distances
