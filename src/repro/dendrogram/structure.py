"""The dendrogram data structure.

A dendrogram over ``n`` points is a full binary tree with ``n`` leaves (the
points, ids ``0 .. n-1``) and ``n - 1`` internal nodes (ids ``n .. 2n-2``).
Each internal node corresponds to one spanning-tree edge: removing that edge
splits the node's cluster into its two children, and the node's *height* is
the weight of the removed edge.

Internal nodes are stored in structure-of-arrays form — growable NumPy
buffers for children, heights, subtree sizes and originating edges — so the
array-native constructions append whole batches of merges with one
:meth:`Dendrogram.add_internal_batch` call, and whole-column operations
(linkage export, parent arrays, validity checks, :meth:`node_sizes`) run as
single array passes.

Ordered dendrograms additionally fix the left/right order of every node's
children so that the in-order traversal of the leaves equals the Prim-order
traversal of the underlying tree from a chosen starting vertex (Section 4.1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.buffers import ensure_capacity
from repro.core.errors import InvalidParameterError

_INITIAL_CAPACITY = 16


class Dendrogram:
    """Binary merge tree over ``num_points`` leaves.

    Internal node ``k`` (0-based) has node id ``num_points + k``; its children
    may be leaves (ids below ``num_points``) or other internal nodes.
    """

    def __init__(self, num_points: int) -> None:
        if num_points < 1:
            raise InvalidParameterError("a dendrogram needs at least one point")
        self.num_points = num_points
        self._spans_cache: Optional[Tuple[int, int, np.ndarray, np.ndarray]] = None
        # A complete dendrogram has exactly ``num_points - 1`` internal nodes,
        # so sizing the buffers up front makes growth the exception.
        capacity = max(num_points - 1, _INITIAL_CAPACITY)
        self._left = np.empty(capacity, dtype=np.int64)
        self._right = np.empty(capacity, dtype=np.int64)
        self._height = np.empty(capacity, dtype=np.float64)
        self._size = np.empty(capacity, dtype=np.int64)
        self._edge_u = np.empty(capacity, dtype=np.int64)
        self._edge_v = np.empty(capacity, dtype=np.int64)
        self._count = 0
        self.root: Optional[int] = 0 if num_points == 1 else None

    # -- construction ---------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        ensure_capacity(
            self,
            ("_left", "_right", "_height", "_size", "_edge_u", "_edge_v"),
            self._count,
            self._count + extra,
        )

    def add_internal(
        self,
        left: int,
        right: int,
        height: float,
        edge: Tuple[int, int],
    ) -> int:
        """Add an internal node merging ``left`` and ``right``; return its id."""
        self._reserve(1)
        index = self._count
        node_id = self.num_points + index
        self._left[index] = left
        self._right[index] = right
        self._height[index] = height
        self._size[index] = self.node_size(int(left)) + self.node_size(int(right))
        self._edge_u[index] = edge[0]
        self._edge_v[index] = edge[1]
        self._count = index + 1
        return node_id

    def add_internal_batch(
        self,
        left: np.ndarray,
        right: np.ndarray,
        height: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        sizes: np.ndarray,
    ) -> int:
        """Append a whole batch of internal nodes; return the first new id.

        ``sizes`` must hold each new node's leaf count (the array-backed
        constructions track cluster sizes in their merge sweeps, so recomputing
        them here would be redundant).  Children may reference nodes created
        earlier in the same batch, exactly like repeated :meth:`add_internal`
        calls.
        """
        m = int(len(left))
        self._reserve(m)
        start = self._count
        self._left[start : start + m] = left
        self._right[start : start + m] = right
        self._height[start : start + m] = height
        self._size[start : start + m] = sizes
        self._edge_u[start : start + m] = edge_u
        self._edge_v[start : start + m] = edge_v
        self._count = start + m
        return self.num_points + start

    def set_root(self, node_id: int) -> None:
        self.root = int(node_id)

    # -- accessors ------------------------------------------------------------

    @property
    def num_internal(self) -> int:
        return self._count

    def is_leaf(self, node_id: int) -> bool:
        return node_id < self.num_points

    def children(self, node_id: int) -> Tuple[int, int]:
        """(left, right) child ids of an internal node."""
        index = self._internal_index(node_id)
        return int(self._left[index]), int(self._right[index])

    def height(self, node_id: int) -> float:
        """Height (weight of the removed edge) of an internal node."""
        return float(self._height[self._internal_index(node_id)])

    def edge(self, node_id: int) -> Tuple[int, int]:
        """The spanning-tree edge whose removal created this internal node."""
        index = self._internal_index(node_id)
        return int(self._edge_u[index]), int(self._edge_v[index])

    def node_size(self, node_id: int) -> int:
        """Number of leaves under ``node_id``."""
        if self.is_leaf(node_id):
            return 1
        return int(self._size[self._internal_index(node_id)])

    def node_sizes(self, node_ids: np.ndarray) -> np.ndarray:
        """Leaf counts of a whole array of node ids at once."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        sizes = np.ones(node_ids.shape[0], dtype=np.int64)
        internal = node_ids >= self.num_points
        sizes[internal] = self._size[node_ids[internal] - self.num_points]
        return sizes

    def heights(self) -> np.ndarray:
        """Heights of all internal nodes (construction order)."""
        return self._height[: self._count].copy()

    def children_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(left, right) child-id arrays of all internal nodes (views).

        Row ``k`` belongs to internal node ``num_points + k``; array-native
        traversals (e.g. the dendrogram-cut frontier sweep) index these
        instead of calling :meth:`children` per node.
        """
        return self._left[: self._count], self._right[: self._count]

    def _internal_index(self, node_id: int) -> int:
        index = node_id - self.num_points
        if index < 0 or index >= self._count:
            raise InvalidParameterError(f"node {node_id} is not an internal node")
        return index

    # -- traversals -----------------------------------------------------------

    def leaves_in_order(self) -> List[int]:
        """Leaf ids in dendrogram (in-order / left-to-right) order."""
        if self.root is None:
            raise InvalidParameterError("dendrogram has no root; construction incomplete")
        n = self.num_points
        left = self._left
        right = self._right
        order: List[int] = []
        stack: List[int] = [self.root]
        while stack:
            node_id = stack.pop()
            if node_id < n:
                order.append(node_id)
                continue
            index = node_id - n
            # In-order on a full binary tree: everything in the left subtree,
            # then everything in the right subtree (the internal node itself
            # carries no leaf).
            stack.append(int(right[index]))
            stack.append(int(left[index]))
        return order

    def leaf_spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """In-order leaf sequence plus every node's contiguous span in it.

        Returns ``(order, first)`` where ``order`` lists the leaf ids in
        dendrogram (left-to-right) order and, for *every* node id ``v``, the
        leaves under ``v`` are exactly ``order[first[v] : first[v] +
        node_size(v)]``.  This turns "collect/label the leaves of a subtree"
        — previously a per-node stack walk — into one array slice.

        The spans are computed with pointer doubling over the parent array:
        a node's span start is the sum, along its root path, of the left-
        sibling sizes of the right-child steps; doubling evaluates all those
        path sums in ``O(log depth)`` vectorized rounds, so even a fully
        degenerate (chain-shaped) dendrogram needs no deep recursion.  The
        result is cached until the dendrogram grows or is re-rooted.
        """
        if self.root is None:
            raise InvalidParameterError(
                "dendrogram has no root; construction incomplete"
            )
        cache_key = (self._count, int(self.root))
        if self._spans_cache is not None and self._spans_cache[:2] == cache_key:
            return self._spans_cache[2], self._spans_cache[3]

        n = self.num_points
        count = self._count
        total = n + count
        left = self._left[:count]
        right = self._right[:count]

        # delta[v]: leaves preceding v within its parent — 0 for left
        # children (and the root), the left sibling's leaf count for right
        # children.
        delta = np.zeros(total, dtype=np.int64)
        delta[right] = self.node_sizes(left)
        jump = self.parent_array()

        # Pointer doubling: first[v] accumulates the delta sum over the path
        # segment [v, jump[v]); each round doubles the segment until every
        # jump pointer falls off the root.  The gathers on the right-hand
        # side snapshot before the scatter, so one statement per array is a
        # synchronous round.
        first = delta.copy()
        while True:
            active = np.flatnonzero(jump >= 0)
            if active.size == 0:
                break
            first[active] += first[jump[active]]
            jump[active] = jump[jump[active]]
        order = np.empty(n, dtype=np.int64)
        order[first[:n]] = np.arange(n, dtype=np.int64)
        self._spans_cache = (cache_key[0], cache_key[1], order, first)
        return order, first

    def parent_array(self) -> np.ndarray:
        """Parent id of every node (-1 for the root)."""
        total = self.num_points + self._count
        parents = np.full(total, -1, dtype=np.int64)
        ids = self.num_points + np.arange(self._count, dtype=np.int64)
        parents[self._left[: self._count]] = ids
        parents[self._right[: self._count]] = ids
        return parents

    def iter_internal(self) -> Iterator[int]:
        """Iterate over internal node ids in construction order."""
        for index in range(self._count):
            yield self.num_points + index

    # -- validation and comparison --------------------------------------------

    def is_valid(self) -> bool:
        """Structural sanity: every node has one parent, heights are monotone.

        Monotonicity here means every internal node is at least as high as its
        internal children, which holds for dendrograms produced by removing
        edges in decreasing weight order.
        """
        if self.num_points == 1:
            return self.num_internal == 0
        if self.num_internal != self.num_points - 1 or self.root is None:
            return False
        parents = self.parent_array()
        root_count = int(np.sum(parents == -1))
        if root_count != 1 or parents[self.root] != -1:
            return False
        heights = self._height[: self._count]
        for child_column in (self._left[: self._count], self._right[: self._count]):
            internal_child = child_column >= self.num_points
            if internal_child.any():
                child_heights = heights[child_column[internal_child] - self.num_points]
                if (child_heights > heights[internal_child] + 1e-12).any():
                    return False
        return True

    def to_linkage_matrix(self) -> np.ndarray:
        """SciPy-style ``(n-1, 4)`` linkage matrix (cluster1, cluster2, height, size).

        Internal nodes must have been added in non-decreasing height order for
        the result to be a valid SciPy linkage.  Both constructions guarantee
        that: internal node ``n + r`` belongs to the tree edge of rank ``r`` in
        a stable weight sort, in :func:`repro.dendrogram.sequential.
        dendrogram_sequential` and :func:`repro.dendrogram.topdown.
        dendrogram_topdown` alike, so the matrix passes
        ``scipy.cluster.hierarchy.is_valid_linkage`` and its ``cophenet`` is
        SciPy's single-linkage cophenetic distance over the same weights.
        """
        count = self._count
        matrix = np.empty((count, 4), dtype=np.float64)
        matrix[:, 0] = self._left[:count]
        matrix[:, 1] = self._right[:count]
        matrix[:, 2] = self._height[:count]
        matrix[:, 3] = self._size[:count]
        return matrix

    # -- checkpoint state ------------------------------------------------------

    def state_arrays(self) -> "dict[str, np.ndarray]":
        """Copies of the live columns for a phase checkpoint (exact restore)."""
        count = self._count
        return {
            "left": self._left[:count].copy(),
            "right": self._right[:count].copy(),
            "height": self._height[:count].copy(),
            "size": self._size[:count].copy(),
            "edge_u": self._edge_u[:count].copy(),
            "edge_v": self._edge_v[:count].copy(),
            "meta": np.array(
                [self.num_points, -1 if self.root is None else self.root],
                dtype=np.int64,
            ),
        }

    @classmethod
    def from_state_arrays(cls, arrays: "dict[str, np.ndarray]") -> "Dendrogram":
        """Rebuild a dendrogram from :meth:`state_arrays` output.

        The restored tree is bit-for-bit equal to the checkpointed one: the
        columns are written back verbatim (batch append preserves order and
        values) and the root is reinstated, so every downstream consumer —
        linkage export, cuts, cluster extraction — sees identical bytes.
        """
        meta = np.asarray(arrays["meta"], dtype=np.int64)
        dendrogram = cls(int(meta[0]))
        dendrogram.add_internal_batch(
            np.asarray(arrays["left"], dtype=np.int64),
            np.asarray(arrays["right"], dtype=np.int64),
            np.asarray(arrays["height"], dtype=np.float64),
            np.asarray(arrays["edge_u"], dtype=np.int64),
            np.asarray(arrays["edge_v"], dtype=np.int64),
            np.asarray(arrays["size"], dtype=np.int64),
        )
        if int(meta[1]) >= 0:
            dendrogram.set_root(int(meta[1]))
        return dendrogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dendrogram(n={self.num_points}, internal={self.num_internal})"
