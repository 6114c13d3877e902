"""Flat, structure-of-arrays kd-tree: the array-native spatial engine.

The paper's algorithms all bottom out in traversals of a spatial-median
kd-tree (Section 2.3).  Storing that tree as linked per-node Python
objects would make every hot path pay per-node Python dispatch.  :class:`FlatKDTree` stores the *same* tree as a handful of parallel
NumPy arrays instead — the layout scikit-learn's neighbor trees use — so whole
frontiers of nodes can be tested, pruned and expanded with single array
operations:

* ``perm`` — a permutation of ``0..n-1``; every node owns the contiguous
  slice ``perm[node_start[v]:node_end[v]]`` of point indices;
* ``node_lower`` / ``node_upper`` — per-node axis-aligned bounding boxes;
* ``node_center`` / ``node_radius`` — the circumscribing bounding spheres
  (center = box center, radius = half the box diagonal, as in the paper);
* ``left_child`` / ``right_child`` — child node ids (``-1`` marks a leaf);
* ``cd_min`` / ``cd_max`` — per-node core-distance extrema, filled in by
  :meth:`annotate_core_distances` (the HDBSCAN* separation needs them).

Construction is iterative and level-synchronous: every level of the tree is
split with a constant number of vectorized passes (segmented bounding boxes
via ``ufunc.reduceat``, segmented stable partitions via ``np.lexsort``), so
the build itself is array-native too.  The split rule is exactly the one the
paper uses: split the widest dimension of the node's bounding box at its
midpoint, falling back to an object median when the spatial median is
degenerate and to a positional halve when all points coincide.

Because the whole structure is a few flat arrays it is cheap to pickle and to
share across processes, which a tree of node objects would not be — this is
the storage layer that future sharding/multiprocessing builds on.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike, resolve_metric
from repro.parallel.primitives import segment_ranges as _segment_ranges
from repro.parallel.scheduler import current_tracker


class FlatKDTree:
    """Spatial-median kd-tree stored as structure-of-arrays.

    Parameters
    ----------
    points:
        ``(n, d)`` float64 array (callers normalize through
        :func:`repro.core.points.as_points`).
    leaf_size:
        Maximum number of points in a leaf (>= 1).
    metric:
        The distance metric the tree's derived geometry (``node_radius``,
        point-to-box gaps, k-NN distances) is computed under; a name, a
        :class:`~repro.core.metric.Metric` instance, or ``None`` for
        Euclidean.  The split rule itself (widest box dimension at its
        midpoint) is metric-independent, so the tree *structure* is identical
        for every metric — only the bounds and distances change.
    """

    __slots__ = (
        "points",
        "scoring_points",
        "metric",
        "backend",
        "leaf_size",
        "perm",
        "node_lower",
        "node_upper",
        "node_center",
        "node_radius",
        "node_start",
        "node_end",
        "left_child",
        "right_child",
        "cd_min",
        "cd_max",
        "num_nodes",
        "levels",
    )

    def __init__(
        self,
        points: np.ndarray,
        *,
        leaf_size: int = 1,
        metric: MetricLike = None,
        backend: BackendLike = None,
    ) -> None:
        if leaf_size < 1:
            raise InvalidParameterError("leaf_size must be >= 1")
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise InvalidParameterError("points must be an (n, d) array")
        self.points = points
        self.metric = resolve_metric(metric)
        # The kernel backend rides the tree like the metric does.  Under an
        # exact backend ``scoring_points`` *is* ``points`` (no copy, and all
        # derived node arrays stay float64, byte-identical to the historical
        # engine); under a lowered backend it is the float32 copy the build,
        # the WSPD frontier masks, the BCCP candidate scoring and the k-NN
        # folds all run on — the float64 array remains the source of truth
        # for exact edge-weight refinement.
        self.backend = resolve_backend(backend)
        self.scoring_points = self.backend.lower_points(points)
        self.leaf_size = leaf_size
        self.cd_min: Optional[np.ndarray] = None
        self.cd_max: Optional[np.ndarray] = None
        n = points.shape[0]
        log_n = max(math.log2(n), 1.0) if n > 0 else 1.0
        current_tracker().add(n * log_n, log_n**2, phase="build-tree")
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        # Under a lowered backend the whole build (bounding boxes, split
        # coordinates, partitions) runs on the float32 scoring copy — half
        # the memory traffic of the float64 build; under an exact backend
        # ``scoring_points`` aliases ``points`` and nothing changes.
        points = self.scoring_points
        dtype = self.backend.scoring_dtype
        n, d = points.shape
        leaf_size = self.leaf_size
        cap = max(2 * n, 1)

        perm = np.arange(n, dtype=np.int64)
        node_lower = np.empty((cap, d), dtype=dtype)
        node_upper = np.empty((cap, d), dtype=dtype)
        node_start = np.empty(cap, dtype=np.int64)
        node_end = np.empty(cap, dtype=np.int64)
        left_child = np.full(cap, -1, dtype=np.int64)
        right_child = np.full(cap, -1, dtype=np.int64)

        node_start[0] = 0
        node_end[0] = n
        count = 1
        levels: List[np.ndarray] = []
        active = np.array([0], dtype=np.int64)

        while active.size:
            levels.append(active)
            starts = node_start[active]
            sizes = node_end[active] - starts

            # Segmented bounding boxes of every node on this level.
            gidx = _segment_ranges(starts, sizes)
            offsets = np.cumsum(sizes) - sizes
            pts = points[perm[gidx]]
            node_lower[active] = np.minimum.reduceat(pts, offsets, axis=0)
            node_upper[active] = np.maximum.reduceat(pts, offsets, axis=0)

            split = np.flatnonzero(sizes > leaf_size)
            if split.size == 0:
                break

            # Restrict the element gather to the nodes being split.
            s_ids = active[split]
            s_starts = starts[split]
            s_sizes = sizes[split]
            s_total = int(s_sizes.sum())
            seg = np.repeat(np.arange(split.size, dtype=np.int64), s_sizes)
            local = np.arange(s_total, dtype=np.int64) - np.repeat(
                np.cumsum(s_sizes) - s_sizes, s_sizes
            )
            sgidx = np.repeat(s_starts, s_sizes) + local

            extent = node_upper[s_ids] - node_lower[s_ids]
            dim = np.argmax(extent, axis=1)
            width = extent[np.arange(split.size), dim]
            mid = (
                node_lower[s_ids][np.arange(split.size), dim]
                + node_upper[s_ids][np.arange(split.size), dim]
            ) * 0.5

            coord = points[perm[sgidx], np.repeat(dim, s_sizes)]
            left_flag = coord < np.repeat(mid, s_sizes)
            n_left = np.bincount(
                seg, weights=left_flag, minlength=split.size
            ).astype(np.int64)
            half = s_sizes // 2
            half_per_elem = np.repeat(half, s_sizes)

            # Degenerate splits, mirroring the object-tree rules exactly:
            # zero-width nodes (all points identical on the split axis *and*
            # every other axis, since this is the widest one) are halved in
            # positional order; a degenerate spatial median (all points on one
            # side of the midpoint) falls back to the object median, i.e. a
            # stable sort by coordinate split at the halfway rank.
            flat_case = width <= 0.0
            degen = (~flat_case) & ((n_left == 0) | (n_left == s_sizes))
            secondary = local.copy()
            if flat_case.any():
                mask = flat_case[seg]
                left_flag[mask] = local[mask] < half_per_elem[mask]
            if degen.any():
                order = np.lexsort((local, coord, seg))
                rank = np.empty(s_total, dtype=np.int64)
                rank[order] = local
                mask = degen[seg]
                left_flag[mask] = rank[mask] < half_per_elem[mask]
                secondary[mask] = rank[mask]
            n_left = np.where(flat_case | degen, half, n_left)

            # Segmented stable partition: within each segment left points keep
            # their relative order, then right points keep theirs (matching
            # ``indices[mask]`` / ``indices[~mask]`` of the object tree).
            new_order = np.lexsort((secondary, ~left_flag, seg))
            perm[sgidx] = perm[sgidx[new_order]]

            # Allocate children: ids are assigned level by level, parent
            # before children, left before right.
            n_split = split.size
            left_ids = count + 2 * np.arange(n_split, dtype=np.int64)
            right_ids = left_ids + 1
            count += 2 * n_split
            left_child[s_ids] = left_ids
            right_child[s_ids] = right_ids
            cut = s_starts + n_left
            node_start[left_ids] = s_starts
            node_end[left_ids] = cut
            node_start[right_ids] = cut
            node_end[right_ids] = s_starts + s_sizes

            nxt = np.empty(2 * n_split, dtype=np.int64)
            nxt[0::2] = left_ids
            nxt[1::2] = right_ids
            active = nxt

        self.perm = perm
        self.num_nodes = count
        self.node_lower = node_lower[:count]
        self.node_upper = node_upper[:count]
        self.node_start = node_start[:count]
        self.node_end = node_end[:count]
        self.left_child = left_child[:count]
        self.right_child = right_child[:count]
        extent = self.node_upper - self.node_lower
        self.node_center = (self.node_lower + self.node_upper) * 0.5
        self.node_radius = self.metric.box_radii(extent)
        self.levels = levels

    # -- serialization ---------------------------------------------------------

    #: Arrays that fully determine the built tree (beyond the point set and
    #: construction parameters).  ``node_center`` / ``node_radius`` and the
    #: level schedule are deterministic functions of these and are recomputed
    #: on restore; ``cd_min`` / ``cd_max`` ride along only when annotated.
    STATE_ARRAY_NAMES = (
        "perm",
        "node_lower",
        "node_upper",
        "node_start",
        "node_end",
        "left_child",
        "right_child",
    )

    def state_arrays(self) -> dict:
        """The built tree as a flat ``name -> ndarray`` mapping.

        Together with the point set, ``leaf_size``, metric and backend this
        is everything :meth:`from_state_arrays` needs to reconstruct a tree
        whose queries are byte-identical to this one — without re-running the
        build.
        """
        arrays = {name: getattr(self, name) for name in self.STATE_ARRAY_NAMES}
        if self.cd_min is not None:
            arrays["cd_min"] = self.cd_min
            arrays["cd_max"] = self.cd_max
        return arrays

    @classmethod
    def from_state_arrays(
        cls,
        points: np.ndarray,
        arrays: dict,
        *,
        leaf_size: int,
        metric: MetricLike = None,
        backend: BackendLike = None,
    ) -> "FlatKDTree":
        """Reconstruct a built tree from :meth:`state_arrays` output.

        The level schedule is rebuilt by a breadth-first sweep that mirrors
        the build's child-allocation order exactly (children of each level's
        split nodes, interleaved left/right in split order), and the derived
        sphere geometry is recomputed from the stored boxes, so the restored
        tree traverses byte-identically to the original.
        """
        tree = object.__new__(cls)
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise InvalidParameterError("points must be an (n, d) array")
        tree.points = points
        tree.metric = resolve_metric(metric)
        tree.backend = resolve_backend(backend)
        tree.scoring_points = tree.backend.lower_points(points)
        tree.leaf_size = int(leaf_size)
        dtype = tree.backend.scoring_dtype
        tree.perm = np.ascontiguousarray(arrays["perm"], dtype=np.int64)
        tree.node_lower = np.ascontiguousarray(arrays["node_lower"], dtype=dtype)
        tree.node_upper = np.ascontiguousarray(arrays["node_upper"], dtype=dtype)
        tree.node_start = np.ascontiguousarray(arrays["node_start"], dtype=np.int64)
        tree.node_end = np.ascontiguousarray(arrays["node_end"], dtype=np.int64)
        tree.left_child = np.ascontiguousarray(arrays["left_child"], dtype=np.int64)
        tree.right_child = np.ascontiguousarray(arrays["right_child"], dtype=np.int64)
        tree.num_nodes = int(tree.left_child.shape[0])
        if tree.perm.shape[0] != points.shape[0]:
            raise InvalidParameterError(
                "tree state does not match the point set: "
                f"perm has {tree.perm.shape[0]} entries for {points.shape[0]} points"
            )
        extent = tree.node_upper - tree.node_lower
        tree.node_center = (tree.node_lower + tree.node_upper) * 0.5
        tree.node_radius = tree.metric.box_radii(extent)
        if "cd_min" in arrays:
            tree.cd_min = np.ascontiguousarray(arrays["cd_min"], dtype=dtype)
            tree.cd_max = np.ascontiguousarray(arrays["cd_max"], dtype=dtype)
        else:
            tree.cd_min = None
            tree.cd_max = None

        levels: List[np.ndarray] = []
        active = np.array([0], dtype=np.int64)
        while active.size:
            levels.append(active)
            internal = active[tree.left_child[active] >= 0]
            if internal.size == 0:
                break
            nxt = np.empty(2 * internal.size, dtype=np.int64)
            nxt[0::2] = tree.left_child[internal]
            nxt[1::2] = tree.right_child[internal]
            active = nxt
        tree.levels = levels
        return tree

    # -- structural accessors -------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    @property
    def height(self) -> int:
        """Length of the longest root-to-leaf path (root alone has height 0)."""
        return len(self.levels) - 1

    @property
    def node_sizes(self) -> np.ndarray:
        return self.node_end - self.node_start

    def point_indices(self, node_id: int) -> np.ndarray:
        """Point indices owned by ``node_id`` (a view into ``perm``)."""
        return self.perm[self.node_start[node_id] : self.node_end[node_id]]

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.left_child < 0)

    def is_leaf(self, node_ids: np.ndarray) -> np.ndarray:
        return self.left_child[node_ids] < 0

    # -- segmented / tree-structured reductions --------------------------------

    def node_value_ranges(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(min, max)`` of a per-point value array, for all nodes.

        Leaf extrema come from one segmented reduction over ``perm`` (leaves
        tile the permutation), and internal nodes are filled by a vectorized
        bottom-up sweep over the recorded levels.  This one primitive powers
        both the core-distance annotation and the per-round connectivity
        snapshots of the GFK/MemoGFK filters.
        """
        values = np.asarray(values)
        if values.shape[0] != self.size:
            raise InvalidParameterError("values must have one entry per point")
        by_pos = values[self.perm]
        out_min = np.empty(self.num_nodes, dtype=values.dtype)
        out_max = np.empty(self.num_nodes, dtype=values.dtype)

        leaves = self.leaf_ids()
        order = np.argsort(self.node_start[leaves], kind="stable")
        leaves = leaves[order]
        offsets = self.node_start[leaves]
        out_min[leaves] = np.minimum.reduceat(by_pos, offsets)
        out_max[leaves] = np.maximum.reduceat(by_pos, offsets)

        for level in reversed(self.levels[:-1]):
            internal = level[self.left_child[level] >= 0]
            if internal.size == 0:
                continue
            left = self.left_child[internal]
            right = self.right_child[internal]
            out_min[internal] = np.minimum(out_min[left], out_min[right])
            out_max[internal] = np.maximum(out_max[left], out_max[right])
        return out_min, out_max

    # -- core-distance annotation (HDBSCAN*) ----------------------------------

    def annotate_core_distances(self, core_distances: np.ndarray) -> None:
        """Fill ``cd_min`` / ``cd_max`` for every node (one vectorized sweep).

        The per-node extrema are stored in the backend's scoring dtype: they
        only ever feed the separation *masks* (never an edge weight), so
        under a lowered backend they ride the float32 fast path with the
        rest of the node arrays.
        """
        core_distances = np.asarray(
            core_distances, dtype=self.backend.scoring_dtype
        )
        if core_distances.shape != (self.size,):
            raise InvalidParameterError("core_distances must have one value per point")
        current_tracker().add(
            self.num_nodes, max(math.log2(self.size + 1), 1.0), phase="core-dist"
        )
        self.cd_min, self.cd_max = self.node_value_ranges(core_distances)

    # -- batched geometric tests ----------------------------------------------

    def min_distances_to_points(
        self, queries: np.ndarray, node_ids: np.ndarray
    ) -> np.ndarray:
        """Minimum box-to-point distance for parallel arrays of (query, node).

        The per-axis gap vector's norm under the tree's metric is the exact
        point-to-box minimum for every norm-induced metric.
        """
        gap = np.maximum(
            np.maximum(
                self.node_lower[node_ids] - queries, queries - self.node_upper[node_ids]
            ),
            0.0,
        )
        return self.metric.diff_norms(gap)

    def mask_within_radii(
        self,
        batch: np.ndarray,
        radii: np.ndarray,
        *,
        strict: bool = False,
    ) -> np.ndarray:
        """Which stored points lie within their *own* radius of any batch row.

        Returns a boolean mask over the tree's points: entry ``x`` is set when
        ``min_s d(x, s) <= radii[x]`` over the rows ``s`` of ``batch``
        (``<`` with ``strict=True``).  This is the touched-region query of the
        incremental engine — with ``radii`` set to the fitted core distances
        it returns exactly the points whose core distance a batched
        insert/delete can perturb.  The traversal prunes a subtree as soon as
        its box-to-batch gap exceeds the subtree's maximum radius (one
        :meth:`node_value_ranges` sweep), and surviving leaf members are
        verified with the exact per-pair metric kernel, so the mask is exact.

        Requires an exact backend: a lowered tree's node boxes bound the
        float32-rounded points, so a box gap could overstate the distance to
        the true float64 points and prune a subtree holding real hits.
        """
        if not self.backend.exact:
            raise InvalidParameterError(
                "mask_within_radii requires an exact backend; the lowered "
                f"backend {self.backend.name!r} rounds node bounds to "
                "float32, which could over-prune true within-radius points"
            )
        out = np.zeros(self.size, dtype=bool)
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[0] == 0 or self.size == 0:
            return out
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (self.size,):
            raise InvalidParameterError("radii must have one value per point")
        # Pruning gaps stay in float64: rounding the batch through a scoring
        # dtype could overstate a box gap and prune a subtree holding true
        # within-radius points, breaking exactness.
        pruning_batch = np.ascontiguousarray(batch, dtype=np.float64)
        node_rmax = self.node_value_ranges(radii)[1]
        chunk = 256

        frontier = np.zeros(1, dtype=np.int64)
        candidates: List[np.ndarray] = []
        while frontier.size:
            gaps = np.full(frontier.size, np.inf, dtype=np.float64)
            for lo in range(0, pruning_batch.shape[0], chunk):
                rows = pruning_batch[lo : lo + chunk]
                rep_nodes = np.repeat(frontier, rows.shape[0])
                tiled = np.tile(rows, (frontier.size, 1))
                gap = self.min_distances_to_points(tiled, rep_nodes)
                np.minimum(
                    gaps, gap.reshape(frontier.size, rows.shape[0]).min(axis=1),
                    out=gaps,
                )
            reach = node_rmax[frontier]
            keep = gaps < reach if strict else gaps <= reach
            frontier = frontier[keep]
            if frontier.size == 0:
                break
            leaf = self.left_child[frontier] < 0
            leaves = frontier[leaf]
            if leaves.size:
                counts = self.node_end[leaves] - self.node_start[leaves]
                candidates.append(
                    self.perm[_segment_ranges(self.node_start[leaves], counts)]
                )
            internal = frontier[~leaf]
            frontier = np.concatenate(
                [self.left_child[internal], self.right_child[internal]]
            )

        if not candidates:
            return out
        cand = np.concatenate(candidates)
        for lo in range(0, cand.shape[0], 4096):
            sub = cand[lo : lo + 4096]
            diff = (
                self.points[sub][:, None, :] - batch[None, :, :]
            ).reshape(-1, batch.shape[1])
            nearest = (
                self.metric.diff_norms(diff)
                .reshape(sub.shape[0], batch.shape[0])
                .min(axis=1)
            )
            hit = nearest < radii[sub] if strict else nearest <= radii[sub]
            out[sub] = hit
        return out

    # -- batched k-nearest-neighbour traversal ---------------------------------

    def query_knn(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN of a block of queries by one batched tree traversal.

        The traversal is level-synchronous over a frontier of (query, node)
        pairs: every iteration prunes the whole frontier against the current
        per-query k-th-distance bounds with array comparisons, folds all leaf
        candidates into the per-query top-k with one segmented merge, and
        expands the surviving internal pairs.

        A preliminary vectorized descent (:meth:`_descend_to_leaf`) picks for
        every query a *seed subtree* holding at least ``k`` points and folds
        it whole, so every ``bound`` is finite before the first frontier
        iteration — with leaves smaller than ``k`` a single home leaf could
        not fill the top-k, and the bound would stay at infinity.  Leaves of
        the seed subtree (a contiguous ``perm`` range) are skipped by the
        frontier, and every fold drops candidates at or beyond the current
        bound before its merge, so only in-bound candidates are sorted.

        Returns ``(indices, distances)`` of shape ``(len(queries), k)`` with
        neighbours sorted by increasing distance.
        """
        # Queries are lowered to the tree's scoring dtype so the whole
        # traversal (gap pruning, candidate folds) runs in one precision;
        # lowered-mode callers refine the returned distances in float64.
        queries = np.ascontiguousarray(queries, dtype=self.backend.scoring_dtype)
        nq = queries.shape[0]
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        if k > self.size:
            raise InvalidParameterError(
                f"k={k} exceeds the number of points {self.size}"
            )
        dtype = self.backend.scoring_dtype
        best_dist = np.full((nq, k), np.inf, dtype=dtype)
        best_idx = np.full((nq, k), -1, dtype=np.int64)
        bound = np.full(nq, np.inf, dtype=dtype)
        if nq == 0:
            return best_idx, best_dist

        # Seed pass: descend every query to a subtree of at least k points and
        # fold it whole, so ``bound`` starts finite and tight.
        seed = self._descend_to_leaf(queries, k)
        seed_start = self.node_start[seed]
        seed_end = self.node_end[seed]
        q_all = np.arange(nq, dtype=np.int64)
        self._fold_leaf_candidates(
            queries, q_all, seed, best_dist, best_idx, bound, k
        )

        # Main frontier traversal from the root.
        frontier_q = q_all
        frontier_n = np.zeros(nq, dtype=np.int64)
        while frontier_q.size:
            md = self.min_distances_to_points(queries[frontier_q], frontier_n)
            keep = md < bound[frontier_q]
            frontier_q = frontier_q[keep]
            frontier_n = frontier_n[keep]
            if frontier_q.size == 0:
                break
            leaf = self.left_child[frontier_n] < 0
            if leaf.any():
                lq = frontier_q[leaf]
                ln = frontier_n[leaf]
                # Leaves inside the seed subtree were already folded.
                start = self.node_start[ln]
                fresh = (start < seed_start[lq]) | (start >= seed_end[lq])
                if fresh.any():
                    self._fold_leaf_candidates(
                        queries, lq[fresh], ln[fresh], best_dist, best_idx, bound, k
                    )
            iq = frontier_q[~leaf]
            inode = frontier_n[~leaf]
            frontier_q = np.concatenate([iq, iq])
            frontier_n = np.concatenate(
                [self.left_child[inode], self.right_child[inode]]
            )
        return best_idx, best_dist

    def _descend_to_leaf(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Vectorized descent to each query's *k-point seed subtree*.

        Starting at the root, every query steps into its nearer child (by
        box gap) for as long as that child holds at least ``k`` points, and
        stops at the first node whose nearer child is smaller — or at a
        leaf.  The returned node therefore always holds at least ``k`` points
        (the root does, as ``k <= n``), so folding it whole fills every
        query's top-k and makes its pruning bound finite.  Its points are the
        contiguous range ``perm[node_start[seed]:node_end[seed]]``.
        """
        node = np.zeros(queries.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.left_child[node] >= 0)
        while active.size:
            left = self.left_child[node[active]]
            right = self.right_child[node[active]]
            dl = self.min_distances_to_points(queries[active], left)
            dr = self.min_distances_to_points(queries[active], right)
            nearer = np.where(dl <= dr, left, right)
            big = self.node_end[nearer] - self.node_start[nearer] >= k
            active = active[big]
            node[active] = nearer[big]
            active = active[self.left_child[node[active]] >= 0]
        return node

    def _fold_leaf_candidates(
        self,
        queries: np.ndarray,
        pair_q: np.ndarray,
        pair_n: np.ndarray,
        best_dist: np.ndarray,
        best_idx: np.ndarray,
        bound: np.ndarray,
        k: int,
    ) -> None:
        """Merge the points of (query, node) pairs into the per-query top-k.

        Candidates at or beyond the query's current bound are dropped before
        the sort: the stable merge below keeps existing entries ahead of
        equal new ones, so such a candidate could never displace one, and
        the returned indices are the same as without the prefilter.
        """
        counts = self.node_end[pair_n] - self.node_start[pair_n]
        cand_q = np.repeat(pair_q, counts)
        cand_i = self.perm[_segment_ranges(self.node_start[pair_n], counts)]
        diff = self.scoring_points[cand_i] - queries[cand_q]
        cand_d = self.metric.diff_norms(diff)
        inside = cand_d < bound[cand_q]
        if not inside.all():
            cand_q = cand_q[inside]
            cand_d = cand_d[inside]
            cand_i = cand_i[inside]
            if cand_q.size == 0:
                return

        # Keep at most k candidates per query before the padded merge.
        order = np.lexsort((cand_d, cand_q))
        cand_q = cand_q[order]
        cand_d = cand_d[order]
        cand_i = cand_i[order]
        uq, grp_start, grp_counts = np.unique(
            cand_q, return_index=True, return_counts=True
        )
        within = np.arange(cand_q.shape[0], dtype=np.int64) - np.repeat(
            grp_start, grp_counts
        )
        keep = within < k
        rows = np.repeat(np.arange(uq.shape[0], dtype=np.int64), grp_counts)[keep]
        cols = within[keep]
        padded_d = np.full((uq.shape[0], k), np.inf, dtype=best_dist.dtype)
        padded_i = np.full((uq.shape[0], k), -1, dtype=np.int64)
        padded_d[rows, cols] = cand_d[keep]
        padded_i[rows, cols] = cand_i[keep]

        merged_d = np.concatenate([best_dist[uq], padded_d], axis=1)
        merged_i = np.concatenate([best_idx[uq], padded_i], axis=1)
        sel = np.argsort(merged_d, axis=1, kind="stable")[:, :k]
        best_dist[uq] = np.take_along_axis(merged_d, sel, axis=1)
        best_idx[uq] = np.take_along_axis(merged_i, sel, axis=1)
        bound[uq] = best_dist[uq, k - 1]
