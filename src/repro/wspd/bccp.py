"""Bichromatic closest pair (BCCP) and its mutual-reachability variant (BCCP*).

Given two point sets ``A`` and ``B`` (two kd-tree nodes, or any two windows
of an index array), BCCP returns the pair ``(u, v)`` with ``u in A`` and
``v in B`` minimizing the distance; BCCP* minimizes the *mutual
reachability* distance ``max(cd(u), cd(v), d(u, v))`` instead.  Both are
computed exactly over all ``|A| * |B|`` candidates, which is how the
paper's implementation computes them as well (the theoretical subquadratic
BCCP is impractical and unimplemented there too).

:func:`bccp_windows` is the engine's one pair-winner kernel:
:func:`bccp_batch` applies it to kd-tree node pairs for the GFK / MemoGFK
round drivers, and the dynamic engine to its tombstoned base tree and update
buffer.  On an exact backend every winner is **the first candidate in
row-major order whose** :meth:`Metric.exact_edge_weights
<repro.core.metric.Metric.exact_edge_weights>` **value equals the pair's
exact minimum** — independent of the scoring kernel, batching, thread count
and memory budget, however far the points sit from the origin.

Each padded size class of pairs is resolved by the backend's
:meth:`~repro.core.backend.KernelBackend.bccp_class` with no per-pair Python
dispatch.  The numpy backend scores a class chunk in the calling thread's
workspace tensor, in the metric's scoring domain (squared distances for
Euclidean, never rooted), with padded slots at ``+inf``; under core
distances one more workspace tensor takes the maximum with the squared (or
plain) core distances.  It takes each pair's argmin, masks it and takes one
more minimum: a certified error band around the scores says whether that
second minimum, and so any other candidate, could attain or tie the exact
minimum, and only such pairs evaluate their banded candidates exactly (a
candidate whose core-distance term dominates is exact without evaluation).
The numba backend's compiled scan flags the pairs it cannot certify and
hands them to the numpy step.  A lowered (float32) backend keeps the plain
argmin of its float32 scores, its documented approximate contract.  Every
returned weight is the winner's exact float64 value.

Results are memoized in a :class:`BCCPCache` keyed by unordered node-id
pairs — matching the paper's remark that "we cache the BCCP results of pairs
to avoid repeated computations" — stored as sorted key/result *arrays* so a
whole round's frontier is partitioned into hits and misses with one
``searchsorted`` instead of per-pair dict probes.

A cache is bound to one ``(tree, metric)`` pair — the metric is part of
its identity, so results computed under different metrics can never mix.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import KernelBackend
from repro.core.context import current_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import Metric
from repro.parallel.pool import current_workspace, parallel_map, resolve_num_threads
from repro.parallel.scheduler import current_tracker
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree

#: Soft cap on the number of padded candidates one batched class chunk may
#: score (8M, so 64 MB per float64 tensor) when no memory budget is active.
#: A numpy chunk holds one such tensor for plain Euclidean BCCP, two with core
#: distances (scores and mutual reachability) and two under the per-axis
#: metrics (scores and axis scratch, which the mutual reachability reuses).
#: A bounded ambient budget shrinks the cap to its tile share, split over
#: that many tensors.
_BATCH_CHUNK_ELEMENTS = 8_000_000

#: Node pairs whose own ``|A| * |B|`` distance matrix reaches this many
#: entries are evaluated individually: one kernel dispatch is already
#: amortized and padding them against a size class would only waste work.
_LARGE_PAIR_ELEMENTS = 16_384


def bccp_batch(
    flat: FlatKDTree,
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    core_distances: Optional[np.ndarray] = None,
    *,
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact BCCP (or BCCP* with ``core_distances``) of whole node-pair arrays.

    :func:`bccp_windows` over the tree's permutation, one window per node
    (its ``[node_start, node_end)`` range).  Returns ``(point_a, point_b,
    distance)`` arrays aligned with the input pair order.
    """
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    start_a = flat.node_start[a_ids]
    start_b = flat.node_start[b_ids]
    return bccp_windows(
        flat.points,
        flat.perm,
        start_a,
        flat.node_end[a_ids] - start_a,
        start_b,
        flat.node_end[b_ids] - start_b,
        core_distances,
        metric=flat.metric,
        backend=flat.backend,
        num_threads=num_threads,
    )


def bccp_windows(
    points: np.ndarray,
    index: np.ndarray,
    start_a: np.ndarray,
    size_a: np.ndarray,
    start_b: np.ndarray,
    size_b: np.ndarray,
    core_distances: Optional[np.ndarray] = None,
    *,
    metric: Metric,
    backend: KernelBackend,
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The BCCP / BCCP* winner of every pair of index windows.

    Pair ``r`` is the cross product of ``index[start_a[r] : start_a[r] +
    size_a[r]]`` and the ``b`` window, scanned in row-major order, under
    the winner rule of the module docstring; a point with an infinite core
    distance never wins while its pair holds another.  Returns ``(point_a,
    point_b, weight)`` aligned with the pairs.  An empty window raises
    :class:`InvalidParameterError`.

    Pairs are grouped by padded size class ``(pad(|A|), pad(|B|))`` (next
    power of two) and each class chunk is one ``backend.bccp_class`` task;
    pairs whose own block reaches ``_LARGE_PAIR_ELEMENTS`` are resolved
    alone.  Every task resolves a disjoint set of rows from those rows'
    blocks alone, and the class padding is fixed before chunking, so the
    results are byte-identical at any thread count and memory budget.
    """
    start_a = np.asarray(start_a, dtype=np.int64)
    size_a = np.asarray(size_a, dtype=np.int64)
    start_b = np.asarray(start_b, dtype=np.int64)
    size_b = np.asarray(size_b, dtype=np.int64)
    m = start_a.size
    out_pa = np.empty(m, dtype=np.int64)
    out_pb = np.empty(m, dtype=np.int64)
    if m == 0:
        return out_pa, out_pb, np.empty(0, dtype=np.float64)
    if size_a.min() < 1 or size_b.min() < 1:
        raise InvalidParameterError("bccp_windows needs non-empty windows")
    scoring_points = backend.lower_points(points)
    pair_work = size_a * size_b
    current_tracker().add(float(pair_work.sum()), 1.0, phase="bccp")
    scoring_cd = None
    if core_distances is not None:
        core_distances = np.asarray(core_distances, dtype=np.float64)
        scoring_cd = np.asarray(core_distances, dtype=backend.scoring_dtype)

    single = np.flatnonzero(pair_work == 1)
    out_pa[single] = index[start_a[single]]
    out_pb[single] = index[start_b[single]]

    # Pairs whose own block is already large amortize one kernel dispatch by
    # themselves; everything else is grouped into power-of-two size classes
    # and padded only up to the class's actual maxima.  Each (sub, p_a, p_b)
    # task resolves a disjoint set of output rows, so the task list can run
    # inline or on the worker pool with identical results.
    workers = resolve_num_threads(num_threads)
    budget = current_context().memory_budget
    tensors = 2 if core_distances is not None else metric.score_tensors
    chunk_elements = budget.tile_elements(
        np.float64,
        default_elements=_BATCH_CHUNK_ELEMENTS,
        parts=workers * tensors,
        component="bccp",
    )
    tasks: list = []
    for row in np.flatnonzero(pair_work >= _LARGE_PAIR_ELEMENTS):
        # A single pair's |A| x |B| block is the irreducible tile, so it
        # stays whole and any overshoot of the tile ceiling is recorded.
        budget.note_allocation(int(pair_work[row]) * 8 * tensors)
        tasks.append(
            (np.array([row], dtype=np.int64), int(size_a[row]), int(size_b[row]))
        )

    small = np.flatnonzero((pair_work > 1) & (pair_work < _LARGE_PAIR_ELEMENTS))
    if small.size:
        bits_a = np.ceil(np.log2(size_a[small])).astype(np.int64)
        bits_b = np.ceil(np.log2(size_b[small])).astype(np.int64)
        class_key = bits_a * 64 + bits_b
        order = np.argsort(class_key, kind="stable")
        rows_sorted = small[order]
        sorted_key = class_key[order]
        boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
        group_starts = np.concatenate([[0], boundaries, [order.size]])

        for g in range(group_starts.size - 1):
            rows = rows_sorted[group_starts[g] : group_starts[g + 1]]
            # Padding is fixed per class *before* chunking, so chunk
            # boundaries cannot change any row's padded block.
            p_a = int(size_a[rows].max())
            p_b = int(size_b[rows].max())
            # Chunk so one class never materializes an oversized tensor; with
            # several workers, split further so the class load-balances.
            chunk = max(1, chunk_elements // (p_a * p_b))
            if workers > 1:
                balanced = -(-int(rows.size) // (4 * workers))
                chunk = max(1, min(chunk, balanced))
            for lo in range(0, rows.size, chunk):
                tasks.append((rows[lo : lo + chunk], p_a, p_b))

    def run_task(task) -> None:
        sub, p_a, p_b = task
        backend.bccp_class(
            metric,
            scoring_points,
            index,
            scoring_cd,
            start_a[sub],
            size_a[sub],
            start_b[sub],
            size_b[sub],
            p_a,
            p_b,
            sub,
            out_pa,
            out_pb,
            current_workspace(),
        )

    parallel_map(run_task, tasks, num_threads=workers)
    weights = metric.exact_edge_weights(points, out_pa, out_pb, core_distances)
    return out_pa, out_pb, weights


class BCCPCache:
    """Memoization of BCCP / BCCP* results keyed by unordered node-id pairs.

    Storage is array-native: one sorted int64 key array (``min_id * num_nodes
    + max_id``) with aligned endpoint/weight result columns.  A whole round's
    frontier is partitioned into cache hits and misses with one vectorized
    ``searchsorted``, the unique misses are evaluated by the batched kernel,
    and the new results are merged back into the sorted store — there is no
    per-pair dict traffic on the hot path.

    The cache also counts distance evaluations, which the memory/ablation
    benchmarks use to quantify how many BCCPs each EMST variant avoided.

    Growth policy: the four result columns are rebuilt on every merge (the
    store must stay sorted), so there is no over-allocation to shrink —
    capacity always equals the live count and :attr:`nbytes` is exact.  Under
    a bounded ambient :class:`~repro.core.budget.MemoryBudget`, a store past
    the budget's spill threshold is kept in unlinked temporary-file memmaps
    (spill-to-disk mode) and its footprint is registered as the
    ``"bccp_cache"`` reservation so tile sizing leaves room for it; every
    accessor behaves identically either way.
    """

    def __init__(
        self,
        tree: KDTree,
        *,
        core_distances: Optional[np.ndarray] = None,
        num_threads: Optional[int] = None,
    ) -> None:
        """``num_threads`` is forwarded to every :func:`bccp_batch` call the
        cache issues, so one knob threads a whole driver's BCCP work."""
        self._tree = tree
        self._flat = tree.flat
        #: The metric every cached result was computed under (part of the
        #: cache's identity: one cache never serves two metrics).
        self.metric = tree.metric
        self._num_threads = num_threads
        self._core_distances = (
            None
            if core_distances is None
            else np.asarray(core_distances, dtype=np.float64)
        )
        self._keys = np.empty(0, dtype=np.int64)
        self._point_a = np.empty(0, dtype=np.int64)
        self._point_b = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self.num_bccp_calls = 0
        self.num_distance_evaluations = 0

    @property
    def uses_mutual_reachability(self) -> bool:
        return self._core_distances is not None

    def _pair_keys(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        lo = np.minimum(a_ids, b_ids)
        hi = np.maximum(a_ids, b_ids)
        return lo * np.int64(self._flat.num_nodes) + hi

    def get_batch(
        self, a_ids: np.ndarray, b_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BCCP (or BCCP*) of a whole frontier of node pairs at once.

        Returns ``(point_a, point_b, distance)`` arrays aligned with the input
        order.  Cached pairs are served from the sorted store; the remaining
        unique pairs are evaluated with one :func:`bccp_batch` call (oriented
        by their first occurrence) and merged into the store.
        """
        a_ids = np.asarray(a_ids, dtype=np.int64)
        b_ids = np.asarray(b_ids, dtype=np.int64)
        m = a_ids.size
        out_pa = np.empty(m, dtype=np.int64)
        out_pb = np.empty(m, dtype=np.int64)
        out_w = np.empty(m, dtype=np.float64)
        if m == 0:
            return out_pa, out_pb, out_w

        keys = self._pair_keys(a_ids, b_ids)
        pos = np.searchsorted(self._keys, keys)
        pos_clipped = np.minimum(pos, max(self._keys.size - 1, 0))
        hit = (
            (self._keys[pos_clipped] == keys)
            if self._keys.size
            else np.zeros(m, dtype=bool)
        )
        hit_pos = pos_clipped[hit]
        out_pa[hit] = self._point_a[hit_pos]
        out_pb[hit] = self._point_b[hit_pos]
        out_w[hit] = self._weights[hit_pos]

        miss = ~hit
        if miss.any():
            miss_idx = np.flatnonzero(miss)
            miss_keys = keys[miss_idx]
            unique_keys, first, inverse = np.unique(
                miss_keys, return_index=True, return_inverse=True
            )
            eval_a = a_ids[miss_idx[first]]
            eval_b = b_ids[miss_idx[first]]
            sizes = self._flat.node_sizes
            self.num_bccp_calls += int(unique_keys.size)
            self.num_distance_evaluations += int(
                (sizes[eval_a] * sizes[eval_b]).sum()
            )
            pa, pb, w = bccp_batch(
                self._flat,
                eval_a,
                eval_b,
                self._core_distances,
                num_threads=self._num_threads,
            )
            out_pa[miss_idx] = pa[inverse]
            out_pb[miss_idx] = pb[inverse]
            out_w[miss_idx] = w[inverse]
            self._insert(unique_keys, pa, pb, w)
        return out_pa, out_pb, out_w

    @property
    def nbytes(self) -> int:
        """Exact bytes held by the four store columns (no over-allocation)."""
        return int(
            self._keys.nbytes
            + self._point_a.nbytes
            + self._point_b.nbytes
            + self._weights.nbytes
        )

    @staticmethod
    def _store(column: np.ndarray, budget) -> np.ndarray:
        """Final storage for a merged column: RAM, or spilled past threshold."""
        if not budget.wants_spill(column.nbytes):
            return column
        spilled = budget.allocate(column.shape[0], column.dtype)
        spilled[:] = column
        return spilled

    def _insert(
        self,
        keys: np.ndarray,
        point_a: np.ndarray,
        point_b: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Merge new (already unique, sorted) results into the sorted store."""
        budget = current_context().memory_budget
        merged_keys = np.concatenate([self._keys, keys])
        order = np.argsort(merged_keys, kind="stable")
        self._keys = self._store(merged_keys[order], budget)
        self._point_a = self._store(
            np.concatenate([self._point_a, point_a])[order], budget
        )
        self._point_b = self._store(
            np.concatenate([self._point_b, point_b])[order], budget
        )
        self._weights = self._store(
            np.concatenate([self._weights, weights])[order], budget
        )
        if budget.bounded:
            budget.reserve("bccp_cache", self.nbytes)

    def close(self) -> None:
        """Release the store columns and the ``"bccp_cache"`` reservation.

        The MST drivers call this in ``finally`` blocks: under a bounded
        budget the columns may be spill-file memmaps, and dropping them here
        unmaps the spill files deterministically even when a fit dies
        mid-round (instead of whenever garbage collection notices).  The
        cache is empty but usable afterwards; the evaluation counters are
        kept so post-mortem statistics stay truthful.
        """
        self._keys = np.empty(0, dtype=np.int64)
        self._point_a = np.empty(0, dtype=np.int64)
        self._point_b = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        budget = current_context().memory_budget
        if budget.bounded:
            budget.release("bccp_cache")

    def __len__(self) -> int:
        return int(self._keys.size)
