"""k-nearest-neighbour queries.

Two interchangeable implementations are provided:

* :func:`knn` — batched kd-tree traversal with bounding-box pruning over the
  flat array engine, the structure the paper uses (Callahan–Kosaraju give the
  O(k n log n) work / O(log n) depth bound for the all-points query).  Queries
  are processed a block at a time: every block descends the tree as one
  frontier of (query, node) pairs pruned with array comparisons, so the
  traversal cost is NumPy-vectorized rather than per-node Python dispatch;
* :func:`knn_bruteforce` — chunked exact brute force built on a single matrix
  product per chunk; O(n^2) but fully dense.

Measured on the all-points query at n=2·10⁴, k=10, leaf size 8 (tree build
included; one 2-vCPU Xeon VM, BLAS pinned to one thread), the kd-tree is
13–17× faster than brute force in 2D and about 5× faster in 7D, and the two
are about even in 16D.

Both return neighbours *including the query point itself*, matching the
paper's definition of the core distance ("distance from p to its
minPts-nearest neighbour, including p itself").
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.budget import MemoryBudget
from repro.core.context import current_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import Metric, MetricLike, resolve_metric
from repro.core.points import as_points
from repro.parallel.pool import parallel_map, resolve_num_threads
from repro.parallel.scheduler import current_tracker
from repro.spatial.kdtree import KDTree

#: Default bytes-per-chunk for the k-NN blocking (the unbudgeted tile size).
#: Block sizes are derived from the actual per-query footprint (k result
#: slots, the merge staging area, the d-dimensional rows — or, for brute
#: force, a whole row of the distance matrix) instead of a fixed row count,
#: so small-k/high-n workloads get large cache-friendly blocks while large-k
#: or high-n brute-force chunks stay within the budget rather than thrashing
#: memory.  Under a bounded ambient :class:`~repro.core.budget.MemoryBudget`
#: the per-chunk bytes shrink to the budget's tile share instead.
_CHUNK_BUDGET_BYTES = 8 << 20

#: Clamps keeping blocks big enough to amortize NumPy dispatch and small
#: enough that every worker gets several blocks to balance across.
_MIN_BLOCK_ROWS = 32
_MAX_BLOCK_ROWS = 8192


def _tree_query_block_rows(
    k: int, dim: int, budget: MemoryBudget, workers: int
) -> int:
    """Queries per traversal block from the bytes-per-chunk budget.

    Each in-flight query carries its ``(k,)`` index/distance rows, the
    ``(2k,)`` merge staging copies and a few frontier entries of gathered
    ``dim``-vectors; the block size bounds the traversal's live footprint and
    doubles as the unit of work dispatched to the worker pool (``workers``
    concurrent blocks are live, so a bounded budget divides its tile share
    accordingly).  The per-query results are independent of the blocking, so
    every block size (and thread count) returns identical arrays.
    """
    per_query = 48 * k + 64 * dim + 64
    return budget.tile_rows(
        per_query,
        default_bytes=_CHUNK_BUDGET_BYTES,
        minimum=_MIN_BLOCK_ROWS,
        maximum=_MAX_BLOCK_ROWS,
        parts=workers,
        component="knn",
    )


def _bruteforce_chunk_rows(n: int, k: int, dim: int, budget: MemoryBudget) -> int:
    """Rows per brute-force chunk: one chunk materializes ``rows × n`` distances.

    Unlike the tree traversal's per-query folds, the brute-force distance
    block is a single BLAS ``matmul`` whose kernel dispatch (gemm vs gemv,
    small-matrix paths) depends on the chunk's row count — re-tiling it under
    a budget would change low-order bits of the reported distances.  The
    chunk size therefore stays at its fixed derivation and the chunk block is
    recorded as an irreducible allocation, keeping the budget's peak
    accounting honest without breaking the byte-identity contract.
    """
    per_row = 8 * (2 * n + 4 * k + dim)
    rows = int(min(max(_CHUNK_BUDGET_BYTES // per_row, 1), _MAX_BLOCK_ROWS))
    budget.note_allocation(rows * per_row)
    return rows


def _refine_block(
    metric: Metric, queries: np.ndarray, data: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact float64 distances of already-selected neighbours, re-sorted.

    Lowered (float32-scoring) backends select the neighbour *sets* in float32;
    this pass restores the reported distances — and the within-row order — to
    exact float64 with a difference-and-norm evaluation over only the selected
    ``rows × k`` pairs, never the full candidate set.  ``queries`` / ``data``
    must be the original float64 arrays.
    """
    gathered = data[idx]  # (rows, k, d)
    diff = (queries[:, None, :] - gathered).reshape(-1, queries.shape[1])
    refined = metric.diff_norms(diff).reshape(idx.shape)
    order = np.argsort(refined, axis=1, kind="stable")
    rows = np.arange(idx.shape[0])[:, None]
    return idx[rows, order], refined[rows, order]


def knn(
    tree: KDTree,
    k: int,
    *,
    queries: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest neighbours of every query point using a kd-tree.

    Parameters
    ----------
    tree:
        A :class:`~repro.spatial.kdtree.KDTree` over the data points.  The
        tree's metric governs the query: neighbours and distances are
        metric-correct for whatever metric the tree was built with.
    k:
        Number of neighbours to return (``k <= n``); the query point itself is
        counted when it is part of the data set.
    queries:
        Points to query; defaults to the tree's own points (the all-points
        query used for core distances).
    num_threads:
        If > 1, query blocks are dispatched on the persistent worker pool
        (:func:`repro.parallel.pool.get_pool`).  Block boundaries do not
        depend on the thread count, so the returned arrays are byte-identical
        at any setting.

    Returns
    -------
    (indices, distances):
        Arrays of shape ``(num_queries, k)``; neighbours are sorted by
        increasing distance.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if k > tree.size:
        raise InvalidParameterError(f"k={k} exceeds the number of points {tree.size}")
    if queries is None:
        query_points = tree.points
    else:
        query_points = as_points(queries)
        if query_points.shape[1] != tree.dimension:
            raise InvalidParameterError("query dimensionality does not match the tree")

    n_queries = query_points.shape[0]
    tracker = current_tracker()
    tracker.add(
        k * n_queries * max(math.log2(tree.size), 1.0),
        max(math.log2(tree.size), 1.0),
        phase="knn",
    )

    flat = tree.flat
    lowered = flat.backend.lowered
    block = _tree_query_block_rows(
        k,
        tree.dimension,
        current_context().memory_budget,
        resolve_num_threads(num_threads),
    )
    block_starts = list(range(0, n_queries, block))

    def query_block(start: int) -> Tuple[np.ndarray, np.ndarray]:
        stop = min(start + block, n_queries)
        idx, dist = flat.query_knn(query_points[start:stop], k)
        if lowered:
            # The traversal scored candidates in float32; re-evaluate only
            # the selected neighbours in exact float64.
            idx, dist = _refine_block(
                tree.metric, query_points[start:stop], tree.points, idx
            )
        return idx, dist

    results = parallel_map(query_block, block_starts, num_threads=num_threads)
    indices = np.vstack([r[0] for r in results])
    distances = np.vstack([r[1] for r in results])
    return indices, distances


def knn_bruteforce(
    points,
    k: int,
    *,
    chunk_size: Optional[int] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    backend: BackendLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k-NN of every point against the whole set via chunked brute force.

    The ``(n, n)`` distance matrix is never materialized: queries are processed
    in chunks (by default sized so one chunk's ``rows × n`` distance block
    fits the bytes-per-chunk budget; pass ``chunk_size`` to override), and
    within a chunk the backend's selection kernel keeps the k smallest
    distances (``argpartition`` + stable sort for numpy, a compiled bounded
    insertion scan for numba).  With ``num_threads > 1`` the chunks run on
    the persistent worker pool; chunk boundaries are independent of the thread
    count, so results are byte-identical at any setting.  ``metric`` selects
    the distance (Euclidean by default); ``backend`` the kernel backend
    (``None`` for the ambient default).  Under a lowered backend the scan
    runs in float32 and the selected neighbours are re-evaluated in exact
    float64.
    """
    data = as_points(points)
    resolved_metric = resolve_metric(metric)
    resolved_backend = resolve_backend(backend)
    scoring_data = resolved_backend.lower_points(data)
    n = data.shape[0]
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if k > n:
        raise InvalidParameterError(f"k={k} exceeds the number of points {n}")

    current_tracker().add(float(n) * n, max(math.log2(n), 1.0), phase="knn")

    if chunk_size is None:
        chunk_size = _bruteforce_chunk_rows(
            n, k, data.shape[1], current_context().memory_budget
        )
    chunk_starts = list(range(0, n, chunk_size))

    def process_chunk(start: int) -> Tuple[np.ndarray, np.ndarray]:
        stop = min(start + chunk_size, n)
        idx, dist = resolved_backend.knn_chunk(
            resolved_metric, scoring_data[start:stop], scoring_data, k
        )
        if resolved_backend.lowered:
            idx, dist = _refine_block(resolved_metric, data[start:stop], data, idx)
        return idx, dist

    results = parallel_map(process_chunk, chunk_starts, num_threads=num_threads)
    indices = np.vstack([r[0] for r in results]).astype(np.int64)
    distances = np.vstack([r[1] for r in results])
    return indices, distances


def knn_distances(points, k: int, **kwargs) -> np.ndarray:
    """Distance to the k-th nearest neighbour of every point (self included).

    This is exactly the core-distance computation of HDBSCAN* with
    ``k = minPts``.
    """
    _, distances = knn_bruteforce(points, k, **kwargs)
    return distances[:, -1]
