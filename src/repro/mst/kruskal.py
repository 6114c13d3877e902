"""Kruskal's minimum-spanning-tree algorithm (plain and batched).

``kruskal_batch`` is the PARALLEL_KRUSKAL subroutine of Algorithms 2 and 3:
it receives one batch of edges whose weights are no smaller than those of any
previously processed batch, sorts the batch, and unions across a *shared*
union-find structure, appending accepted edges to a shared output list.
``kruskal`` is the classic single-shot version used by the naive EMST, the
Delaunay EMST, and various baselines.

The batch path is array-native: the batch's weight array is argsorted once
(stable, so ties keep their input order exactly like the previous per-tuple
``list.sort``), the union sweep runs over the sorted index arrays via
:meth:`repro.parallel.unionfind.UnionFind.union_many`, and the accepted edges
are appended to the output with one ``extend_arrays`` call — no per-edge tuple
unpacking or Python sort keys anywhere.

With ``num_threads > 1`` the argsort itself runs as a parallel chunked merge
sort (:func:`parallel_argsort`): fixed contiguous chunks are stably argsorted
on the worker pool and pairwise-merged with vectorized ``searchsorted``
passes.  Because chunks cover contiguous index ranges and merges break weight
ties in favour of the left (lower-index) run, the resulting permutation is
*exactly* ``np.argsort(w, kind="stable")`` — the threaded Kruskal accepts the
same edges in the same order as the sequential one.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.budget import MemoryBudget
from repro.core.context import current_context
from repro.mst.edges import EdgeList, coerce_edge_arrays
from repro.parallel.pool import parallel_map, resolve_num_threads, shard_ranges
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind

#: Rows per sort chunk when no memory budget is active; fixed (never derived
#: from the thread count) so the chunk boundaries — and therefore the merge
#: tree — are deterministic.  A bounded budget shrinks the chunk to its tile
#: share instead, which is equally safe: the chunked merge sort equals
#: ``np.argsort(..., kind="stable")`` at *any* chunk size.
_SORT_CHUNK = 1 << 15

#: Live bytes per row of one sort chunk: the gathered weight slice (8), the
#: chunk's argsort permutation (8) and the merge round's staging copies (16).
_SORT_BYTES_PER_ROW = 32


def _sort_chunk_rows(budget: MemoryBudget, workers: int) -> int:
    """Rows per sort chunk (the historical ``_SORT_CHUNK`` when unbudgeted)."""
    return budget.tile_rows(
        _SORT_BYTES_PER_ROW,
        default_bytes=_SORT_CHUNK * _SORT_BYTES_PER_ROW,
        minimum=1024,
        parts=workers,
        component="sort",
    )


def _merge_runs(
    weights: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Stably merge two sorted index runs of one weight array.

    ``left`` must hold strictly smaller original indices than ``right`` (true
    for contiguous chunks merged in order), so on weight ties every element of
    ``left`` precedes every tied element of ``right`` — the stable-sort rule.
    """
    w_left = weights[left]
    w_right = weights[right]
    # Position of each right element: its rank within its own run plus the
    # number of left elements placed before it (ties included, hence 'right').
    pos_right = np.searchsorted(w_left, w_right, side="right")
    pos_right += np.arange(right.size, dtype=np.int64)
    merged = np.empty(left.size + right.size, dtype=np.int64)
    left_slots = np.ones(merged.size, dtype=bool)
    left_slots[pos_right] = False
    merged[pos_right] = right
    merged[left_slots] = left
    return merged


def parallel_argsort(
    weights: np.ndarray, *, num_threads: Optional[int] = None
) -> np.ndarray:
    """``np.argsort(weights, kind="stable")`` as a parallel chunked merge sort.

    Fixed contiguous chunks are stably argsorted (each chunk on a pool
    worker), then pairwise-merged in ``log2(chunks)`` rounds; adjacent runs
    are merged so every left run holds smaller original indices than its
    right partner, which makes the tie-breaking identical to a global stable
    argsort.  Small inputs (or ``num_threads <= 1``) fall back to
    ``np.argsort`` directly; both paths return bit-identical permutations.
    """
    m = int(weights.shape[0])
    workers = resolve_num_threads(num_threads)
    chunk = _sort_chunk_rows(current_context().memory_budget, workers)
    if workers == 1 or m < 2 * chunk:
        return np.argsort(weights, kind="stable")

    def sort_chunk(span: Tuple[int, int]) -> np.ndarray:
        lo, hi = span
        return lo + np.argsort(weights[lo:hi], kind="stable")

    runs: List[np.ndarray] = parallel_map(
        sort_chunk, shard_ranges(m, chunk), num_threads=num_threads
    )
    while len(runs) > 1:
        pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
        merged = parallel_map(
            lambda pair: _merge_runs(weights, pair[0], pair[1]),
            pairs,
            num_threads=num_threads,
        )
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]

EdgeBatch = Union[
    "EdgeList", Tuple[np.ndarray, np.ndarray, np.ndarray], Iterable[Tuple[int, int, float]]
]


def kruskal_batch_arrays(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    output: EdgeList,
    union_find: UnionFind,
    *,
    num_threads: Optional[int] = None,
) -> int:
    """Process one batch of edges given as parallel arrays.

    Returns the number of edges accepted into ``output``.  The caller is
    responsible for only passing batches in non-decreasing weight order across
    calls (GFK/MemoGFK guarantee this by construction).  ``num_threads``
    parallelizes the weight sort (:func:`parallel_argsort`); the union sweep
    is inherently sequential and unaffected.
    """
    m = int(u.shape[0])
    if m == 0:
        return 0
    tracker = current_tracker()
    tracker.add(m * max(math.log2(m), 1.0), max(math.log2(m), 1.0), phase="kruskal")
    order = parallel_argsort(w, num_threads=num_threads)
    su = u[order]
    sv = v[order]
    accepted = union_find.union_many(su, sv)
    count = int(np.count_nonzero(accepted))
    if count:
        output.extend_arrays(su[accepted], sv[accepted], w[order][accepted])
    return count


def kruskal_filtered_arrays(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    output: EdgeList,
    union_find: UnionFind,
    *,
    num_threads: Optional[int] = None,
    chunk_size: int = 1 << 16,
) -> int:
    """Kruskal over one large candidate edge array, with vectorized pruning.

    Semantically identical to :func:`kruskal_batch_arrays` — same sorted
    order, same union-find, same accepted edge set — but engineered for the
    oversized candidate lists the approximate EMST produces, where the
    candidates outnumber the ``n - 1`` survivors by an order of magnitude:

    * the sorted edges are processed in fixed chunks, and before each chunk's
      sequential union sweep a component snapshot
      (:meth:`~repro.parallel.unionfind.UnionFind.roots`) discards every edge
      whose endpoints are already connected — edges the per-edge sweep would
      reject one Python iteration at a time;
    * once the union-find reaches a single component no later edge can be
      accepted, so the remaining chunks are skipped entirely.

    Both optimizations only skip edges Kruskal would reject, so the result is
    byte-identical to the plain batch at any ``num_threads`` and any
    ``chunk_size``.  Returns the number of edges accepted into ``output``.
    """
    m = int(u.shape[0])
    if m == 0:
        return 0
    tracker = current_tracker()
    tracker.add(m * max(math.log2(m), 1.0), max(math.log2(m), 1.0), phase="kruskal")
    order = parallel_argsort(w, num_threads=num_threads)
    su = u[order]
    sv = v[order]
    sw = w[order]
    count = 0
    for lo in range(0, m, chunk_size):
        if union_find.num_components == 1:
            break
        hi = min(lo + chunk_size, m)
        roots = union_find.roots()
        cu = su[lo:hi]
        cv = sv[lo:hi]
        keep = roots[cu] != roots[cv]
        if not keep.any():
            continue
        ku = cu[keep]
        kv = cv[keep]
        accepted = union_find.union_many(ku, kv)
        hits = int(np.count_nonzero(accepted))
        if hits:
            output.extend_arrays(ku[accepted], kv[accepted], sw[lo:hi][keep][accepted])
            count += hits
    return count


def kruskal_batch(
    edges: EdgeBatch,
    output: EdgeList,
    union_find: UnionFind,
    *,
    num_threads: Optional[int] = None,
) -> int:
    """Process one batch of edges with a shared union-find.

    ``edges`` may be an :class:`EdgeList`, a ``(u, v, w)`` tuple of parallel
    arrays, or any iterable of ``(u, v, weight)`` tuples; see
    :func:`kruskal_batch_arrays` for the batching contract.
    """
    u, v, w = coerce_edge_arrays(edges)
    return kruskal_batch_arrays(u, v, w, output, union_find, num_threads=num_threads)


def kruskal(
    edges: EdgeBatch,
    num_vertices: int,
    *,
    union_find: Optional[UnionFind] = None,
    num_threads: Optional[int] = None,
) -> EdgeList:
    """Minimum spanning forest of an explicit edge list.

    Returns the accepted edges (``num_vertices - 1`` of them when the input
    graph is connected).
    """
    union_find = union_find if union_find is not None else UnionFind(num_vertices)
    output = EdgeList()
    kruskal_batch(edges, output, union_find, num_threads=num_threads)
    return output
