"""Well-separated pair decomposition (Algorithm 1 of the paper).

The decomposition walks the kd-tree exactly as the paper's pseudocode does:
for every internal node it calls FIND_PAIR on its two children; FIND_PAIR
records the pair if it is well-separated, and otherwise splits the child with
the larger bounding sphere and recurses on both halves.

The walk is executed *frontier-at-a-time* over the flat array engine: every
round holds the whole set of pending (A, B) pairs as two node-id arrays,
evaluates the separation predicate for all of them with one vectorized mask,
records the separated pairs, and expands the rest — the same visits the
paper's parallel recursion performs, charged identically to the work–depth
tracker, but with NumPy array operations in place of per-node Python calls.

Two separation criteria are supported via ``separation``:

* ``"geometric"`` — the standard definition used for EMST;
* ``"hdbscan"``  — the paper's new disjunctive definition used for HDBSCAN*,
  which requires the tree to carry core-distance annotations.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.core.context import current_context
from repro.core.errors import InvalidParameterError, NotComputedError
from repro.parallel import pool as _pool
from repro.parallel.pool import map_shards, resolve_num_threads
from repro.parallel.scheduler import current_tracker
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.separation import (
    epsilon_certified_mask,
    hdbscan_well_separated_mask,
    well_separated_mask,
)


PairMask = Callable[[np.ndarray, np.ndarray], np.ndarray]


def separation_mask(
    flat: FlatKDTree, separation: str, s: float, epsilon: Optional[float] = None
) -> PairMask:
    """Vectorized separation predicate over node-id arrays of ``flat``.

    ``"geometric"`` and ``"hdbscan"`` are the paper's two notions;
    ``"epsilon-certified"`` (requires ``epsilon``) is the approximation
    subsystem's notion — classically separated *and* the representative edge
    certified within ``(1 + ε)`` of the pair's BCCP — used by
    :func:`repro.approx.emst.approx_emst`.
    """
    if separation == "geometric":
        return lambda a, b: well_separated_mask(flat, a, b, s)
    if separation == "hdbscan":
        if flat.cd_min is None:
            raise NotComputedError(
                "hdbscan separation requires annotate_core_distances() on the tree"
            )
        return lambda a, b: hdbscan_well_separated_mask(flat, a, b)
    if separation == "epsilon-certified":
        if epsilon is None:
            raise InvalidParameterError(
                "epsilon-certified separation requires an epsilon value"
            )
        return lambda a, b: epsilon_certified_mask(flat, a, b, s, epsilon)
    raise InvalidParameterError(
        "separation must be 'geometric', 'hdbscan' or 'epsilon-certified', "
        f"got {separation!r}"
    )


#: Live bytes per frontier pair inside one predicate/bound shard: the two
#: int64 id slices, the boolean (or float64) output slice, and the gathered
#: per-node geometry temporaries (centers, radii, extents) the separation
#: predicates materialize.
_PAIR_SHARD_BYTES_PER_ROW = 128


def pair_chunk_size(num_threads: Optional[int] = None) -> int:
    """Pairs per frontier shard (``DEFAULT_CHUNK`` when unbudgeted).

    Shared by the WSPD separation sweeps and the MemoGFK bound sweeps: the
    unbudgeted size is ``repro.parallel.pool.DEFAULT_CHUNK`` (read at call
    time, so tests can lower it); a bounded ambient memory budget derives the
    shard from its tile share instead.  The sharded kernels are elementwise,
    so every chunk size yields byte-identical results.
    """
    budget = current_context().memory_budget
    return budget.tile_rows(
        _PAIR_SHARD_BYTES_PER_ROW,
        default_bytes=_pool.DEFAULT_CHUNK * _PAIR_SHARD_BYTES_PER_ROW,
        minimum=256,
        parts=resolve_num_threads(num_threads),
        component="wspd",
    )


def evaluate_pair_mask(
    predicate: PairMask,
    a: np.ndarray,
    b: np.ndarray,
    *,
    num_threads: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Evaluate an elementwise pair predicate, sharded on the worker pool.

    The frontier is cut at fixed chunk boundaries (independent of the thread
    count; defaulting to ``repro.parallel.pool.DEFAULT_CHUNK``, read at call
    time, scaled down under a bounded ambient memory budget) and every shard
    writes its slice of one output mask, so the result is byte-identical to
    ``predicate(a, b)`` at any ``num_threads`` — the predicates are purely
    elementwise over the pair arrays, so *any* chunk size returns the same
    mask.
    """
    if chunk_size is None:
        chunk_size = pair_chunk_size(num_threads)
    m = int(a.size)
    if resolve_num_threads(num_threads) == 1 or m < 2 * chunk_size:
        return predicate(a, b)
    out = np.empty(m, dtype=bool)

    def shard(lo: int, hi: int) -> None:
        out[lo:hi] = predicate(a[lo:hi], b[lo:hi])

    map_shards(shard, m, num_threads=num_threads, chunk_size=chunk_size)
    return out


def frontier_step(
    flat: FlatKDTree,
    a: np.ndarray,
    b: np.ndarray,
    predicate: PairMask,
    *,
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One FIND_PAIR round over a frontier of pending node pairs.

    Orients every pair so the node with the larger bounding sphere comes
    first, evaluates the separation ``predicate`` for the whole frontier
    (sharded over the worker pool when ``num_threads > 1``; the select and
    expansion steps stay whole-frontier, so the outputs are identical at any
    thread count), and splits it three ways: the separated pairs, the
    both-leaf pairs (duplicate points — unsplittable yet not separated), and
    the expansion of everything else (larger node replaced by its two
    children).  This is the single traversal kernel shared by the WSPD
    construction and the MemoGFK GETRHO / GETPAIRS sweeps, which keeps the
    three in floating-point lockstep.

    Returns ``(separated, sep_a, sep_b, dup_a, dup_b, next_a, next_b)``.
    ``separated`` is a mask over the *input* frontier order (preserved by the
    orientation swap), so symmetric per-pair values computed before the call
    — e.g. the ρ lower bounds — can be gathered with it.
    """
    left_child = flat.left_child
    right_child = flat.right_child
    swap = flat.node_radius[a] < flat.node_radius[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    separated = evaluate_pair_mask(predicate, a, b, num_threads=num_threads)
    sep_a, sep_b = a[separated], b[separated]
    a, b = a[~separated], b[~separated]
    # Split the node with the larger bounding sphere.  A leaf cannot be
    # split; in that case split the other node instead (this only happens
    # with duplicate points).
    a_leaf = left_child[a] < 0
    a, b = np.where(a_leaf, b, a), np.where(a_leaf, a, b)
    both_leaf = left_child[a] < 0
    dup_a, dup_b = a[both_leaf], b[both_leaf]
    a, b = a[~both_leaf], b[~both_leaf]
    next_a = np.concatenate([left_child[a], right_child[a]])
    next_b = np.concatenate([b, b])
    return separated, sep_a, sep_b, dup_a, dup_b, next_a, next_b


def _check_wspd_tree(tree: KDTree) -> None:
    if tree.leaf_size != 1 and int(tree.flat.node_sizes[tree.flat.leaf_ids()].max()) > 1:
        raise InvalidParameterError(
            "the WSPD requires a kd-tree built with leaf_size=1: pairs of points "
            "inside a multi-point leaf would never be covered by the decomposition"
        )


def iterate_wspd_ids(
    flat: FlatKDTree,
    *,
    separation: str = "geometric",
    s: float = 2.0,
    epsilon: Optional[float] = None,
    predicate: Optional[PairMask] = None,
    num_threads: Optional[int] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield the WSPD of ``flat`` as batches of node-id array pairs.

    Each yielded ``(a_ids, b_ids)`` batch holds the pairs recorded during one
    frontier round; concatenating all batches gives the full decomposition.
    This is the array-native core that :func:`compute_wspd_ids`,
    :func:`count_wspd_pairs` and the GFK driver all share.  ``num_threads``
    shards each round's separation test over the worker pool; the yielded
    batches are byte-identical at any setting.  ``epsilon`` parameterizes the
    ``"epsilon-certified"`` separation; ``predicate`` overrides the named
    separation with a custom pair mask (the approximate HDBSCAN* pipeline
    supplies its mutual-reachability certificate this way) — coverage is
    guaranteed for any predicate because unsplittable pairs are always
    recorded.
    """
    if predicate is None:
        predicate = separation_mask(flat, separation, s, epsilon)
    tracker = current_tracker()
    n = max(flat.size, 2)
    log_n = max(math.log2(n), 1.0)
    tracker.add(0.0, log_n, phase="wspd")

    # Stage 1 (WSPD procedure): one FIND_PAIR call per internal node.
    internal = np.flatnonzero(flat.left_child >= 0)
    tracker.add(float(internal.size), log_n, phase="wspd")
    if internal.size == 0:
        return

    # Stage 2 (FIND_PAIR): one frontier of pending pairs in place of the
    # parallel recursion.  Every frontier element is an independent parallel
    # task in the modelled algorithm, so only work (not depth) is charged per
    # visit; the O(log n) recursion depth was charged once above.
    a = flat.left_child[internal]
    b = flat.right_child[internal]
    while a.size:
        tracker.add(float(a.size), 0, phase="wspd")
        _, sep_a, sep_b, dup_a, dup_b, a, b = frontier_step(
            flat, a, b, predicate, num_threads=num_threads
        )
        if sep_a.size:
            yield sep_a, sep_b
        if dup_a.size:
            # Both singletons and not well separated: duplicates.  Record
            # them anyway so the decomposition covers the pair.
            yield dup_a, dup_b


def compute_wspd_ids(
    tree: KDTree,
    *,
    separation: str = "geometric",
    s: float = 2.0,
    epsilon: Optional[float] = None,
    predicate: Optional[PairMask] = None,
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The full decomposition as two parallel node-id arrays."""
    _check_wspd_tree(tree)
    batches = list(
        iterate_wspd_ids(
            tree.flat,
            separation=separation,
            s=s,
            epsilon=epsilon,
            predicate=predicate,
            num_threads=num_threads,
        )
    )
    if not batches:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (
        np.concatenate([batch[0] for batch in batches]),
        np.concatenate([batch[1] for batch in batches]),
    )


def count_wspd_pairs(
    tree: KDTree,
    *,
    separation: str = "geometric",
    s: float = 2.0,
) -> int:
    """Number of pairs the decomposition produces, without storing them."""
    _check_wspd_tree(tree)
    return sum(
        int(batch[0].size)
        for batch in iterate_wspd_ids(tree.flat, separation=separation, s=s)
    )


def validate_wspd_realization(
    tree: KDTree, a_ids: np.ndarray, b_ids: np.ndarray
) -> bool:
    """Check the realization property of a decomposition given as node ids:
    every unordered point pair is covered by exactly one recorded pair.

    This is an O(sum |A||B|) check used by the test suite on small inputs; it
    returns True when properties (2)–(4) of the paper's Section 2.3 hold.
    """
    n = tree.size
    covered = set()
    for a, b in zip(np.asarray(a_ids).tolist(), np.asarray(b_ids).tolist()):
        for i in tree.flat.point_indices(a).tolist():
            for j in tree.flat.point_indices(b).tolist():
                key = (min(i, j), max(i, j))
                if i == j or key in covered:
                    return False
                covered.add(key)
    return len(covered) == n * (n - 1) // 2
