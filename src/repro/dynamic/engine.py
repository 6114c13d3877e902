"""Incremental insert/delete engine over a fitted serving state.

A cold HDBSCAN*/EMST fit is dominated by two global computations — the
all-points core distances and the BCCPs of the full well-separated pair
decomposition.  Under a small batched update almost all of that work is
provably unchanged: a core distance can only move when the update lands
inside the point's current core radius, and a WSPD pair's minimum
mutual-reachability edge can only move when a member dies or a member's
core distance changes — and a member whose core distance shrank can only
lower it through that member's own candidates.  :func:`update_batch`
exploits exactly that, folding a batch of deletes and a batch of inserts
into **one** repair pass and one state rebuild (:func:`insert_batch` /
:func:`delete_batch` are its one-sided forms):

* the *base* tree (a leaf-size-1 kd-tree over the points present when the
  support was built) is tombstoned, never restructured: deletions flip an
  ``alive`` bit and the live core-distance extrema are re-annotated in one
  sweep.  Its WSPD pair decomposition is cached with per-pair BCCP winners
  and repaired locally per update;
* inserted points go to a side *buffer*.  Each buffered point is paired
  against the base tree once, by a separation descent, and its (point,
  base node) pairs are cached beside the base pairs with their winners and
  exact values;
* the same update pass repairs both tables under the same rules.  Pairs
  whose node lost every alive member are dropped, pairs whose node holds a
  touched base point are re-tested and re-split, and a winner is resolved
  again at full pair size only when it died or its value grew.  A member
  whose core distance *shrank* is handled by its own rows: in a base pair
  every such member that a certified bound admits as a possible undercut
  is resolved as one (member, other node) point×node pair, and in a
  buffer pair a shrunk base member is one exact row against the buffered
  point; the pair keeps the smaller of its refreshed winner and those
  rows.  A buffered point whose own core distance shrank is dropped and
  descends again, like a new insert; one whose core distance grew keeps
  its pairs and refreshes their values.  So an update resolves its own
  inserts' pairs, the rows of the points it touched and the few winners
  it invalidated, not whole pairs or the whole buffer.  Buffered points
  pair with each other through a tiny WSPD of their own, rebuilt every
  update.  A log-scheduled full rebuild folds the buffer in (or drops the
  tombstones), clearing the cached buffer pairs with it, before either
  side grows past a fixed fraction of n;
* every pair winner, base or buffer, comes from the cold fit's BCCP
  kernel (:func:`repro.wspd.bccp.bccp_windows`, dead points masked by an
  infinite core distance) unless the pair resolves at box level or by
  one exact row;
* every update re-assembles the state once — exact candidate edge weights
  via :meth:`Metric.exact_edge_weights`, the canonical MST normal form of
  :func:`repro.mst.canonical_mst_arrays`, a fresh dendrogram (bottom-up
  sweep) and condensed tree.  The cold fit (:func:`fit_dynamic`, which is
  :func:`repro.serve.state.fit_state`'s MemoGFK fit) puts its MST into the
  same normal form.  Conformance therefore reduces to both sides
  presenting candidate sets with the same weight-class filtration, which
  the WSPD coverage argument guarantees; the result is **byte-identical**
  to a cold refit of the surviving points, across metrics, thread counts
  and memory budgets.

The cut cache of the returned state starts empty: an update changes ``n``,
so every cached labelling of the previous state is invalid by construction —
full invalidation is exact, not conservative.

No cold fit builds repair support: only updates need it.  Every state of
an exact backend — from :func:`fit_dynamic`,
:func:`repro.serve.state.fit_state`, ``load_state`` or a rebuilding
update — gets its support on its first update (or on the first read of
:data:`SUPPORT_ATTR`), built from its points and core distances.  A state that has been updated *from* hands its
support to the successor state; updating it again rebuilds its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.budget import BudgetLike
from repro.core.context import use_context
from repro.core.errors import InvalidParameterError, InvalidPointSetError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.dendrogram.condensed import condense_dendrogram
from repro.dendrogram.sequential import dendrogram_sequential
from repro.dynamic.spatial import (
    descend_singleton_pairs,
    live_cd_extrema,
    masked_pair_winners,
    node_any_flags,
    node_member_rows,
    singleton_separated_mask,
    winner_beat_mask,
)
from repro.mst.canonical import canonical_mst_arrays
from repro.mst.kruskal import parallel_argsort
from repro.serve.state import (
    DEFAULT_CUT_CACHE,
    SERVING_LEAF_SIZE,
    FitState,
    _fit,
    _state_fingerprint,
)
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import knn
from repro.wspd.separation import hdbscan_well_separated_mask
from repro.wspd.wspd import compute_wspd_ids, frontier_step

#: Attribute under which a state's repair support travels.
SUPPORT_ATTR = "_dynamic"

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)
# Descent roots per (buffer point, base node) block.  With 1200 buffered
# points descending from the root at n=10^4 (2D-SS-varden, one core) blocks
# of 64 were the fastest of 16/64/256/1024 and held the transient peak at
# 19 MB against 262 MB unblocked.
_BUFFER_BLOCK = 64


class DynamicSupport:
    """Mutable repair state riding along with an updatable state.

    Point identity is *stable ids*: slots ``0..n_base-1`` are the base
    tree's points, later slots are buffered inserts; ``order`` maps each
    current row to its stable id (deletes compact it, inserts append).
    ``pair_u`` / ``pair_v`` hold the cached BCCP winner (as stable ids) of
    every live base WSPD pair ``(pair_a, pair_b)``.  The buffer's pairs
    against the base tree are cached beside them: ``bpair_q`` is the
    buffered point (its own side of the pair and of the winner),
    ``bpair_node`` the base node, ``bpair_v`` the winning base point and
    ``bpair_w`` the pair's exact minimum.
    """

    def __init__(
        self,
        *,
        metric,
        backend,
        base_tree: Optional[KDTree],
        base_alive: np.ndarray,
        stable_points: np.ndarray,
        stable_cd: np.ndarray,
        order: np.ndarray,
        buffer: np.ndarray,
        pair_a: np.ndarray,
        pair_b: np.ndarray,
        pair_u: np.ndarray,
        pair_v: np.ndarray,
        pair_w: np.ndarray,
    ) -> None:
        self.metric = metric
        self.backend = backend
        self.base_tree = base_tree
        self.base_alive = base_alive
        self.stable_points = stable_points
        self.stable_cd = stable_cd
        self.order = order
        self.buffer = buffer
        self.pair_a = pair_a
        self.pair_b = pair_b
        self.pair_u = pair_u
        self.pair_v = pair_v
        self.pair_w = pair_w
        self.node_alive: Optional[np.ndarray] = None
        # Cached ascending-by-weight permutation of ``pair_w``; repaired
        # incrementally so updates merge instead of re-sorting all pairs.
        self.pair_wsort: Optional[np.ndarray] = None
        self.bpair_q = _EMPTY_I.copy()
        self.bpair_node = _EMPTY_I.copy()
        self.bpair_v = _EMPTY_I.copy()
        self.bpair_w = _EMPTY_F.copy()
        # The same permutation for ``bpair_w``; the table starts empty, so
        # it is kept from the start.
        self.bpair_wsort = _EMPTY_I.copy()

    @property
    def n_base(self) -> int:
        return int(self.base_alive.shape[0])


def _require_exact_backend(backend: BackendLike):
    resolved = resolve_backend(backend)
    if resolved.lowered:
        raise InvalidParameterError(
            "the dynamic engine requires an exact float64 backend; lowered "
            "backends cannot guarantee cold-refit byte-conformance under "
            "subset recomputation"
        )
    return resolved


def _coerce_points(points, dimension: Optional[int] = None) -> np.ndarray:
    raw = np.asarray(points, dtype=np.float64)
    if raw.ndim == 2 and raw.shape[0] == 0:
        if raw.shape[1] < 1:
            raise InvalidPointSetError("points must have at least one column")
        data = np.ascontiguousarray(raw)
    else:
        data = as_points(points)
    if dimension is not None and data.shape[1] != dimension:
        raise InvalidParameterError(
            f"update points have dimension {data.shape[1]}, the fitted state "
            f"has dimension {dimension}"
        )
    return data


def _kth_distances(
    tree: KDTree,
    data: np.ndarray,
    rows: np.ndarray,
    k: int,
    num_threads: Optional[int],
) -> np.ndarray:
    """k-th k-NN distance of the selected rows, bitwise the cold value.

    Mirrors the final line of :func:`repro.hdbscan.core_distance.core_distances`
    (``kdtree`` method, including the ``minPts == 1`` zero shortcut): the
    per-query top-k fold depends only on the query row and the stored point
    multiset, so querying a subset of rows reproduces the all-rows values.
    """
    if rows.size == 0:
        return _EMPTY_F
    if k == 1:
        return np.zeros(rows.size, dtype=np.float64)
    _, distances = knn(tree, k, queries=data[rows], num_threads=num_threads)
    return np.ascontiguousarray(distances[:, -1], dtype=np.float64)


def fit_dynamic(
    points,
    *,
    min_pts: int = 10,
    min_cluster_size: int = 5,
    allow_single_cluster: bool = False,
    metric: MetricLike = None,
    backend: BackendLike = None,
    num_threads: Optional[int] = None,
    memory_budget: BudgetLike = None,
    cut_cache_size: int = DEFAULT_CUT_CACHE,
) -> FitState:
    """The cold fit :func:`update_batch` is byte-conformant against.

    The same fit as :func:`repro.serve.state.fit_state` with
    ``method="memogfk"`` — kd-tree core distances, the MemoGFK MST in the
    canonical normal form of :func:`repro.mst.canonical_mst_arrays` (a pure
    function of the weight-class filtration, hence reachable by local
    repair) — restricted to exact backends and accepting any ``n >= 0``,
    with ``minPts`` clamped to ``min(min_pts, n)`` like the HDBSCAN*
    drivers do.  The repair support is built on the first update.
    """
    resolved_backend = _require_exact_backend(backend)
    return _fit(
        _coerce_points(points),
        min_pts=min_pts,
        min_cluster_size=min_cluster_size,
        allow_single_cluster=allow_single_cluster,
        method="memogfk",
        metric=resolve_metric(metric),
        backend=resolved_backend,
        num_threads=num_threads,
        memory_budget=memory_budget,
        leaf_size=SERVING_LEAF_SIZE,
        cut_cache_size=cut_cache_size,
    )


def _build_support(
    state: FitState, num_threads: Optional[int] = None
) -> DynamicSupport:
    """Repair support for ``state``, from its points and core distances.

    Builds the leaf-size-1 base tree over the state's points, its WSPD and
    every pair's winner.  Every dynamic candidate, like every cold-fit one,
    carries its pair's exact minimum (see :mod:`repro.wspd.bccp`), which
    makes the canonical filtration independent of the decomposition and is
    what lets a repaired pair set reproduce a cold refit bitwise.  Only
    updates need this, so it runs on a state's first update, not in the
    cold fit.
    """
    backend = _require_exact_backend(state.backend)
    data = state.points
    n = state.num_points
    cds = np.array(state.core_distances, dtype=np.float64)
    base = None
    pair_a, pair_b = _EMPTY_I.copy(), _EMPTY_I.copy()
    pair_u, pair_v = _EMPTY_I.copy(), _EMPTY_I.copy()
    pair_w = _EMPTY_F.copy()
    if n:
        base = KDTree(data, leaf_size=1, metric=state.metric, backend=backend)
        base.annotate_core_distances(cds)
    if n >= 2:
        pair_a, pair_b = compute_wspd_ids(
            base, separation="hdbscan", num_threads=num_threads
        )
    if pair_a.size:
        pair_u, pair_v, pair_w = masked_pair_winners(
            base.flat, pair_a, pair_b, cds, num_threads
        )
    support = DynamicSupport(
        metric=state.metric,
        backend=backend,
        base_tree=base,
        base_alive=np.ones(n, dtype=bool),
        stable_points=data,
        stable_cd=cds,
        order=np.arange(n, dtype=np.int64),
        buffer=_EMPTY_I.copy(),
        pair_a=np.asarray(pair_a, dtype=np.int64),
        pair_b=np.asarray(pair_b, dtype=np.int64),
        pair_u=pair_u,
        pair_v=pair_v,
        pair_w=pair_w,
    )
    if base is not None:
        support.node_alive = node_any_flags(base.flat, support.base_alive)
    return support


def _merge_sorted(
    values: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Merge two ascending-by-``values`` position lists into one.

    On ties the ``second`` positions land before the equal-valued ``first``
    ones, which is irrelevant to every consumer (the canonical MST sweep
    partitions by weight class, not by within-class order).
    """
    if second.size == 0:
        return first
    ins = np.searchsorted(values[first], values[second], side="left")
    total = first.size + second.size
    out = np.empty(total, dtype=np.int64)
    pos_second = ins + np.arange(second.size, dtype=np.int64)
    remaining = np.ones(total, dtype=bool)
    remaining[pos_second] = False
    out[pos_second] = second
    out[remaining] = first
    return out


def _merge_by_value(
    values: np.ndarray, sorted_pos: np.ndarray, fresh_pos: np.ndarray
) -> np.ndarray:
    """:func:`_merge_sorted` of ``sorted_pos`` and the sorted ``fresh_pos``."""
    return _merge_sorted(
        values,
        sorted_pos,
        fresh_pos[np.argsort(values[fresh_pos], kind="stable")],
    )


def _repaired_order(
    order: np.ndarray,
    kept: np.ndarray,
    dirty: np.ndarray,
    num_fresh: int,
    values: np.ndarray,
) -> np.ndarray:
    """Carry an ascending-by-weight permutation across one repair.

    ``order`` sorts the old pair table; the new table is the old pairs at
    ``kept`` followed by ``num_fresh`` fresh ones, and ``values`` are its
    weights.  Kept pairs whose value did not change (``dirty`` is a mask
    over the old table) stay in their old relative order, so only the
    changed and fresh values are sorted and merged back in.
    """
    old_to_new = np.full(dirty.size, -1, dtype=np.int64)
    old_to_new[kept] = np.arange(kept.size, dtype=np.int64)
    clean = order[(old_to_new[order] >= 0) & ~dirty[order]]
    fresh = np.concatenate([
        old_to_new[np.flatnonzero(dirty & (old_to_new >= 0))],
        np.arange(kept.size, kept.size + num_fresh, dtype=np.int64),
    ])
    return _merge_by_value(values, old_to_new[clean], fresh)


def _assemble(
    previous: FitState,
    support: DynamicSupport,
    data: np.ndarray,
    serving: KDTree,
    extra_u: np.ndarray,
    extra_v: np.ndarray,
    extra_w: np.ndarray,
    *,
    num_threads: Optional[int],
) -> FitState:
    """The state an update of ``previous`` produces, with its parameters.

    Candidates are the cached base-pair and buffer×base winners plus the
    update's buffer×buffer winners; every value is an exact per-pair
    minimum from :func:`repro.wspd.bccp.bccp_windows`, a box-level
    resolution or an :meth:`Metric.exact_edge_weights` row (one row-wise
    kernel, so a value is bitwise independent of when and in which batch it
    was evaluated).  The union is canonicalized into the normal-form MST and
    rolled into a fresh dendrogram, condensed tree and serving state.
    """
    n = int(data.shape[0])
    cds_current = np.ascontiguousarray(
        support.stable_cd[support.order], dtype=np.float64
    )
    if n >= 2:
        cand_u = np.concatenate([support.pair_u, support.bpair_q, extra_u])
        cand_v = np.concatenate([support.pair_v, support.bpair_v, extra_v])
        weights = np.concatenate([support.pair_w, support.bpair_w, extra_w])
        current_of = np.empty(support.stable_points.shape[0], dtype=np.int64)
        current_of[support.order] = np.arange(n, dtype=np.int64)
        # Both cached tables keep their ascending order across repairs, so
        # only the buffer×buffer winners are sorted here; re-sorting all
        # candidates every update would dwarf the actual repair work.
        if support.pair_wsort is None:
            support.pair_wsort = parallel_argsort(
                support.pair_w, num_threads=num_threads
            )
        num_base = support.pair_w.size
        cached = num_base + support.bpair_w.size
        order = _merge_sorted(
            weights,
            support.pair_wsort,
            _merge_by_value(
                weights,
                num_base + support.bpair_wsort,
                np.arange(cached, weights.size, dtype=np.int64),
            ),
        )
        mst_u, mst_v, mst_w = canonical_mst_arrays(
            current_of[cand_u],
            current_of[cand_v],
            weights,
            n,
            num_threads=num_threads,
            order=order,
        )
    else:
        mst_u, mst_v = _EMPTY_I.copy(), _EMPTY_I.copy()
        mst_w = _EMPTY_F.copy()
    dendrogram = dendrogram_sequential((mst_u, mst_v, mst_w), n)
    condensed = condense_dendrogram(dendrogram, previous.min_cluster_size)
    state = FitState(
        points=data,
        tree=serving,
        core_distances=cds_current,
        mst_u=mst_u,
        mst_v=mst_v,
        mst_w=mst_w,
        dendrogram=dendrogram,
        condensed=condensed,
        min_pts=previous.min_pts,
        min_cluster_size=previous.min_cluster_size,
        allow_single_cluster=previous.allow_single_cluster,
        method="memogfk",
        fingerprint=_state_fingerprint(
            data,
            method="memogfk",
            metric=support.metric,
            backend=support.backend,
            memory_budget=None,
            num_threads=num_threads,
            min_pts=previous.min_pts,
            min_cluster_size=previous.min_cluster_size,
            allow_single_cluster=previous.allow_single_cluster,
            leaf_size=SERVING_LEAF_SIZE,
        ),
        cut_cache_size=previous._cut_capacity,
    )
    setattr(state, SUPPORT_ATTR, support)
    return state


def _coerce_indices(indices, n: int) -> np.ndarray:
    idx = np.atleast_1d(np.asarray([] if indices is None else indices))
    if idx.size == 0:
        return _EMPTY_I
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise InvalidParameterError("indices must be a 1-d integer array")
    idx = idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= n:
        raise InvalidParameterError(
            f"indices must be in [0, {n}); got values outside that range"
        )
    if np.unique(idx).size != idx.size:
        raise InvalidParameterError("indices must not contain duplicates")
    return idx


def update_batch(
    state: FitState,
    delete=None,
    insert=None,
    *,
    num_threads: Optional[int] = None,
    memory_budget: BudgetLike = None,
) -> FitState:
    """Delete rows and insert points in one repair pass, without a cold refit.

    ``delete`` holds current row indices and ``insert`` a point batch;
    either may be ``None`` or empty.  Survivors keep their relative order
    and the batch is appended, so the result is byte-identical to
    ``fit_dynamic(np.concatenate([state.points[kept], insert]))`` with the
    state's parameters — and to :func:`delete_batch` followed by
    :func:`insert_batch`, at the cost of one repair and one rebuild.  Both
    halves are validated before the state is touched: a rejected update
    leaves ``state`` exactly as it was, repair support included.  The
    input state stays valid for reading but hands its repair support to
    the result.
    """
    idx = _coerce_indices(delete, state.num_points)
    if insert is None or (np.ndim(insert) == 1 and np.size(insert) == 0):
        insert = np.empty((0, state.dimension))
    batch = _coerce_points(insert, dimension=state.dimension)
    _require_exact_backend(state.backend)
    if idx.size == 0 and batch.shape[0] == 0:
        return state
    with use_context(memory_budget=memory_budget):
        return _update(state, idx, batch, num_threads)


def insert_batch(
    state: FitState,
    new_points,
    *,
    num_threads: Optional[int] = None,
    memory_budget: BudgetLike = None,
) -> FitState:
    """:func:`update_batch` with inserts only (the batch is appended)."""
    return update_batch(
        state, insert=new_points, num_threads=num_threads,
        memory_budget=memory_budget,
    )


def delete_batch(
    state: FitState,
    indices,
    *,
    num_threads: Optional[int] = None,
    memory_budget: BudgetLike = None,
) -> FitState:
    """:func:`update_batch` with deletes only (by current row index).

    Deleting every point yields a valid empty state that
    :func:`insert_batch` can repopulate.
    """
    return update_batch(
        state, delete=indices, num_threads=num_threads,
        memory_budget=memory_budget,
    )


def _update(
    state: FitState, idx: np.ndarray, batch: np.ndarray, num_threads
) -> FitState:
    n_old = state.num_points
    keep = np.ones(n_old, dtype=bool)
    keep[idx] = False
    survivors = n_old - int(idx.size)
    m = int(batch.shape[0])
    n_new = survivors + m

    # The repair mutates the base tree's annotations and the tombstone mask
    # in place, so the support moves to the successor state, never shared.
    # A state without one (never updated, or updated from before) would get
    # a base of all its points, none dead and none buffered.
    support = vars(state).pop(SUPPORT_ATTR, None)
    n_base, dead_after, buffered_after = n_old, int(idx.size), m
    if support is not None:
        dying_stable = support.order[idx]
        n_base = support.n_base
        dead_after = int((~support.base_alive).sum()) + int(
            (dying_stable < n_base).sum()
        )
        buffered_after += support.buffer.size - int((dying_stable >= n_base).sum())
    if (
        survivors == 0
        or dead_after > max(32, n_base // 4)
        or buffered_after > max(32, n_new // 8)
    ):
        # Log-scheduled merge: fold the buffer and the tombstones into a
        # fresh base before the side structures dominate the update cost.
        return _fit(
            np.ascontiguousarray(np.concatenate([state.points[keep], batch])),
            min_pts=state.min_pts,
            min_cluster_size=state.min_cluster_size,
            allow_single_cluster=state.allow_single_cluster,
            method="memogfk",
            metric=state.metric,
            backend=state.backend,
            num_threads=num_threads,
            memory_budget=None,
            leaf_size=SERVING_LEAF_SIZE,
            cut_cache_size=state._cut_capacity,
        )
    if support is None:
        support = _build_support(state, num_threads)
    dying_stable = support.order[idx]
    dying_base = dying_stable[dying_stable < support.n_base]
    dying_buffer = dying_stable[dying_stable >= support.n_base]

    eff_new = min(state.min_pts, n_new)
    if eff_new != min(state.min_pts, n_old):
        hit = keep
    else:
        # With k fixed, a survivor's k-th distance can only move when a
        # deleted point lies within its old core radius (ties included) or
        # an inserted point strictly inside it; recomputing an unchanged
        # value is harmless.
        flat = state.tree.flat
        hit = keep & (
            flat.mask_within_radii(
                state.points[idx], state.core_distances, strict=False
            )
            | flat.mask_within_radii(
                batch, state.core_distances, strict=True
            )
        )
    changed_rows = np.flatnonzero(hit)
    shift = np.cumsum(~keep)
    rows = np.concatenate([
        changed_rows - shift[changed_rows],
        np.arange(survivors, n_new, dtype=np.int64),
    ])

    next_slot = support.stable_points.shape[0]
    new_stable = np.arange(next_slot, next_slot + m, dtype=np.int64)
    support.base_alive[dying_base] = False
    support.order = np.concatenate([support.order[keep], new_stable])
    support.buffer = np.concatenate([
        support.buffer[~np.isin(support.buffer, dying_buffer)], new_stable
    ])
    support.stable_points = np.ascontiguousarray(
        np.concatenate([support.stable_points, batch])
    )
    # A point not present before had no candidates: its core distance
    # starts at +inf, so every insert counts as changed and shrunk.
    support.stable_cd = np.concatenate([support.stable_cd, np.full(m, np.inf)])

    data = np.ascontiguousarray(support.stable_points[support.order])
    serving = KDTree(
        data,
        leaf_size=SERVING_LEAF_SIZE,
        metric=support.metric,
        backend=support.backend,
    )
    kth = _kth_distances(serving, data, rows, eff_new, num_threads)
    touched = support.order[rows]
    previous = support.stable_cd[touched]
    support.stable_cd[touched] = kth
    changed = kth != previous
    serving.annotate_core_distances(support.stable_cd[support.order])

    _repair_pairs(
        support,
        died=dying_stable,
        changed=touched[changed],
        decreased=touched[kth < previous],
        num_threads=num_threads,
    )
    extra_u, extra_v, extra_w = _buffer_buffer_winners(support, num_threads)
    return _assemble(
        state, support, data, serving, extra_u, extra_v, extra_w,
        num_threads=num_threads,
    )


def _resplit(
    flat, a: np.ndarray, b: np.ndarray, node_alive: np.ndarray, num_threads
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-split pairs that lost separation, skipping all-dead subtrees."""

    def predicate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return hdbscan_well_separated_mask(flat, x, y)

    out_a = []
    out_b = []
    while a.size:
        keep = node_alive[a] & node_alive[b]
        a = a[keep]
        b = b[keep]
        if a.size == 0:
            break
        _, sep_a, sep_b, dup_a, dup_b, a, b = frontier_step(
            flat, a, b, predicate, num_threads=num_threads
        )
        out_a.append(sep_a)
        out_a.append(dup_a)
        out_b.append(sep_b)
        out_b.append(dup_b)
    if not out_a:
        return _EMPTY_I.copy(), _EMPTY_I.copy()
    return np.concatenate(out_a), np.concatenate(out_b)


def _repair_pairs(
    support: DynamicSupport,
    *,
    died: np.ndarray,
    changed: np.ndarray,
    decreased: np.ndarray,
    num_threads,
) -> None:
    """Repair every cached pair winner after one update, in one pass.

    ``died`` holds the stable ids the update deleted, ``changed`` the alive
    ones whose core distance changed and ``decreased`` those whose core
    distance shrank (every insert is in both: it starts at ``+inf``).  The
    base tree's live
    annotations are refreshed once; then the base WSPD pairs
    (:func:`_repair_base_pairs`) and the buffer×base pairs
    (:func:`_buffer_winners`) are repaired under the same rules: a pair
    with a side that has no alive member is dropped; a pair whose node
    holds a *touched* base point (dead, or its core distance changed) is
    re-tested for separation and re-split if it fails; a cached winner is
    resolved again only when :func:`_stale_winners` invalidates it; and a
    decreased member can only lower a winner through its own rows against
    the pair's other side.
    """
    tree = support.base_tree
    if tree is None:
        return
    flat = tree.flat
    n_base = support.n_base
    alive = support.base_alive
    flat.cd_min, flat.cd_max = live_cd_extrema(
        flat, support.stable_cd[:n_base], alive
    )
    support.node_alive = node_any_flags(flat, alive)
    size = support.stable_points.shape[0]
    live = np.zeros(size, dtype=bool)
    live[:n_base] = alive
    live[support.buffer] = True
    changed_mask = np.zeros(size, dtype=bool)
    changed_mask[changed] = True
    touched = np.zeros(n_base, dtype=bool)
    touched[died[died < n_base]] = True
    touched[changed[changed < n_base]] = True
    inverse = np.empty(n_base, dtype=np.int64)
    inverse[flat.perm] = np.arange(n_base, dtype=np.int64)
    rules = dict(
        live=live,
        changed=changed_mask,
        node_touched=node_any_flags(flat, touched),
        decreased_positions=np.sort(inverse[decreased[decreased < n_base]]),
        num_threads=num_threads,
    )
    shrunk = np.zeros(size, dtype=bool)
    shrunk[decreased] = True
    _repair_base_pairs(support, **rules)
    _buffer_winners(support, shrunk=shrunk, **rules)


def _stale_winners(
    support: DynamicSupport,
    idx: np.ndarray,
    wu: np.ndarray,
    wv: np.ndarray,
    ww: np.ndarray,
    live: np.ndarray,
    changed: np.ndarray,
    floor: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The winner rule shared by cached base and buffer×base pairs.

    The cached winner ``(wu, wv)`` of the pair at each table position in
    ``idx`` is *stale* when an endpoint died, or when an endpoint's core
    distance changed and the refreshed value grew past
    ``max(old value, floor)``.  Every other candidate of the pair was
    already ``>=`` the old value, and ``floor`` (per ``idx``, when given)
    must bound every candidate whose core distance did not shrink from
    below, so a winner that stays within both stays minimal over those
    candidates; candidates that shrank are the callers' to check.  Values
    of changed, alive winners are refreshed in ``ww`` in place.  Returns
    the stale mask over ``idx`` and the refreshed table positions.
    """
    u, v = wu[idx], wv[idx]
    dead = ~live[u] | ~live[v]
    chg = np.flatnonzero((changed[u] | changed[v]) & ~dead)
    if chg.size == 0:
        return dead, _EMPTY_I
    refreshed = idx[chg]
    values = support.metric.exact_edge_weights(
        support.stable_points, wu[refreshed], wv[refreshed], support.stable_cd
    )
    limit = ww[refreshed]
    if floor is not None:
        limit = np.maximum(limit, floor[chg])
    grew = np.zeros(idx.size, dtype=bool)
    grew[chg] = values > limit
    ww[refreshed] = values
    return dead | grew, refreshed


def _lower_winners(
    pos: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    values: np.ndarray,
    wu: np.ndarray,
    wv: np.ndarray,
    ww: np.ndarray,
) -> np.ndarray:
    """Let row candidates undercut cached winners, in place.

    Row ``i`` offers the candidate ``(u[i], v[i])`` of exact value
    ``values[i]`` to the pair at table position ``pos[i]``; each pair's
    smallest candidate strictly below its cached value becomes its winner
    (winner identity is free under :func:`repro.mst.canonical_mst_arrays`).
    Returns the table positions whose winner changed.
    """
    below = np.flatnonzero(values < ww[pos])
    below = below[np.argsort(values[below], kind="stable")]
    _, first = np.unique(pos[below], return_index=True)
    best = below[first]
    lowered = pos[best]
    wu[lowered] = u[best]
    wv[lowered] = v[best]
    ww[lowered] = values[best]
    return lowered


def _repair_base_pairs(
    support: DynamicSupport,
    *,
    live: np.ndarray,
    changed: np.ndarray,
    node_touched: np.ndarray,
    decreased_positions: np.ndarray,
    num_threads,
) -> None:
    """Repair the cached base WSPD pairs after one update.

    Drops pairs with an all-dead side and re-tests (and re-splits,
    alive-filtered) pairs holding touched points.  A pair that stays keeps
    its winner unless :func:`_stale_winners` invalidates it; a stale pair
    and a re-split one are resolved at full pair size.  Deaths only remove
    candidates and growth only raises values, so the refreshed winner of a
    pair that stays still bounds every candidate without a shrunk endpoint
    from below.  The candidates *with* one are the rows of its members whose
    core distance shrank (at the sorted permutation ``decreased_positions``):
    each member ``q`` of one side that :func:`winner_beat_mask` admits as a
    possible undercut is resolved as the (q, other node) point×node pair,
    and the pair's new winner is the smallest of its refreshed winner and
    those rows.  When a pair's rows would score at least its ``|A|·|B|``
    candidates (every member shrank, say, when ``min(min_pts, n)`` moved),
    the whole pair is resolved instead.  Both-leaf pairs are singletons
    whose winner is fixed by membership; only their value is refreshed.
    """
    flat = support.base_tree.flat
    node_alive = support.node_alive
    pa, pb = support.pair_a, support.pair_b
    wu, wv, ww = support.pair_u, support.pair_v, support.pair_w
    if pa.size == 0:
        return
    alive_pair = node_alive[pa] & node_alive[pb]
    flagged = alive_pair & (node_touched[pa] | node_touched[pb])
    if not flagged.any() and alive_pair.all():
        return
    both_leaf = flat.is_leaf(pa) & flat.is_leaf(pb)
    test_idx = np.flatnonzero(flagged & ~both_leaf)
    if test_idx.size:
        still = hdbscan_well_separated_mask(flat, pa[test_idx], pb[test_idx])
        split = test_idx[~still]
        new_a, new_b = _resplit(flat, pa[split], pb[split], node_alive, num_threads)
        test_idx = test_idx[still]
    else:
        new_a, new_b = _EMPTY_I.copy(), _EMPTY_I.copy()
    checked = np.concatenate([np.flatnonzero(flagged & both_leaf), test_idx])
    stale, refreshed = _stale_winners(support, checked, wu, wv, ww, live, changed)
    stale &= ~both_leaf[checked]
    stay = checked[~stale]

    n_base = support.n_base
    points = support.stable_points
    masked_cd = np.where(live[:n_base], support.stable_cd[:n_base], np.inf)
    open_idx = stay[~both_leaf[stay]]
    oa, ob = pa[open_idx], pb[open_idx]
    values = ww[open_idx]
    row_a, q_a = winner_beat_mask(
        flat, oa, ob, decreased_positions, points, support.stable_cd, values
    )
    row_b, q_b = winner_beat_mask(
        flat, ob, oa, decreased_positions, points, support.stable_cd, values
    )
    size_a = (flat.node_end[oa] - flat.node_start[oa]).astype(np.int64)
    size_b = (flat.node_end[ob] - flat.node_start[ob]).astype(np.int64)
    row_cost = (
        np.bincount(row_a, minlength=open_idx.size) * size_b
        + np.bincount(row_b, minlength=open_idx.size) * size_a
    )
    whole = row_cost >= size_a * size_b
    row_a, q_a = row_a[~whole[row_a]], q_a[~whole[row_a]]
    row_b, q_b = row_b[~whole[row_b]], q_b[~whole[row_b]]
    _, row_v, row_w = masked_pair_winners(
        flat,
        np.concatenate([q_a, q_b]),
        np.concatenate([ob[row_a], oa[row_b]]),
        masked_cd,
        num_threads,
        points=points,
    )
    # Rows of A's members give (q, b) winners, rows of B's give (a, q).
    cut = q_a.size
    lowered = _lower_winners(
        open_idx[np.concatenate([row_a, row_b])],
        np.concatenate([q_a, row_v[cut:]]),
        np.concatenate([row_v[:cut], q_b]),
        row_w, wu, wv, ww,
    )

    resolved = np.zeros(pa.size, dtype=bool)
    resolved[open_idx[whole]] = True
    recompute = np.concatenate([checked[stale], open_idx[whole]])
    redo_a = np.concatenate([pa[recompute], new_a])
    redo_b = np.concatenate([pb[recompute], new_b])
    redo_u, redo_v, redo_w = masked_pair_winners(
        flat, redo_a, redo_b, masked_cd, num_threads
    )

    kept = np.concatenate([
        np.flatnonzero(alive_pair & ~flagged), stay[~resolved[stay]]
    ])
    support.pair_a = np.concatenate([pa[kept], redo_a])
    support.pair_b = np.concatenate([pb[kept], redo_b])
    support.pair_u = np.concatenate([wu[kept], redo_u])
    support.pair_v = np.concatenate([wv[kept], redo_v])
    support.pair_w = np.concatenate([ww[kept], redo_w])
    if support.pair_wsort is not None:
        dirty = np.zeros(pa.size, dtype=bool)
        dirty[refreshed] = True
        dirty[lowered] = True
        support.pair_wsort = _repaired_order(
            support.pair_wsort, kept, dirty, redo_a.size, support.pair_w
        )


def _buffer_winners(
    support: DynamicSupport,
    *,
    live: np.ndarray,
    changed: np.ndarray,
    shrunk: np.ndarray,
    node_touched: np.ndarray,
    decreased_positions: np.ndarray,
    num_threads,
) -> None:
    """Repair the cached buffer×base pairs after one update.

    Each buffered point ``q`` owns the (q, base node) pairs its separation
    descent (:func:`descend_singleton_pairs`) emitted, cached with the
    winning base point and the pair's exact minimum.  One vectorized pass
    applies the base pairs' rules to them:

    * ``q`` died: its pairs are dropped.  ``q``'s own core distance shrank
      (``shrunk``, which holds every new insert): its pairs are dropped and
      it descends from the root;
    * ``q``'s own core distance grew: its pairs stay.  The separation test
      only gets stronger as ``cd(q)`` grows, and every candidate is
      ``max(x_b, cd(q))``, so the cached winner stays a minimizer with its
      value refreshed; it is stale only when it died or its value rose
      past ``max(old value, cd(q))``, which only the winner's own growth
      can do;
    * the node has no alive member left: the pair is dropped;
    * the node holds a touched base point: the pair is re-tested with the
      descent's own :func:`singleton_separated_mask`, and a failing
      non-leaf pair descends again from that node;
    * a pair that stays keeps its winner unless :func:`_stale_winners`
      invalidates it (a singleton leaf only refreshes its value).  A base
      member ``b`` whose core distance *decreased* offers one new candidate
      ``(q, b)``; its exact :meth:`Metric.exact_edge_weights` row replaces
      the cached winner when smaller, with no kernel call.

    Only the pairs of these descents reach :func:`masked_pair_winners`,
    so the buffer's share of an update follows the update's size, not the
    buffer's.  The ascending order ``bpair_wsort`` is carried along.
    """
    flat = support.base_tree.flat
    node_alive = support.node_alive
    points, cds = support.stable_points, support.stable_cd
    q, nodes = support.bpair_q, support.bpair_node
    wv, ww = support.bpair_v, support.bpair_w
    alive_pair = live[q] & ~shrunk[q] & node_alive[nodes]
    leaf = flat.is_leaf(nodes)
    retest = alive_pair & node_touched[nodes] & ~leaf
    flagged = alive_pair & (node_touched[nodes] | changed[q])
    test_idx = np.flatnonzero(retest)
    still = singleton_separated_mask(
        flat,
        np.ascontiguousarray(
            points[q[test_idx]], dtype=flat.backend.scoring_dtype
        ),
        cds[q[test_idx]],
        nodes[test_idx],
    )
    split = test_idx[~still]
    checked = np.concatenate([np.flatnonzero(flagged & ~retest), test_idx[still]])
    stale, refreshed = _stale_winners(
        support, checked, q, wv, ww, live, changed, floor=cds[q[checked]]
    )
    stale &= ~leaf[checked]
    stay = checked[~stale]

    open_idx = stay[~leaf[stay]]
    row_of, members = node_member_rows(
        flat, nodes[open_idx], decreased_positions
    )
    pos = open_idx[row_of]
    lowered = _lower_winners(
        pos, q[pos], members,
        support.metric.exact_edge_weights(points, q[pos], members, cds),
        q, wv, ww,
    )

    # Fresh pairs come from one descent: new and shrunk buffer points start
    # at the root, failed pairs and stale winners at their node (a stale
    # pair is still separated, so it comes back as itself).  Each root
    # yields its own pairs, so blocks of roots yield the same pairs in
    # another order (which the canonical MST normal form erases) and keep
    # the transient pair arrays small.
    masked_cd = cds.copy()
    masked_cd[: support.n_base][~support.base_alive] = np.inf
    redo = np.concatenate([split, checked[stale]])
    buffer = support.buffer
    starts = np.concatenate([buffer[shrunk[buffer]], q[redo]])
    roots = np.concatenate([
        np.zeros(starts.size - redo.size, dtype=np.int64), nodes[redo]
    ])
    fresh_q, fresh_node, fresh_v, fresh_w = [], [], [], []
    for lo in range(0, starts.size, _BUFFER_BLOCK):
        block = starts[lo: lo + _BUFFER_BLOCK]
        q_idx, node_ids = descend_singleton_pairs(
            flat, points[block], cds[block], node_alive,
            roots=roots[lo: lo + _BUFFER_BLOCK],
        )
        _, win_v, win_w = masked_pair_winners(
            flat, block[q_idx], node_ids, masked_cd, num_threads, points
        )
        fresh_q.append(block[q_idx])
        fresh_node.append(node_ids)
        fresh_v.append(win_v)
        fresh_w.append(win_w)

    kept = np.concatenate([np.flatnonzero(alive_pair & ~flagged), stay])
    support.bpair_q = np.concatenate([q[kept]] + fresh_q)
    support.bpair_node = np.concatenate([nodes[kept]] + fresh_node)
    support.bpair_v = np.concatenate([wv[kept]] + fresh_v)
    support.bpair_w = np.concatenate([ww[kept]] + fresh_w)
    dirty = np.zeros(q.size, dtype=bool)
    dirty[refreshed] = True
    dirty[lowered] = True
    support.bpair_wsort = _repaired_order(
        support.bpair_wsort, kept, dirty,
        support.bpair_q.size - kept.size, support.bpair_w,
    )


def _buffer_buffer_winners(
    support: DynamicSupport, num_threads
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winners of the buffer's own WSPD, built afresh every update.

    A leaf-size-1 kd-tree over the buffered points, its HDBSCAN* WSPD and
    one kernel call: the buffer stays below ``n / 8`` points, so this costs
    little next to the cached tables.
    """
    buffer = support.buffer
    if buffer.size < 2:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    points = np.ascontiguousarray(support.stable_points[buffer])
    cds = np.ascontiguousarray(support.stable_cd[buffer])
    side = KDTree(
        points, leaf_size=1, metric=support.metric, backend=support.backend
    )
    side.annotate_core_distances(cds)
    pair_a, pair_b = compute_wspd_ids(
        side, separation="hdbscan", num_threads=num_threads
    )
    if pair_a.size == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    win_u, win_v, win_w = masked_pair_winners(
        side.flat, pair_a, pair_b, cds, num_threads
    )
    return buffer[win_u], buffer[win_v], win_w
