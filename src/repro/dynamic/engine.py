"""Incremental insert/delete engine over a fitted serving state.

A cold HDBSCAN*/EMST fit is dominated by two global computations — the
all-points core distances and the BCCPs of the full well-separated pair
decomposition.  Under a small batched update almost all of that work is
provably unchanged: a core distance can only move when the update lands
inside the point's current core radius, and a WSPD pair's minimum
mutual-reachability edge can only move when a member dies, a member's core
distance changes, or a certified lower bound says a changed point could
undercut the cached winner.  :func:`update_batch` exploits exactly that,
folding a batch of deletes and a batch of inserts into **one** repair pass
and one state rebuild (:func:`insert_batch` / :func:`delete_batch` are its
one-sided forms):

* the *base* tree (a leaf-size-1 kd-tree over the points present when the
  support was built) is tombstoned, never restructured: deletions flip an
  ``alive`` bit and the live core-distance extrema are re-annotated in one
  sweep.  Its WSPD pair decomposition is cached with per-pair BCCP winners
  and repaired locally per update;
* inserted points go to a side *buffer* paired against the base tree by a
  per-point separation descent and against each other by a tiny WSPD of
  their own; a log-scheduled full rebuild folds the buffer in (or drops
  the tombstones) before either side grows past a fixed fraction of n;
* every pair winner, base or buffer, comes from the cold fit's BCCP
  kernel (:func:`repro.wspd.bccp.bccp_windows`, dead points masked by an
  infinite core distance) unless the pair resolves at box level;
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
# Buffer points per (buffer point, base node) descent block.  With 1200
# buffered points at n=10^4 (2D-SS-varden, one core) blocks of 64 were the
# fastest of 16/64/256/1024 and held the transient peak at 19 MB against
# 262 MB unblocked.
_BUFFER_BLOCK = 64


class DynamicSupport:
    """Mutable repair state riding along with an updatable state.

    Point identity is *stable ids*: slots ``0..n_base-1`` are the base
    tree's points, later slots are buffered inserts; ``order`` maps each
    current row to its stable id (deletes compact it, inserts append).
    ``pair_u`` / ``pair_v`` hold the cached BCCP winner (as stable ids) of
    every live base WSPD pair ``(pair_a, pair_b)``.
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


def _merge_by_value(
    values: np.ndarray, sorted_pos: np.ndarray, fresh_pos: np.ndarray
) -> np.ndarray:
    """Merge two position lists into one ascending-by-``values`` permutation.

    ``sorted_pos`` must already be ascending by ``values``; ``fresh_pos`` is
    sorted here.  On ties the fresh positions land before the equal-valued
    sorted ones, which is irrelevant to every consumer (the canonical MST
    sweep partitions by weight class, not by within-class order).
    """
    if fresh_pos.size == 0:
        return sorted_pos
    f_ord = fresh_pos[np.argsort(values[fresh_pos], kind="stable")]
    ins = np.searchsorted(values[sorted_pos], values[f_ord], side="left")
    total = sorted_pos.size + f_ord.size
    out = np.empty(total, dtype=np.int64)
    pos_fresh = ins + np.arange(f_ord.size, dtype=np.int64)
    remaining = np.ones(total, dtype=bool)
    remaining[pos_fresh] = False
    out[pos_fresh] = f_ord
    out[remaining] = sorted_pos
    return out


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

    Candidates are the cached base-pair winners plus the update's buffer
    winners; every value is an exact per-pair minimum from
    :func:`repro.wspd.bccp.bccp_windows` or a box-level resolution (row-wise
    kernel, so a value is bitwise independent of when and in which batch it
    was evaluated).  The union is canonicalized into the normal-form MST and
    rolled into a fresh dendrogram, condensed tree and serving state.
    """
    n = int(data.shape[0])
    cds_current = np.ascontiguousarray(
        support.stable_cd[support.order], dtype=np.float64
    )
    if n >= 2:
        cand_u = np.concatenate([support.pair_u, extra_u])
        cand_v = np.concatenate([support.pair_v, extra_v])
        weights = np.concatenate([support.pair_w, extra_w])
        current_of = np.empty(support.stable_points.shape[0], dtype=np.int64)
        current_of[support.order] = np.arange(n, dtype=np.int64)
        # The cached ascending order over pair_w (repaired incrementally
        # alongside the pairs) only needs the handful of buffer winners
        # merged in — re-sorting all candidates every update would dwarf
        # the actual repair work.
        if support.pair_wsort is None:
            support.pair_wsort = parallel_argsort(
                support.pair_w, num_threads=num_threads
            )
        order = _merge_by_value(
            weights,
            support.pair_wsort,
            np.arange(
                support.pair_w.size, weights.size, dtype=np.int64
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
    if insert is None:
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
    support.stable_cd = np.concatenate([support.stable_cd, np.zeros(m)])

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
    changed[changed_rows.size:] = True  # new points are always "changed"
    serving.annotate_core_distances(support.stable_cd[support.order])

    in_base = touched < support.n_base
    _repair_base_pairs(
        support,
        died=dying_base,
        changed=touched[changed & in_base],
        decreased=touched[(kth < previous) & in_base],
        num_threads=num_threads,
    )
    extra_u, extra_v, extra_w = _buffer_winners(support, num_threads)
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


def _repair_base_pairs(
    support: DynamicSupport,
    *,
    died: np.ndarray,
    changed: np.ndarray,
    decreased: np.ndarray,
    num_threads,
) -> None:
    """Repair the cached base WSPD decomposition after one update.

    Refreshes the live annotations, drops pairs with an all-dead side,
    re-tests (and re-splits, alive-filtered) pairs containing touched
    points, and recomputes winners only where the cached one is invalidated:
    the winner died, its cached value *grew* under the refreshed core
    distances (every other cached candidate was already ≥ the old value, so
    a non-growing winner stays minimal over the unchanged candidates), or
    the certified :func:`winner_beat_mask` bound admits a *decreased* point
    undercutting the (refreshed) value.  Only points whose core distance
    shrank (``decreased``) can undercut a stable winner — every candidate
    value is monotone in its endpoints' core distances, so a pure-growth
    update (deletes only) skips the beat test entirely.  Deaths only remove
    candidates and growth only raises values, so one call handles the
    ``died``, ``changed`` and ``decreased`` sets of a mixed update together.
    Both-leaf pairs are
    singletons whose winner is fixed by membership; only their value is
    refreshed.
    """
    tree = support.base_tree
    if tree is None or support.n_base == 0:
        return
    flat = tree.flat
    alive = support.base_alive
    n_base = support.n_base
    flat.cd_min, flat.cd_max = live_cd_extrema(
        flat, support.stable_cd[:n_base], alive
    )
    node_alive = node_any_flags(flat, alive)
    support.node_alive = node_alive

    pa, pb = support.pair_a, support.pair_b
    wu, wv = support.pair_u, support.pair_v
    ww = support.pair_w
    if pa.size == 0:
        return
    touched = np.zeros(n_base, dtype=bool)
    touched[died] = True
    touched[changed] = True
    alive_pair = node_alive[pa] & node_alive[pb]
    if touched.any():
        node_touched = node_any_flags(flat, touched)
        flagged = alive_pair & (node_touched[pa] | node_touched[pb])
    else:
        flagged = np.zeros(pa.size, dtype=bool)
    if not flagged.any() and alive_pair.all():
        return
    both_leaf = flat.is_leaf(pa) & flat.is_leaf(pb)
    keep_static = np.flatnonzero(alive_pair & (~flagged | both_leaf))
    refresh = np.flatnonzero(flagged & both_leaf)
    if refresh.size:
        ww[refresh] = support.metric.exact_edge_weights(
            support.stable_points, wu[refresh], wv[refresh],
            support.stable_cd,
        )

    test_idx = np.flatnonzero(flagged & ~both_leaf)
    if test_idx.size:
        still = hdbscan_well_separated_mask(flat, pa[test_idx], pb[test_idx])
        ok_idx = test_idx[still]
        new_a, new_b = _resplit(
            flat, pa[test_idx[~still]], pb[test_idx[~still]],
            node_alive, num_threads,
        )
    else:
        ok_idx = _EMPTY_I
        new_a, new_b = _EMPTY_I.copy(), _EMPTY_I.copy()

    changed_mask = np.zeros(n_base, dtype=bool)
    changed_mask[changed] = True
    dead_winner = ~alive[wu[ok_idx]] | ~alive[wv[ok_idx]]
    cd_changed = (
        changed_mask[wu[ok_idx]] | changed_mask[wv[ok_idx]]
    ) & ~dead_winner
    grew = np.zeros(ok_idx.size, dtype=bool)
    chg = np.flatnonzero(cd_changed)
    if chg.size:
        chg_idx = ok_idx[chg]
        v_new = support.metric.exact_edge_weights(
            support.stable_points, wu[chg_idx], wv[chg_idx],
            support.stable_cd,
        )
        grew[chg] = v_new > ww[chg_idx]
        ww[chg_idx] = v_new
    winner_invalid = dead_winner | grew
    stable_idx = ok_idx[~winner_invalid]
    beat = np.zeros(stable_idx.size, dtype=bool)
    decreased_mask = np.zeros(n_base, dtype=bool)
    decreased_mask[decreased] = True
    beat_sources = np.flatnonzero(decreased_mask & alive)
    if stable_idx.size and beat_sources.size:
        inverse = np.empty(n_base, dtype=np.int64)
        inverse[flat.perm] = np.arange(n_base, dtype=np.int64)
        touched_positions = np.sort(inverse[beat_sources])
        values = ww[stable_idx]
        beat = winner_beat_mask(
            flat, pa[stable_idx], pb[stable_idx], touched_positions,
            support.stable_points, support.stable_cd, values,
        ) | winner_beat_mask(
            flat, pb[stable_idx], pa[stable_idx], touched_positions,
            support.stable_points, support.stable_cd, values,
        )

    recompute_idx = np.concatenate([ok_idx[winner_invalid], stable_idx[beat]])
    redo_a = np.concatenate([pa[recompute_idx], new_a])
    redo_b = np.concatenate([pb[recompute_idx], new_b])
    if redo_a.size:
        redo_u, redo_v, redo_w = masked_pair_winners(
            flat, redo_a, redo_b,
            np.where(alive, support.stable_cd[:n_base], np.inf), num_threads,
        )
    else:
        redo_u, redo_v = _EMPTY_I.copy(), _EMPTY_I.copy()
        redo_w = _EMPTY_F.copy()

    kept = np.concatenate([keep_static, stable_idx[~beat]])
    support.pair_a = np.concatenate([pa[kept], redo_a])
    support.pair_b = np.concatenate([pb[kept], redo_b])
    support.pair_u = np.concatenate([wu[kept], redo_u])
    support.pair_v = np.concatenate([wv[kept], redo_v])
    support.pair_w = np.concatenate([ww[kept], redo_w])

    # Repair the cached ascending-by-weight permutation: kept pairs with
    # untouched values stay in their old relative order, so only the
    # refreshed/recomputed few need sorting and merging back in.
    ws = support.pair_wsort
    if ws is not None:
        m_old = pa.shape[0]
        dirty = np.zeros(m_old, dtype=bool)
        dirty[refresh] = True
        if chg.size:
            dirty[ok_idx[chg]] = True
        old_to_new = np.full(m_old, -1, dtype=np.int64)
        old_to_new[kept] = np.arange(kept.size, dtype=np.int64)
        clean = ws[(old_to_new[ws] >= 0) & ~dirty[ws]]
        fresh = np.concatenate([
            old_to_new[np.flatnonzero(dirty & (old_to_new >= 0))],
            np.arange(
                kept.size, kept.size + redo_a.size, dtype=np.int64
            ),
        ])
        support.pair_wsort = _merge_by_value(
            support.pair_w, old_to_new[clean], fresh
        )


def _buffer_winners(
    support: DynamicSupport, num_threads
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate winners covering buffer×base and buffer×buffer pairs."""
    buffer = support.buffer
    if buffer.size == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    points = np.ascontiguousarray(support.stable_points[buffer])
    cds = np.ascontiguousarray(support.stable_cd[buffer])
    out_u = []
    out_v = []
    out_w = []
    if support.base_tree is not None and support.node_alive is not None:
        flat = support.base_tree.flat
        masked_cd = support.stable_cd.copy()
        masked_cd[: support.n_base][~support.base_alive] = np.inf
        # Every buffer point descends on its own, so blocks of them yield the
        # same pairs (in another order, which the canonical MST normal form
        # erases); blocking keeps the pair arrays, which grow with the
        # buffer, from setting the update's peak memory.
        for lo in range(0, buffer.size, _BUFFER_BLOCK):
            block = slice(lo, lo + _BUFFER_BLOCK)
            q_idx, node_ids = descend_singleton_pairs(
                flat, points[block], cds[block], support.node_alive
            )
            win_u, win_v, win_w = masked_pair_winners(
                flat, buffer[block][q_idx], node_ids, masked_cd, num_threads,
                support.stable_points,
            )
            out_u.append(win_u)
            out_v.append(win_v)
            out_w.append(win_w)
    if buffer.size >= 2:
        side = KDTree(
            points, leaf_size=1, metric=support.metric, backend=support.backend
        )
        side.annotate_core_distances(cds)
        pair_a, pair_b = compute_wspd_ids(
            side, separation="hdbscan", num_threads=num_threads
        )
        if pair_a.size:
            win_u, win_v, win_w = masked_pair_winners(
                side.flat, pair_a, pair_b, cds, num_threads
            )
            out_u.append(buffer[win_u])
            out_v.append(buffer[win_v])
            out_w.append(win_w)
    if not out_u:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    return np.concatenate(out_u), np.concatenate(out_v), np.concatenate(out_w)
