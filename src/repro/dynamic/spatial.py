"""Array helpers for incremental repair over a tombstoned kd-tree.

The dynamic engine (:mod:`repro.dynamic.engine`) keeps the fitted WSPD
decomposition of its *base* tree alive across updates and repairs it locally:
deleted base points are tombstoned (``alive`` mask), inserted points live in a
small side buffer, and only pairs whose boxes intersect the touched region
ever get re-examined.  Everything here is the pure-array substrate for that
repair:

* live per-node flags/extrema (one :meth:`FlatKDTree.node_value_ranges`
  sweep each) — the stale node boxes stay put, only the annotations move;
* the pair winners, for (node, node) pairs and for (buffered point, node)
  pairs: core-distance-dominated pairs resolve at box level (a point is a
  zero-extent box), and the rest go to the engine's one BCCP kernel
  (:func:`repro.wspd.bccp.bccp_windows`) with every dead point's core
  distance set to ``+inf``, so no member list is ever expanded.  Its
  winners carry their pair's *exact* minimum, from the row-wise
  :meth:`Metric.exact_edge_weights` kernel — the same
  :meth:`Metric.diff_norms` rows the k-NN fold reads core distances from,
  so cached and recomputed values share one bitwise contract;
* the winner *beat* filter — a certified lower bound picking the members
  whose shrunk core distance could undercut their pair's cached winner,
  each one (member, other node) row for the caller to resolve;
* the (point, node) separation test and the singleton descent pairing
  each buffered point against the base tree (or a subtree, when a cached
  pair lost its separation) under the HDBSCAN* separation predicate
  (conservatively, using the stale boxes, which only ever splits deeper —
  coverage is preserved), and the member rows that enumerate a node's
  touched points.

Winner *identity* is free everywhere: the assembled candidate edges are
canonicalized by :func:`repro.mst.canonical_mst_arrays`, which depends only
on the weight-class filtration.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.metric import Metric
from repro.parallel.primitives import segment_ranges as _segment_ranges
from repro.spatial.flat import FlatKDTree
from repro.wspd.bccp import bccp_windows


def node_any_flags(flat: FlatKDTree, point_mask: np.ndarray) -> np.ndarray:
    """Per-node boolean: does the node contain any flagged point?"""
    if flat.size == 0:
        return np.zeros(flat.num_nodes, dtype=bool)
    return flat.node_value_ranges(point_mask.astype(np.uint8))[1] > 0


def live_cd_extrema(
    flat: FlatKDTree, core_distances: np.ndarray, alive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node core-distance extrema over the *alive* members only.

    Dead members are masked to ``+inf`` / ``-inf`` so they never win a
    reduction; nodes with no alive member get inverted extrema, which is fine
    because every consumer filters such nodes out via :func:`node_any_flags`
    on the alive mask first.
    """
    dtype = flat.backend.scoring_dtype
    cds = np.asarray(core_distances, dtype=dtype)
    lo = flat.node_value_ranges(np.where(alive, cds, np.inf).astype(dtype))[0]
    hi = flat.node_value_ranges(np.where(alive, cds, -np.inf).astype(dtype))[1]
    return lo, hi


def _box_distance_hi(
    metric: Metric,
    box_a: Tuple[np.ndarray, np.ndarray],
    ids_a: np.ndarray,
    box_b: Tuple[np.ndarray, np.ndarray],
    ids_b: np.ndarray,
) -> np.ndarray:
    """Certified upper bound on the max distance between two boxes per pair.

    A box source is a ``(lower, upper)`` pair of ``(m, d)`` arrays indexed
    by ``ids`` — the node boxes of a tree, or ``(points, points)`` for
    zero-extent point boxes.  Per axis, ``max|x_a - x_b|`` over the boxes is
    bounded by ``max(hi_a - lo_b, hi_b - lo_a)`` in exact arithmetic; the
    final factor absorbs the rounding of the float subtractions and of the
    norm accumulation, so the returned value dominates every exact member
    distance.  Node boxes cover dead members too, which only loosens it.
    """
    from repro.parallel.pool import current_workspace

    num = int(ids_a.shape[0])
    dim = int(box_a[0].shape[1])
    eps = float(np.finfo(np.float64).eps)
    p_order = max(float(getattr(metric, "p", 2.0)), 2.0)
    factor = 1.0 + (8.0 * p_order * dim + 32.0) * eps
    out = np.empty(num, dtype=np.float64)
    workspace = current_workspace()
    chunk = 1 << 18
    for lo in range(0, num, chunk):
        sl = slice(lo, min(lo + chunk, num))
        r = sl.stop - sl.start
        g = workspace.take("dyn.box.g", (r, dim))
        t = workspace.take("dyn.box.t", (r, dim))
        u = workspace.take("dyn.box.u", (r, dim))
        np.take(box_a[1], ids_a[sl], axis=0, out=g)
        np.take(box_b[0], ids_b[sl], axis=0, out=t)
        np.subtract(g, t, out=g)
        np.take(box_b[1], ids_b[sl], axis=0, out=t)
        np.take(box_a[0], ids_a[sl], axis=0, out=u)
        np.subtract(t, u, out=t)
        np.maximum(g, t, out=g)
        np.maximum(g, 0.0, out=g)
        out[sl] = metric.diff_norms(g)
    out *= factor
    return out


def _cd_argmin(flat: FlatKDTree, node_ids: np.ndarray, cds: np.ndarray) -> np.ndarray:
    """Per node, the member (point index) with the smallest core distance —
    first in permutation order on ties.  Dead members carry ``+inf``, and
    every node must hold at least one live member."""
    nodes, inverse = np.unique(node_ids, return_inverse=True)
    starts = flat.node_start[nodes].astype(np.int64)
    lens = (flat.node_end[nodes] - starts).astype(np.int64)
    spans = flat.perm[_segment_ranges(starts, lens)]
    vals = cds[spans]
    seg_starts = np.cumsum(lens) - lens
    mins = np.minimum.reduceat(vals, seg_starts)
    grp = np.repeat(np.arange(nodes.size, dtype=np.int64), lens)
    at_min = np.where(
        vals == mins[grp], np.arange(vals.size, dtype=np.int64), vals.size
    )
    first = np.minimum.reduceat(at_min, seg_starts)
    return spans[first][inverse]


def masked_pair_winners(
    flat: FlatKDTree,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    core_distances: np.ndarray,
    num_threads,
    points=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum mutual-reachability winner per pair.

    ``pair_b`` are node ids of ``flat``; so are ``pair_a``, or — given
    ``points``, whose first ``flat.size`` rows are the tree's points — ids
    of single points.  ``core_distances`` is indexed by point and holds
    ``+inf`` at dead points, so that no dead candidate can win; every pair
    must hold a live point on each side.

    Core-distance-dominated pairs resolve at box level (a point is a
    zero-extent box): when a certified upper bound on the box-to-box
    distance stays below ``cdp = max(min cd A, min cd B)``, every candidate
    value is ``>= cdp`` by definition of mutual reachability and the
    per-side cd-argmin members achieve exactly ``cdp``.  (With the repo's
    reachability-aware WSPD most pairs are of this kind.)  The rest go to
    the one BCCP kernel, :func:`repro.wspd.bccp.bccp_windows`, as windows of
    the tree permutation (one-point windows for points) — no member list is
    ever expanded.
    """
    num = int(pair_a.shape[0])
    win_u = np.empty(num, dtype=np.int64)
    win_v = np.empty(num, dtype=np.int64)
    win_w = np.empty(num, dtype=np.float64)
    if num == 0:
        return win_u, win_v, win_w
    cd_lo = flat.node_value_ranges(core_distances[: flat.size])[0]
    nodes = (flat.node_lower, flat.node_upper)
    if points is None:
        box_a, cd_a = nodes, cd_lo[pair_a]
    else:
        box_a, cd_a = (points, points), core_distances[pair_a]
    cdp = np.maximum(cd_a, cd_lo[pair_b])
    res = _box_distance_hi(flat.metric, box_a, pair_a, nodes, pair_b) <= cdp
    if res.any():
        win_u[res] = (
            _cd_argmin(flat, pair_a[res], core_distances)
            if points is None
            else pair_a[res]
        )
        win_v[res] = _cd_argmin(flat, pair_b[res], core_distances)
        win_w[res] = cdp[res]
    rest = np.flatnonzero(~res)
    if rest.size:
        start_b = flat.node_start[pair_b[rest]]
        if points is None:
            points, index = flat.points, flat.perm
            start_a = flat.node_start[pair_a[rest]]
            size_a = flat.node_end[pair_a[rest]] - start_a
        else:
            index = np.concatenate([flat.perm, pair_a[rest]])
            start_a = flat.size + np.arange(rest.size, dtype=np.int64)
            size_a = np.ones(rest.size, dtype=np.int64)
        win_u[rest], win_v[rest], win_w[rest] = bccp_windows(
            points,
            index,
            start_a,
            size_a,
            start_b,
            flat.node_end[pair_b[rest]] - start_b,
            core_distances,
            metric=flat.metric,
            backend=flat.backend,
            num_threads=num_threads,
        )
    return win_u, win_v, win_w


def node_member_rows(
    flat: FlatKDTree, nodes: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every (i, point) with the point a member of ``nodes[i]``, among the
    points at the sorted permutation ``positions``.

    Node members are contiguous in the permutation, so each node's share of
    ``positions`` is one ``searchsorted`` window.  Returns parallel
    ``(row_of, point_index)`` arrays, grouped by row.
    """
    if nodes.size == 0 or positions.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo = np.searchsorted(positions, flat.node_start[nodes], side="left")
    hi = np.searchsorted(positions, flat.node_end[nodes], side="left")
    counts = (hi - lo).astype(np.int64)
    rows = _segment_ranges(lo.astype(np.int64), counts)
    row_of = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), counts)
    return row_of, flat.perm[positions[rows]]


def winner_beat_mask(
    flat: FlatKDTree,
    nodes: np.ndarray,
    other_nodes: np.ndarray,
    touched_positions: np.ndarray,
    points: np.ndarray,
    core_distances: np.ndarray,
    winner_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The touched members of ``nodes[i]`` that could undercut its winner.

    ``touched_positions`` are the sorted permutation positions of the alive
    points whose core distance shrank this update.  For each such member
    ``q`` of ``nodes[i]`` the certified lower bound
    ``L(q) = max(gap(q, box(other)), cd(q), cd_min_live(other))`` bounds every
    candidate ``max(d(q, b), cd(q), cd(b))`` with ``b`` alive in the other
    node from below, so only rows with ``L(q) < winner_values[i]`` can hold
    a smaller candidate; each such row is one (point, node) pair ``(q,
    other_nodes[i])`` for the caller to resolve.  ``flat.cd_min`` must
    already hold the live extrema.  The filter is one-sided — call it for
    both orientations.  Returns parallel ``(row_of, point_index)`` arrays
    of the undercutting rows, grouped by row.
    """
    pair_of, q = node_member_rows(flat, nodes, touched_positions)
    if q.size == 0:
        return pair_of, q
    queries = np.ascontiguousarray(points[q], dtype=flat.backend.scoring_dtype)
    gaps = np.asarray(
        flat.min_distances_to_points(queries, other_nodes[pair_of]),
        dtype=np.float64,
    )
    bound = np.maximum(
        np.maximum(gaps, core_distances[q]),
        np.asarray(flat.cd_min[other_nodes[pair_of]], dtype=np.float64),
    )
    beat = bound < winner_values[pair_of]
    return pair_of[beat], q[beat]


def singleton_separated_mask(
    flat: FlatKDTree,
    queries: np.ndarray,
    query_cds: np.ndarray,
    nodes: np.ndarray,
) -> np.ndarray:
    """Conservative HDBSCAN* separation of (query point, node) pairs.

    ``queries`` are the pairs' points in the backend's scoring dtype and
    ``query_cds`` their core distances.  The query is a zero-radius node;
    the test uses the *stale* node boxes with the *live* core-distance
    annotations (``flat.cd_min`` / ``flat.cd_max`` must hold the alive
    extrema): the box gap under-estimates the true minimum distance and
    ``2 * node_radius`` over-estimates the live diameter, so a pair declared
    separated is truly HDBSCAN*-well-separated with respect to the alive
    members.
    """
    gaps = np.asarray(
        flat.min_distances_to_points(queries, nodes), dtype=np.float64
    )
    diameter = 2.0 * np.asarray(flat.node_radius[nodes], dtype=np.float64)
    node_lo = np.asarray(flat.cd_min[nodes], dtype=np.float64)
    node_hi = np.asarray(flat.cd_max[nodes], dtype=np.float64)
    reach_lo = np.maximum(gaps, np.maximum(query_cds, node_lo))
    reach_hi = np.maximum(diameter, np.maximum(query_cds, node_hi))
    return (gaps >= diameter) | (reach_lo >= reach_hi)


def descend_singleton_pairs(
    flat: FlatKDTree,
    queries: np.ndarray,
    query_cds: np.ndarray,
    node_alive: np.ndarray,
    roots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """HDBSCAN*-separated decomposition of (buffer point × base subtree).

    Each query descends from its root node ``roots[i]``; a (point, node)
    pair is emitted when it passes :func:`singleton_separated_mask` or the
    node is a leaf, and is split otherwise.  The test's errors only ever
    split deeper, never lose coverage.  Subtrees with no alive member are
    dropped.  Returns parallel ``(query_index, node_id)`` arrays.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if queries.shape[0] == 0 or flat.size == 0:
        return empty
    scoring = np.ascontiguousarray(queries, dtype=flat.backend.scoring_dtype)
    cds = np.asarray(query_cds, dtype=np.float64)
    cur_q = np.arange(queries.shape[0], dtype=np.int64)
    cur_n = np.asarray(roots, dtype=np.int64)
    out_q = []
    out_n = []
    while cur_q.size:
        keep = node_alive[cur_n]
        cur_q = cur_q[keep]
        cur_n = cur_n[keep]
        if cur_q.size == 0:
            break
        emit = singleton_separated_mask(
            flat, scoring[cur_q], cds[cur_q], cur_n
        ) | (flat.left_child[cur_n] < 0)
        out_q.append(cur_q[emit])
        out_n.append(cur_n[emit])
        rest_q = cur_q[~emit]
        rest_n = cur_n[~emit]
        cur_q = np.concatenate([rest_q, rest_q])
        cur_n = np.concatenate(
            [flat.left_child[rest_n], flat.right_child[rest_n]]
        )
    if not out_q:
        return empty
    return np.concatenate(out_q), np.concatenate(out_n)
