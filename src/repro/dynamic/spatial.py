"""Array helpers for incremental repair over a tombstoned kd-tree.

The dynamic engine (:mod:`repro.dynamic.engine`) keeps the fitted WSPD
decomposition of its *base* tree alive across updates and repairs it locally:
deleted base points are tombstoned (``alive`` mask), inserted points live in a
small side buffer, and only pairs whose boxes intersect the touched region
ever get re-examined.  Everything here is the pure-array substrate for that
repair:

* live per-node flags/extrema (one :meth:`FlatKDTree.node_value_ranges`
  sweep each) — the stale node boxes stay put, only the annotations move;
* ragged *alive member* extraction for a batch of nodes;
* a segmented masked BCCP: the exact minimum mutual-reachability pair over
  the alive cross product of each (node, node) pair, evaluated with the
  row-wise :meth:`Metric.exact_edge_weights` kernel — the same
  :meth:`Metric.diff_norms` rows the k-NN fold reads core distances from, so
  cached and recomputed values share one bitwise contract;
* the winner *beat* test — a certified lower bound deciding whether a
  core-distance change anywhere in a pair could undercut its cached winner;
* the singleton descent pairing each buffered point against the base tree
  under the HDBSCAN* separation predicate (conservatively, using the stale
  boxes, which only ever splits deeper — coverage is preserved).

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


def alive_members(
    flat: FlatKDTree, node_ids: np.ndarray, alive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged alive-member lists for a batch of nodes.

    Returns ``(counts, members)``: ``members`` concatenates, per node in
    input order, the alive point indices of that node (in permutation
    order); ``counts[i]`` is the number contributed by ``node_ids[i]``.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = flat.node_start[node_ids]
    full = (flat.node_end[node_ids] - starts).astype(np.int64)
    members = flat.perm[_segment_ranges(starts, full)]
    if alive.all():
        return full, members
    owner = np.repeat(np.arange(node_ids.size, dtype=np.int64), full)
    keep = alive[members]
    members = members[keep]
    counts = np.bincount(owner[keep], minlength=node_ids.size).astype(np.int64)
    return counts, members


def segmented_min_mr(
    points: np.ndarray,
    core_distances: np.ndarray,
    metric: Metric,
    a_counts: np.ndarray,
    a_members: np.ndarray,
    b_counts: np.ndarray,
    b_members: np.ndarray,
    *,
    chunk_elems: int = 1 << 21,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum mutual-reachability pair per (ragged A, ragged B) pair.

    Every dynamic candidate — cold fit, repair recompute, buffer coverage —
    goes through this kernel, so each pair contributes its *exact* minimum:
    :func:`repro.mst.canonical_mst_arrays` then yields the same filtration
    for any covering decomposition, which is what makes incremental updates
    byte-identical to a cold refit.  (An argmin under the expansion-style
    scoring kernel alone may sit an ulp above the exact minimum, and which
    candidate it picks depends on the decomposition — not reproducible
    across updates.)

    Evaluation is two-phase.  Phase 1 scores each pair's padded cross
    product with the fast batched tensor kernel
    (:meth:`Metric.block_cross_distances`, grouped in power-of-two size
    classes like the BCCP kernel) and splits candidates with a certified
    per-pair error band ``up(x)`` that provably covers the scoring kernel's
    rounding: a candidate whose core-distance term reaches ``up(score)``
    has *exact* value ``cd_ab`` and never needs evaluation (these are the
    bulk of every core-distance-dominated pair, all tied at the same cd);
    the remaining candidates survive only if their banded score reaches the
    pair's certified ceiling.  Phase 2 re-evaluates the survivors
    (typically one or two per pair) with the row-wise
    :meth:`Metric.exact_edge_weights` kernel and takes the exact minimum.
    The result is therefore bitwise independent of the chunking, the
    scoring kernel's rounding, and the thread count.  Every pair must have
    at least one member on each side.
    """
    from repro.parallel.pool import current_workspace

    num = int(a_counts.shape[0])
    win_u = np.empty(num, dtype=np.int64)
    win_v = np.empty(num, dtype=np.int64)
    win_w = np.empty(num, dtype=np.float64)
    if num == 0:
        return win_u, win_v, win_w
    a_counts = np.asarray(a_counts, dtype=np.int64)
    b_counts = np.asarray(b_counts, dtype=np.int64)
    a_off = np.cumsum(a_counts) - a_counts
    b_off = np.cumsum(b_counts) - b_counts
    points = np.asarray(points, dtype=np.float64)
    cds = np.asarray(core_distances, dtype=np.float64)
    dim = int(points.shape[1])
    eps = float(np.finfo(np.float64).eps)
    expansion = metric.name == "euclidean"
    p_order = float(getattr(metric, "p", 1.0))
    # Certified scoring-vs-exact error bands.  Expansion scoring satisfies
    # |score^2 - exact^2| <= E2 with E2 = (16*dim+64)*eps*(|a|^2+|b|^2), so in
    # the value domain |score - exact| <= sqrt(E2max) for a per-pair bound
    # E2max over member norms; S = 2*sqrt(E2max) leaves a 2x margin.  The
    # per-axis scoring kernels accumulate in the same order as the row-wise
    # exact kernel up to summation shape, bounded by a relative band; the
    # factor 8 absorbs 1/(1-x) vs (1+x) asymmetry when inverting it.
    direct_mult = 1.0 + 8.0 * 64.0 * max(p_order, 1.0) * dim * eps
    e2_coeff = (16.0 * dim + 64.0) * eps
    workspace = current_workspace()

    # Group by padded size class so padding waste stays bounded, as in the
    # batched BCCP kernel; results scatter back to the input pair order.
    bits_a = np.ceil(np.log2(np.maximum(a_counts, 1))).astype(np.int64)
    bits_b = np.ceil(np.log2(np.maximum(b_counts, 1))).astype(np.int64)
    order = np.argsort(bits_a * 64 + bits_b, kind="stable")
    sorted_key = (bits_a * 64 + bits_b)[order]
    boundaries = np.flatnonzero(np.diff(sorted_key)) + 1
    group_starts = np.concatenate([[0], boundaries, [order.size]])

    for gidx in range(group_starts.size - 1):
        rows_all = order[group_starts[gidx] : group_starts[gidx + 1]]
        p_a = int(a_counts[rows_all].max())
        p_b = int(b_counts[rows_all].max())
        if p_a == 1 and p_b == 1:
            # Singleton pairs: the lone candidate IS the winner — evaluate
            # it exactly and skip the scoring machinery outright.
            u = a_members[a_off[rows_all]]
            v = b_members[b_off[rows_all]]
            win_u[rows_all] = u
            win_v[rows_all] = v
            win_w[rows_all] = metric.exact_edge_weights(points, u, v, cds)
            continue
        chunk = max(1, chunk_elems // (p_a * p_b))
        for lo in range(0, rows_all.size, chunk):
            rows = rows_all[lo : lo + chunk]
            g = int(rows.size)
            ca, cb = a_counts[rows], b_counts[rows]

            def padded(counts, offsets, members, width):
                # Each row's members are contiguous in the concatenated
                # member array, so padding is a clamped gather: overhang
                # columns repeat the row's last member and are masked off.
                col = np.arange(width, dtype=np.int64)
                idx = offsets[:, None] + np.minimum(
                    col[None, :], counts[:, None] - 1
                )
                return members[idx], col[None, :] < counts[:, None]

            ids_a, valid_a = padded(ca, a_off[rows], a_members, p_a)
            ids_b, valid_b = padded(cb, b_off[rows], b_members, p_b)
            pts_a = np.ascontiguousarray(points[ids_a.ravel()]).reshape(
                g, p_a, dim
            )
            pts_b = np.ascontiguousarray(points[ids_b.ravel()]).reshape(
                g, p_b, dim
            )
            scores = metric.block_cross_distances(pts_a, pts_b, workspace)
            # Per-pair certified band: up(x) >= x + (scoring error at x).
            if expansion:
                sq_a = np.einsum("gpd,gpd->gp", pts_a, pts_a)
                sq_b = np.einsum("gqd,gqd->gq", pts_b, pts_b)
                band = 2.0 * np.sqrt(
                    e2_coeff
                    * (
                        np.where(valid_a, sq_a, 0.0).max(axis=1)
                        + np.where(valid_b, sq_b, 0.0).max(axis=1)
                    )
                )
            else:
                band = None
            # `hi` holds up(scores); `scores` is then overwritten in place
            # with the scored mutual reachability (padded slots become +inf
            # via the inf-padded 2D core-distance gathers, so no 3D validity
            # mask is ever materialised).
            hi = workspace.take("dyn.hi", scores.shape)
            if expansion:
                np.add(scores, band[:, None, None], out=hi)
            else:
                np.multiply(scores, direct_mult, out=hi)
            cd_a2 = np.where(valid_a, cds[ids_a], np.inf)
            cd_b2 = np.where(valid_b, cds[ids_b], np.inf)
            mr = scores
            np.maximum(mr, cd_a2[:, :, None], out=mr)
            np.maximum(mr, cd_b2[:, None, :], out=mr)
            # A candidate whose core-distance term certifiably dominates its
            # distance (mr >= up(score) forces cd_ab = mr >= exact distance)
            # has EXACT value cd_ab = mr — no evaluation needed.  These are
            # the bulk of every core-distance-dominated pair (all tied at the
            # same cd), so they must never reach phase 2.
            dom = mr >= hi
            np.copyto(hi, np.inf)
            np.copyto(hi, mr, where=dom)
            flat_hi = hi.reshape(g, -1)
            cert_arg = flat_hi.argmin(axis=1)
            m_cert = flat_hi[np.arange(g), cert_arg]
            np.copyto(hi, mr)
            np.copyto(hi, np.inf, where=dom)
            m_unc_lo = flat_hi.min(axis=1)
            if expansion:
                ceiling = np.minimum(m_cert, m_unc_lo + band)
                cutoff = ceiling + band
            else:
                ceiling = np.minimum(m_cert, m_unc_lo * direct_mult)
                cutoff = ceiling * direct_mult
            # `hi` has +inf at dominated and padded slots, so this selects
            # exactly the uncertain candidates within band of the ceiling.
            keep_g, keep_a, keep_b = np.nonzero(hi <= cutoff[:, None, None])
            m_unc = np.full(g, np.inf)
            first_u = np.zeros(g, dtype=np.int64)
            first_v = np.zeros(g, dtype=np.int64)
            if keep_g.size:
                cand_u = ids_a[keep_g, keep_a]
                cand_v = ids_b[keep_g, keep_b]
                exact = metric.exact_edge_weights(points, cand_u, cand_v, cds)
                starts = np.flatnonzero(
                    np.concatenate(
                        [np.ones(1, dtype=bool), keep_g[1:] != keep_g[:-1]]
                    )
                )
                mins = np.minimum.reduceat(exact, starts)
                counts_g = np.diff(np.append(starts, keep_g.size))
                grp = np.repeat(
                    np.arange(starts.size, dtype=np.int64), counts_g
                )
                at_min = np.where(
                    exact == mins[grp],
                    np.arange(keep_g.size, dtype=np.int64),
                    keep_g.size,
                )
                first = np.minimum.reduceat(at_min, starts)
                m_unc[keep_g[starts]] = mins
                first_u[keep_g[starts]] = cand_u[first]
                first_v[keep_g[starts]] = cand_v[first]
            take_unc = m_unc <= m_cert
            win_w[rows] = np.where(take_unc, m_unc, m_cert)
            win_u[rows] = np.where(
                take_unc, first_u, ids_a[np.arange(g), cert_arg // p_b]
            )
            win_v[rows] = np.where(
                take_unc, first_v, ids_b[np.arange(g), cert_arg % p_b]
            )
    return win_u, win_v, win_w


def _certified_box_gap_hi(
    flat: FlatKDTree,
    nodes_a: np.ndarray,
    nodes_b: np.ndarray,
    metric: Metric,
) -> np.ndarray:
    """Certified upper bound on the max distance between two node boxes.

    Per axis, ``max|x_a - x_b|`` over the boxes is bounded by
    ``max(hi_a - lo_b, hi_b - lo_a)`` in exact arithmetic; the final factor
    absorbs the rounding of the float subtractions and of the norm
    accumulation, so the returned value dominates every exact member
    distance.  Boxes cover dead members too, which only loosens the bound.
    """
    from repro.parallel.pool import current_workspace

    num = int(nodes_a.shape[0])
    dim = int(flat.node_lower.shape[1])
    eps = float(np.finfo(np.float64).eps)
    p_order = max(float(getattr(metric, "p", 2.0)), 2.0)
    factor = 1.0 + (8.0 * p_order * dim + 32.0) * eps
    lower = np.ascontiguousarray(flat.node_lower, dtype=np.float64)
    upper = np.ascontiguousarray(flat.node_upper, dtype=np.float64)
    out = np.empty(num, dtype=np.float64)
    workspace = current_workspace()
    chunk = 1 << 18
    for lo in range(0, num, chunk):
        sl = slice(lo, min(lo + chunk, num))
        r = sl.stop - sl.start
        g = workspace.take("dyn.box.g", (r, dim))
        t = workspace.take("dyn.box.t", (r, dim))
        u = workspace.take("dyn.box.u", (r, dim))
        np.take(upper, nodes_a[sl], axis=0, out=g)
        np.take(lower, nodes_b[sl], axis=0, out=t)
        np.subtract(g, t, out=g)
        np.take(upper, nodes_b[sl], axis=0, out=t)
        np.take(lower, nodes_a[sl], axis=0, out=u)
        np.subtract(t, u, out=t)
        np.maximum(g, t, out=g)
        np.maximum(g, 0.0, out=g)
        out[sl] = metric.diff_norms(g)
    out *= factor
    return out


def _alive_cd_argmin(
    flat: FlatKDTree, node_ids: np.ndarray, cds: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Per node, the alive member (point index) with the smallest core
    distance — first in permutation order on ties.  Every node must hold at
    least one alive member."""
    starts = flat.node_start[node_ids].astype(np.int64)
    lens = (flat.node_end[node_ids] - starts).astype(np.int64)
    spans = flat.perm[_segment_ranges(starts, lens)]
    vals = np.where(alive[spans], cds[spans], np.inf)
    seg_starts = np.cumsum(lens) - lens
    mins = np.minimum.reduceat(vals, seg_starts)
    grp = np.repeat(np.arange(node_ids.size, dtype=np.int64), lens)
    at_min = np.where(
        vals == mins[grp], np.arange(vals.size, dtype=np.int64), vals.size
    )
    first = np.minimum.reduceat(at_min, seg_starts)
    return spans[first]


def masked_pair_winners(
    flat: FlatKDTree,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    alive: np.ndarray,
    core_distances: np.ndarray,
    metric: Metric,
    num_threads,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum mutual-reachability winner per pair, ignoring tombstones.

    Core-distance-dominated pairs — where a certified upper bound on the
    box-to-box distance stays below ``max(min alive cd A, min alive cd B)``
    — resolve at box level: every candidate value is ``>= cdp`` by
    definition of mutual reachability, and the per-side alive cd-argmin
    members certifiably achieve exactly ``cdp``.  (With the repo's
    reachability-aware WSPD most pairs are of this kind.)  The rest are
    reduced to their ragged alive member lists and evaluated with
    :func:`segmented_min_mr` — the single exact winner kernel of the dynamic
    engine, so the recomputed values join the cached ones with the same
    bitwise contract.  Both sides of every pair must hold at least one
    alive point.
    """
    num = int(pair_a.shape[0])
    if num == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    cds = np.asarray(core_distances, dtype=np.float64)
    cd_lo, _ = live_cd_extrema(flat, cds, alive)
    cd_lo = np.asarray(cd_lo, dtype=np.float64)
    cdp = np.maximum(cd_lo[pair_a], cd_lo[pair_b])
    resolved = _certified_box_gap_hi(flat, pair_a, pair_b, metric) <= cdp

    win_u = np.empty(num, dtype=np.int64)
    win_v = np.empty(num, dtype=np.int64)
    win_w = np.empty(num, dtype=np.float64)

    res = np.flatnonzero(resolved)
    if res.size:
        nodes = np.concatenate([pair_a[res], pair_b[res]])
        uniq, inv = np.unique(nodes, return_inverse=True)
        wit = _alive_cd_argmin(flat, uniq, cds, alive)[inv]
        win_u[res] = wit[: res.size]
        win_v[res] = wit[res.size :]
        win_w[res] = cdp[res]

    rest = np.flatnonzero(~resolved)
    if rest.size:
        a_counts, a_members = alive_members(flat, pair_a[rest], alive)
        b_counts, b_members = alive_members(flat, pair_b[rest], alive)
        ru, rv, rw = segmented_min_mr(
            flat.points, cds, metric,
            a_counts, a_members, b_counts, b_members,
        )
        win_u[rest] = ru
        win_v[rest] = rv
        win_w[rest] = rw
    return win_u, win_v, win_w


def winner_beat_mask(
    flat: FlatKDTree,
    nodes: np.ndarray,
    other_nodes: np.ndarray,
    touched_positions: np.ndarray,
    points: np.ndarray,
    core_distances: np.ndarray,
    winner_values: np.ndarray,
) -> np.ndarray:
    """Could a touched member of ``nodes[i]`` undercut the cached winner?

    ``touched_positions`` are the sorted permutation positions of the alive
    points whose core distance changed this update.  For each such member
    ``q`` of ``nodes[i]`` the certified lower bound
    ``L(q) = max(gap(q, box(other)), cd(q), cd_min_live(other))`` bounds every
    candidate ``max(d(q, b), cd(q), cd(b))`` with ``b`` alive in the other
    node from below; the pair needs a winner recompute only when some
    ``L(q) < winner_values[i]``.  ``flat.cd_min`` must already hold the live
    extrema.  The test is one-sided — call it for both orientations.
    """
    out = np.zeros(nodes.shape[0], dtype=bool)
    if nodes.size == 0 or touched_positions.size == 0:
        return out
    lo = np.searchsorted(touched_positions, flat.node_start[nodes], side="left")
    hi = np.searchsorted(touched_positions, flat.node_end[nodes], side="left")
    counts = (hi - lo).astype(np.int64)
    if int(counts.sum()) == 0:
        return out
    rows = _segment_ranges(lo.astype(np.int64), counts)
    pair_of = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), counts)
    q = flat.perm[touched_positions[rows]]
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
    out[np.unique(pair_of[beat])] = True
    return out


def descend_singleton_pairs(
    flat: FlatKDTree,
    queries: np.ndarray,
    query_cds: np.ndarray,
    node_alive: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """HDBSCAN*-separated decomposition of (buffer point × base tree).

    Each query descends from the root; a (point, node) pair is emitted when
    it passes the conservative separation test or the node is a leaf, and is
    split otherwise.  The test treats the query as a zero-radius node and
    uses the *stale* node boxes with the *live* core-distance annotations
    (``flat.cd_min`` / ``flat.cd_max`` must hold the alive extrema): the box
    gap under-estimates the true minimum distance and ``2 * node_radius``
    over-estimates the live diameter, so a pair declared separated is truly
    HDBSCAN*-well-separated with respect to the alive members — errors only
    ever split deeper, never lose coverage.  Subtrees with no alive member
    are dropped.  Returns parallel ``(query_index, node_id)`` arrays.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if queries.shape[0] == 0 or flat.size == 0:
        return empty
    scoring = np.ascontiguousarray(queries, dtype=flat.backend.scoring_dtype)
    cds = np.asarray(query_cds, dtype=np.float64)
    cur_q = np.arange(queries.shape[0], dtype=np.int64)
    cur_n = np.zeros(queries.shape[0], dtype=np.int64)
    out_q = []
    out_n = []
    while cur_q.size:
        keep = node_alive[cur_n]
        cur_q = cur_q[keep]
        cur_n = cur_n[keep]
        if cur_q.size == 0:
            break
        gaps = np.asarray(
            flat.min_distances_to_points(scoring[cur_q], cur_n), dtype=np.float64
        )
        diameter = 2.0 * np.asarray(flat.node_radius[cur_n], dtype=np.float64)
        node_lo = np.asarray(flat.cd_min[cur_n], dtype=np.float64)
        node_hi = np.asarray(flat.cd_max[cur_n], dtype=np.float64)
        geometric = gaps >= diameter
        reach_lo = np.maximum(gaps, np.maximum(cds[cur_q], node_lo))
        reach_hi = np.maximum(diameter, np.maximum(cds[cur_q], node_hi))
        separated = geometric | (reach_lo >= reach_hi)
        emit = separated | (flat.left_child[cur_n] < 0)
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
