"""Top-down dendrogram construction (Section 4.2 of the paper).

:func:`dendrogram_topdown` is the divide-and-conquer algorithm with heavy
and light edges.  Each subproblem takes the heaviest ``heavy_fraction`` of
its edges (the paper uses 1/10) as the *heavy* subproblem, which forms the
top part of its dendrogram; the connected components induced by the
remaining *light* edges form independent light subproblems whose dendrogram
roots are spliced into the corresponding positions of the heavy-edge
dendrogram.  The light components are contracted into supernodes for the
heavy subproblem, and the supernode's dendrogram id *is* the light
component's dendrogram root.

**Node ids.**  The edges are ranked once by a stable weight sort, and the
internal node of the edge of rank ``r`` is node ``n + r`` — the id the
sequential bottom-up sweep gives it.  A light component's root is therefore
``n + (its largest rank)``, known before any merge runs, so the splice needs
no result from the light subproblem and every subproblem of a level is
independent of the others.

**Level-synchronous schedule.**  The live edges are kept sorted by
(subproblem, rank), so every subproblem is a contiguous segment.  One level
splits every active segment at once:

* a segment of ``m`` edges whose heavy part would be all of it, or with
  ``m <= base_size``, is a base case and leaves the recursion;
* otherwise its top ``max(1, int(m * heavy_fraction))`` ranks are heavy,
  and the light components of all segments are labelled together by one
  :func:`connected_components` call (segments never share a supernode);
* every heavy endpoint inside a light component is redirected to that
  component's root, and a stable regroup by the new segments' largest rank
  restores the (segment, rank) order.

The base cases of all levels then run as one bottom-up merge sweep
(:func:`repro.dendrogram.sequential.merge_edges_bottom_up`) over every edge
in rank order, each endpoint replaced by the supernode it had in its base
case.  Python-level calls grow with the number of levels, not with ``n``,
and the result is byte-identical to
:func:`repro.dendrogram.sequential.dendrogram_sequential` for every
``heavy_fraction`` and ``base_size``.

**Work-depth model.**  Each level charges its live edges as work and
``log2`` of its largest segment as depth (the subproblems of a level run in
parallel, so only the largest counts); the base cases charge their edges as
work and the largest base case's edge count as depth (each is a sequential
sweep).  The sweep of all base cases runs here as one serial pass, which
is why the fits use :func:`~repro.dendrogram.sequential.dendrogram_sequential`
on one core: it gives the same dendrogram and skips the levels.

The construction honours the ordered-dendrogram rule (the child cluster
attached to the endpoint closer to the starting vertex goes left), so its
in-order leaf traversal equals Prim's visiting order from that vertex.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.dendrogram.sequential import (
    merge_edges_bottom_up,
    tree_vertex_distances,
)
from repro.dendrogram.structure import Dendrogram
from repro.mst.boruvka import connected_components
from repro.mst.edges import coerce_edge_arrays
from repro.parallel.primitives import segment_ranges
from repro.parallel.scheduler import current_tracker


def dendrogram_topdown(
    edges,
    num_points: int,
    *,
    start: int = 0,
    heavy_fraction: float = 0.1,
    base_size: int = 32,
    vertex_distance: Optional[np.ndarray] = None,
) -> Dendrogram:
    """Ordered dendrogram via the heavy/light divide-and-conquer algorithm.

    Parameters
    ----------
    edges:
        The ``num_points - 1`` spanning-tree edges (any edge collection
        accepted by :func:`repro.mst.edges.coerce_edge_arrays`).
    num_points:
        Number of points/leaves.
    start:
        Starting vertex for the ordered dendrogram / reachability plot.
    heavy_fraction:
        Fraction of the edges treated as heavy at each level (paper: 1/10).
    base_size:
        Subproblems with at most this many edges switch to the sequential
        bottom-up construction (the paper similarly switches to the sequential
        algorithm below a size threshold).
    vertex_distance:
        Precomputed hop distances from ``start``.

    Raises :class:`~repro.core.errors.InvalidParameterError` when the edges
    do not form a spanning tree.
    """
    if num_points < 1:
        raise InvalidParameterError("num_points must be >= 1")
    edge_u, edge_v, edge_w = coerce_edge_arrays(edges)
    dendrogram = Dendrogram(num_points)
    if num_points == 1:
        return dendrogram
    m = num_points - 1
    if edge_u.shape[0] != m:
        raise InvalidParameterError(
            f"a spanning tree over {num_points} points needs {m} edges, "
            f"got {edge_u.shape[0]}"
        )
    if not 0.0 < heavy_fraction <= 1.0:
        raise InvalidParameterError("heavy_fraction must be in (0, 1]")
    if vertex_distance is None:
        vertex_distance = tree_vertex_distances(
            (edge_u, edge_v, edge_w), num_points, start
        )
    base_size = max(base_size, 1)

    by_rank = np.argsort(edge_w, kind="stable")
    edge_u, edge_v, edge_w = edge_u[by_rank], edge_v[by_rank], edge_w[by_rank]
    # Live edges in (segment, rank) order with the supernode of each
    # endpoint; a segment is one subproblem, named by its starting position.
    ranks = np.arange(m, dtype=np.int64)
    rep_u, rep_v = edge_u, edge_v
    starts = np.zeros(1, dtype=np.int64)
    # Supernodes each edge had in its base case, indexed by rank.
    base_u = np.empty(m, dtype=np.int64)
    base_v = np.empty(m, dtype=np.int64)
    local_of = np.empty(num_points + m, dtype=np.int64)
    tracker = current_tracker()
    largest_base = 0
    while ranks.size:
        counts = np.diff(starts, append=ranks.size)
        # The paper runs the subproblems of a level in parallel: their work
        # adds up, their depth contributes only its maximum.
        tracker.add(
            ranks.size, max(math.log2(int(counts.max()) + 1), 1.0), phase="dendrogram"
        )
        light_count = counts - np.maximum(
            (counts * heavy_fraction).astype(np.int64), 1
        )
        split = (counts > base_size) & (light_count > 0)
        if not split.all():
            largest_base = max(largest_base, int(counts[~split].max()))
        edge_split = np.repeat(split, counts)
        done = ~edge_split
        base_u[ranks[done]] = rep_u[done]
        base_v[ranks[done]] = rep_v[done]
        if not split.any():
            break
        ranks, rep_u, rep_v = ranks[edge_split], rep_u[edge_split], rep_v[edge_split]
        counts, light_count = counts[split], light_count[split]
        starts = np.cumsum(counts) - counts
        # Heavy edges: the top ranks of every segment.
        heavy = segment_ranges(-light_count, counts) >= 0
        light = ~heavy

        # Light components of all segments at once, over the supernodes of
        # the light edges compressed to local ids by a mark pass.
        light_u, light_v = rep_u[light], rep_v[light]
        marked = np.zeros(local_of.shape[0], dtype=bool)
        marked[light_u] = True
        marked[light_v] = True
        supernodes = np.flatnonzero(marked)
        local_of[supernodes] = np.arange(supernodes.size, dtype=np.int64)
        local_u = local_of[light_u]
        labels = connected_components(local_u, local_of[light_v], supernodes.size)
        largest = np.full(supernodes.size, -1, dtype=np.int64)
        np.maximum.at(largest, labels[local_u], ranks[light])

        # A component's root is node ``n + largest rank``: heavy endpoints
        # whose supernode the component absorbed move to it.
        for column in (rep_u, rep_v):
            moved = heavy & marked[column]
            column[moved] = num_points + largest[labels[local_of[column[moved]]]]

        # Regroup by the new segments' largest rank: a light component's, or
        # for a heavy part the rank at its old segment's end.
        key = np.repeat(ranks[starts + counts - 1], counts)
        key[light] = largest[labels[local_u]]
        regroup = np.argsort(key, kind="stable")
        ranks, rep_u, rep_v, key = (
            ranks[regroup], rep_u[regroup], rep_v[regroup], key[regroup]
        )
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))

    # The base cases are independent sequential sweeps: the longest one is
    # the critical path, though here they run as one sweep.
    tracker.add(m, max(largest_base, 1), phase="dendrogram")
    root = merge_edges_bottom_up(
        dendrogram, edge_u, edge_v, edge_w, base_u, base_v, vertex_distance
    )
    if dendrogram.num_internal != m:
        raise InvalidParameterError("the edges do not form a spanning tree")
    dendrogram.set_root(root)
    return dendrogram
