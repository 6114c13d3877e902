"""Sequential bottom-up dendrogram construction.

This is the classic agglomerative construction the paper describes as the
sequential baseline: sort the tree edges by weight and process them in
increasing order, merging the clusters of the two endpoints with a union-find
structure.  The order of the merges *is* the dendrogram.

The construction is array-backed end to end: the edge batch is argsorted once
(stable), the merge sweep runs over plain index arrays with an inlined
union-find (no per-edge dict probes or tracker dispatch), cluster → dendrogram
node bindings and cluster sizes live in flat arrays indexed by union-find
root, and the finished merge columns are appended to the
:class:`~repro.dendrogram.structure.Dendrogram` with one bulk call.

The construction is made *ordered* (Section 4.1) with the local rule the paper
uses: for the internal node created by edge ``(u, v)``, the child cluster
containing the endpoint with the smaller unweighted distance from the starting
vertex becomes the left child.  With distinct edge weights the resulting
dendrogram is exactly the ordered dendrogram whose in-order leaf traversal is
Prim's visiting order from the starting vertex.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.dendrogram.structure import Dendrogram
from repro.mst.edges import coerce_edge_arrays
from repro.parallel.scheduler import current_tracker


def tree_vertex_distances(edges, num_points: int, start: int) -> np.ndarray:
    """Unweighted hop distance of every vertex from ``start`` in the tree.

    This is the "vertex distance" of Section 4.2; it is computed once and
    shared by the ordered-dendrogram constructions.  The tree is folded into
    CSR adjacency (degree counting + one stable argsort of the doubled
    endpoint array) and the BFS expands a whole frontier per round with
    vectorized neighbour gathers — no per-vertex Python adjacency lists.
    """
    u, v, _ = coerce_edge_arrays(edges)
    heads = np.concatenate([u, v])
    tails = np.concatenate([v, u])
    degrees = np.bincount(heads, minlength=num_points)
    indptr = np.zeros(num_points + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    neighbours = tails[np.argsort(heads, kind="stable")]

    distances = np.full(num_points, -1, dtype=np.int64)
    distances[start] = 0
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        gather = np.arange(total, dtype=np.int64)
        gather += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        candidates = neighbours[gather]
        fresh = candidates[distances[candidates] < 0]
        if fresh.size == 0:
            break
        # A vertex can be reached from two frontier vertices only in a graph
        # with cycles; for the trees handled here ``fresh`` is duplicate-free,
        # but ``unique`` keeps the function correct on any graph.
        frontier = np.unique(fresh)
        distances[frontier] = level
    return distances


def _ordered_children(
    node_u: int,
    node_v: int,
    u: int,
    v: int,
    vertex_distance: np.ndarray,
) -> Tuple[int, int]:
    """Order the two child clusters by the paper's rule.

    ``node_u`` is the cluster containing ``u`` and ``node_v`` the cluster
    containing ``v``; the cluster attached to the endpoint closer to the
    starting vertex goes left.
    """
    if vertex_distance[u] <= vertex_distance[v]:
        return node_u, node_v
    return node_v, node_u


def merge_edges_bottom_up(
    dendrogram: Dendrogram,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    rep_u: np.ndarray,
    rep_v: np.ndarray,
    vertex_distance: np.ndarray,
) -> int:
    """Union-find merge sweep shared by the bottom-up constructions.

    Builds every internal node of the fresh ``dendrogram`` from the tree
    edges, which arrive in merge order (non-decreasing weight): edge ``i``
    merges the clusters of its endpoints and, when both lie in different
    clusters, creates internal node ``num_points + i`` (later ids shift down
    by one per rejected edge, which only a non-tree input produces).
    Returns the id of the last node created (-1 when no merge happened).

    ``rep_u[i]`` / ``rep_v[i]`` name the union-find element holding each
    endpoint when the sweep reaches edge ``i``: the endpoint itself, or an
    internal node created earlier in this sweep that stands for a whole
    contracted group (the root of a light component of the top-down
    construction).  Elements are node ids, so the parent/rank/binding/size
    state lives in flat lists over all ``2n - 1`` ids and the sweep touches
    no dicts; a created node's size is recorded under its own id, so it
    enters later merges as an element of the right size.
    """
    m = int(edge_u.shape[0])
    if m == 0:
        return -1
    n = dendrogram.num_points
    total = n + m
    parent = list(range(total))
    rank = [0] * total
    binding = list(range(total))
    sizes = [1] * n + [0] * m
    reps_u = rep_u.tolist()
    reps_v = rep_v.tolist()
    us = edge_u.tolist()
    vs = edge_v.tolist()
    vd = vertex_distance.tolist()

    out_left = []
    out_right = []
    out_size = []
    accepted = np.ones(m, dtype=bool)
    next_id = n
    for index in range(m):
        x = reps_u[index]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        y = reps_v[index]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            # Only a non-tree input (an edge closing a cycle) gets here.
            accepted[index] = False
            continue
        if vd[us[index]] <= vd[vs[index]]:
            out_left.append(binding[x])
            out_right.append(binding[y])
        else:
            out_left.append(binding[y])
            out_right.append(binding[x])
        if rank[x] < rank[y]:
            x, y = y, x
        elif rank[x] == rank[y]:
            rank[x] += 1
        parent[y] = x
        size = sizes[x] + sizes[y]
        sizes[x] = sizes[next_id] = size
        out_size.append(size)
        binding[x] = next_id
        next_id += 1

    created = next_id - n
    if created == 0:
        return -1
    dendrogram.add_internal_batch(
        np.array(out_left, dtype=np.int64),
        np.array(out_right, dtype=np.int64),
        edge_w[accepted],
        edge_u[accepted],
        edge_v[accepted],
        np.array(out_size, dtype=np.int64),
    )
    return next_id - 1


def dendrogram_sequential(
    edges,
    num_points: int,
    *,
    start: int = 0,
    vertex_distance: Optional[np.ndarray] = None,
) -> Dendrogram:
    """Bottom-up (ordered) dendrogram of a weighted spanning tree.

    Parameters
    ----------
    edges:
        The ``num_points - 1`` spanning-tree edges (any edge collection
        accepted by :func:`repro.mst.edges.coerce_edge_arrays`).
    num_points:
        Number of points/leaves.
    start:
        Starting vertex defining the ordered dendrogram / reachability plot.
    vertex_distance:
        Precomputed hop distances from ``start`` (computed if omitted).

    Raises :class:`~repro.core.errors.InvalidParameterError` when the edges
    do not form a spanning tree.
    """
    if num_points < 1:
        raise InvalidParameterError("num_points must be >= 1")
    edge_u, edge_v, edge_w = coerce_edge_arrays(edges)
    dendrogram = Dendrogram(num_points)
    if num_points == 1:
        return dendrogram
    if edge_u.shape[0] != num_points - 1:
        raise InvalidParameterError(
            f"a spanning tree over {num_points} points needs {num_points - 1} edges, "
            f"got {edge_u.shape[0]}"
        )
    if vertex_distance is None:
        vertex_distance = tree_vertex_distances(
            (edge_u, edge_v, edge_w), num_points, start
        )

    n = num_points
    current_tracker().add(n * max(math.log2(n), 1.0), n, phase="dendrogram")
    order = np.argsort(edge_w, kind="stable")
    su, sv = edge_u[order], edge_v[order]
    root = merge_edges_bottom_up(
        dendrogram, su, sv, edge_w[order], su, sv, vertex_distance
    )
    if dendrogram.num_internal != n - 1:
        raise InvalidParameterError("the edges do not form a spanning tree")
    dendrogram.set_root(root)
    return dendrogram
