"""Borůvka's minimum-spanning-forest algorithm as array rounds.

Each round finds, for every component, its lightest outgoing edge (a
WRITE_MIN-style reduction, ``np.minimum.at``) and contracts all of them at
once (hooking plus pointer jumping); the number of components at least
halves every round, so there are O(log n) rounds, each a handful of array
passes over the edges that still cross two components.

Edges are keyed by *rank*: position ``r`` in an ascending-by-weight order.
Ranks are unique, so the minimum spanning forest is unique too, and it is
exactly the forest Kruskal accepts when it sweeps the edges in rank order.
:func:`boruvka_ranked` is that kernel; :func:`repro.mst.canonical_mst_arrays`
filters its candidate sets with it, and :func:`boruvka` runs it on an
explicit edge list as an independent cross-check of Kruskal and Prim.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro.mst.edges import EdgeList, coerce_edge_arrays
from repro.parallel.primitives import pointer_jump
from repro.parallel.scheduler import current_tracker


def connected_components(
    u: np.ndarray, v: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Label every node of the graph ``(u, v)`` with its component's least id.

    Vectorized connectivity over nodes ``0 .. num_nodes-1``: each round
    hooks the larger root of every edge that still crosses two trees onto
    the smaller one (``np.minimum.at``, so a root takes its least adjacent
    root), then pointer-jumps the forest flat.  Parents only ever decrease,
    so no cycle forms and each root is the least id of its tree; every
    tree with a crossing edge merges each round, so at most ``log2`` of the
    component count rounds run.  Edges inside one tree are dropped as soon
    as they stop crossing.
    """
    parent = np.arange(num_nodes, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    while True:
        root_u, root_v = parent[u], parent[v]
        crossing = root_u != root_v
        if not crossing.any():
            return parent
        u, v = u[crossing], v[crossing]
        root_u, root_v = root_u[crossing], root_v[crossing]
        np.minimum.at(
            parent,
            np.maximum(root_u, root_v),
            np.minimum(root_u, root_v),
        )
        parent = pointer_jump(parent)


def boruvka_ranked(u: np.ndarray, v: np.ndarray, num_vertices: int) -> np.ndarray:
    """Minimum spanning forest of edges keyed by their position.

    Edge ``i`` is ``(u[i], v[i])`` with key ``i``: the arrays must already be
    in ascending weight order (ties in any fixed order).  Returns the
    positions of the accepted edges in ascending order — the edges, and the
    order, in which a Kruskal sweep over the same arrays accepts them.
    Self-loops and parallel edges are allowed; they are never accepted twice.

    Each round every component takes its least-key outgoing edge.  With
    unique keys that edge is in the forest (cut property), and the chosen
    edges form trees except for two components choosing the same edge, so
    each component hooks onto the other end of its edge, the smaller id of
    a mutual pair stays root, and pointer jumping flattens the result.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = np.flatnonzero(u != v)
    cu, cv = u[keys], v[keys]
    accepted = []
    tracker = current_tracker()
    none = np.int64(u.shape[0])
    while keys.size:
        tracker.add(keys.size, max(math.log2(keys.size + 1), 1.0), phase="boruvka")
        best = np.full(num_vertices, none, dtype=np.int64)
        np.minimum.at(best, cu, keys)
        np.minimum.at(best, cv, keys)
        roots = np.flatnonzero(best < none)
        chosen = best[roots]
        accepted.append(np.unique(chosen))
        # ``chosen`` holds keys, not positions in ``keys``: map them back to
        # the chosen edge's current endpoint components.
        position = np.searchsorted(keys, chosen)
        end_u, end_v = cu[position], cv[position]
        other = np.where(end_u == roots, end_v, end_u)
        parent = np.arange(num_vertices, dtype=np.int64)
        parent[roots] = other
        mutual = (parent[other] == roots) & (roots < other)
        parent[roots[mutual]] = roots[mutual]
        parent = pointer_jump(parent)
        cu, cv = parent[cu], parent[cv]
        crossing = cu != cv
        keys, cu, cv = keys[crossing], cu[crossing], cv[crossing]
    if not accepted:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(accepted))


def boruvka(edges: Iterable[Tuple[int, int, float]], num_vertices: int) -> EdgeList:
    """Minimum spanning forest of the given edge list via Borůvka rounds.

    Ties are broken by edge index (the key of an edge is its rank in a
    stable weight sort), so the result is deterministic even when several
    edges share a weight, and equals the forest Kruskal accepts.  The forest
    is returned in ascending key order.
    """
    u, v, w = coerce_edge_arrays(edges)
    output = EdgeList()
    order = np.argsort(w, kind="stable")
    picked = order[boruvka_ranked(u[order], v[order], num_vertices)]
    output.extend_arrays(u[picked], v[picked], w[picked])
    return output
