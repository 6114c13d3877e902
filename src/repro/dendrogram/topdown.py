"""Top-down dendrogram construction (Section 4.2 of the paper).

:func:`dendrogram_topdown` is the divide-and-conquer algorithm with heavy
and light edges.  Each level takes the heaviest ``heavy_fraction`` of the
edges (the paper uses 1/10) as the *heavy* subproblem, which forms the top
part of the dendrogram; the connected components induced by the remaining
*light* edges form independent light subproblems whose dendrogram roots are
spliced into the corresponding positions of the heavy-edge dendrogram.
Because the light components are contracted into supernodes for the heavy
subproblem, the splice is represented directly: the supernode's dendrogram
id *is* the light component's dendrogram root.

The recursion is array-native: a subproblem is three parallel edge arrays,
the vertex → supernode map is one flat ``cluster_of`` array shared by the
whole recursion (every subproblem overwrites only its own vertices, and
leaves them bound to its finished root), light components are labelled by
:func:`connected_components` (min-label hooking plus pointer jumping, the
array form of the paper's parallel connectivity step) and grouped with a
stable argsort of those labels (first-occurrence component order, so the
grouping depends only on the partition), and supernode redirections are
applied through a reusable identity ``remap`` array instead of per-vertex
dict rebuilds.  The base case shares the bulk merge sweep
(:func:`repro.dendrogram.sequential.merge_edges_bottom_up`) with the
sequential construction.

The construction honours the ordered-dendrogram rule (the child cluster
attached to the endpoint closer to the starting vertex goes left), so its
in-order leaf traversal equals Prim's visiting order from that vertex.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.dendrogram.sequential import (
    merge_edges_bottom_up,
    tree_vertex_distances,
)
from repro.dendrogram.structure import Dendrogram
from repro.mst.edges import coerce_edge_arrays
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
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _light_component_slices(
    labels: np.ndarray,
) -> List[np.ndarray]:
    """Group edge positions by component label, ordered by first occurrence.

    Equivalent to the previous dict-based semisort: each group keeps its
    edges in input order, and groups appear in the order their label is first
    seen.  One stable argsort + one pass over the unique labels replaces the
    per-edge dict traffic.
    """
    order = np.argsort(labels, kind="stable")
    unique_labels, group_starts, group_counts = np.unique(
        labels[order], return_index=True, return_counts=True
    )
    _, first_seen = np.unique(labels, return_index=True)
    groups = []
    for rank in np.argsort(first_seen, kind="stable"):
        start = group_starts[rank]
        groups.append(order[start : start + group_counts[rank]])
    return groups


def _build_recursive(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_w: np.ndarray,
    cluster_of: np.ndarray,
    remap: np.ndarray,
    dendrogram: Dendrogram,
    vertex_distance: np.ndarray,
    heavy_fraction: float,
    base_size: int,
) -> int:
    """Heavy/light recursion; returns the dendrogram root of this subproblem.

    Postcondition: ``cluster_of[x] == root`` for every vertex ``x`` touched by
    this subproblem's edges, so callers can redirect whole supernodes with a
    single remap application.
    """
    tracker = current_tracker()
    m = int(edge_u.shape[0])
    tracker.add(m, max(math.log2(m + 1), 1.0), phase="dendrogram")
    verts = np.unique(np.concatenate([edge_u, edge_v]))

    num_heavy = max(1, int(m * heavy_fraction))
    threshold_index = m - num_heavy
    if m <= base_size or threshold_index <= 0:
        # Small subproblem, or every edge would be "heavy" and recursing
        # would not shrink the problem: run the bottom-up merge sweep.
        root = merge_edges_bottom_up(
            dendrogram, edge_u, edge_v, edge_w, cluster_of, vertex_distance
        )
        cluster_of[verts] = root
        return root

    # Heavy edges: the heaviest ``heavy_fraction`` of this subproblem's edges
    # (at least one).  Parallel selection in the paper; a partial sort here.
    order = np.argpartition(edge_w, threshold_index - 1)
    light = order[:threshold_index]
    heavy = order[threshold_index:]
    light_u, light_v, light_w = edge_u[light], edge_v[light], edge_w[light]

    # Light components: connected components induced by the light edges over
    # the contracted supernodes (vertices sharing a representative are one
    # supernode already).
    rep_u = cluster_of[light_u]
    rep_v = cluster_of[light_v]
    supernodes, local = np.unique(
        np.concatenate([rep_u, rep_v]), return_inverse=True
    )
    local_u = local[:threshold_index]
    labels = connected_components(
        local_u, local[threshold_index:], int(supernodes.shape[0])
    )[local_u]

    # Recursively build every light subproblem; its root becomes the
    # representative of every supernode the component absorbed.  The remap is
    # applied at the supernode level: a vertex that only touches heavy edges
    # may share its supernode with vertices inside a light component, and it
    # must follow that supernode into the component's new root.
    absorbed_all: List[np.ndarray] = []
    for positions in _light_component_slices(labels):
        absorbed = np.unique(
            np.concatenate([rep_u[positions], rep_v[positions]])
        )
        component_root = _build_recursive(
            light_u[positions],
            light_v[positions],
            light_w[positions],
            cluster_of,
            remap,
            dendrogram,
            vertex_distance,
            heavy_fraction,
            base_size,
        )
        remap[absorbed] = component_root
        absorbed_all.append(absorbed)
    cluster_of[verts] = remap[cluster_of[verts]]
    for absorbed in absorbed_all:
        remap[absorbed] = absorbed  # restore the identity for reuse

    # The heavy subproblem operates on the contracted vertices.
    root = _build_recursive(
        edge_u[heavy],
        edge_v[heavy],
        edge_w[heavy],
        cluster_of,
        remap,
        dendrogram,
        vertex_distance,
        heavy_fraction,
        base_size,
    )
    cluster_of[verts] = root
    return root


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
    if not 0.0 < heavy_fraction <= 1.0:
        raise InvalidParameterError("heavy_fraction must be in (0, 1]")
    if vertex_distance is None:
        vertex_distance = tree_vertex_distances(
            (edge_u, edge_v, edge_w), num_points, start
        )

    cluster_of = np.arange(num_points, dtype=np.int64)
    remap = np.arange(2 * num_points - 1, dtype=np.int64)
    root = _build_recursive(
        edge_u,
        edge_v,
        edge_w,
        cluster_of,
        remap,
        dendrogram,
        vertex_distance,
        heavy_fraction,
        max(base_size, 1),
    )
    dendrogram.set_root(root)
    return dendrogram
