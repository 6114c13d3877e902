"""Well-separation predicates over node-id frontiers of a flat kd-tree.

Three predicates appear in the paper:

* classical well-separation with constant ``s`` — the Callahan–Kosaraju
  definition: both sets fit in spheres of radius ``r`` and the gap between
  the spheres is at least ``s * r`` (the paper fixes ``s = 2``);
* geometric separation — ``d(A, B) >= max(A_diam, B_diam)``, which for the
  sphere-based bounds used here coincides with ``s = 2`` separation;
  Section 3.2.2 phrases the HDBSCAN* condition this way;
* mutual unreachability —
  ``max(d(A, B), cd_min(A), cd_min(B)) >=
  max(A_diam, B_diam, cd_max(A), cd_max(B))``.

The HDBSCAN* notion of well-separation is the disjunction of the last two;
because the WSPD recursion stops as soon as a pair is well-separated, the
weaker (disjunctive) predicate terminates earlier and produces fewer pairs —
the source of the paper's space savings.

Each predicate is a ``*_mask`` over parallel arrays of node ids of a
:class:`~repro.spatial.flat.FlatKDTree`, evaluating a whole traversal
frontier with a handful of array operations on the stored centers, radii and
core-distance extrema.

Every predicate is metric-general: the node radii are stored under the
tree's metric and the center gaps are computed with the same metric's norm,
so the sphere-based bounds (triangle inequality only) hold for any of the
norm-induced metrics in :mod:`repro.core.metric`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.errors import NotComputedError
from repro.spatial.flat import FlatKDTree


def center_gaps(flat: FlatKDTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the bounding-sphere centers of node-id arrays.

    Computed under the tree's metric, so every sphere-based bound below is
    metric-correct (the radii stored on the flat tree are already derived
    under the same metric).
    """
    diff = flat.node_center[a] - flat.node_center[b]
    return flat.metric.diff_norms(diff)


def node_distances(flat: FlatKDTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``d(A, B)`` for parallel node-id arrays (sphere minimum distances)."""
    return np.maximum(
        center_gaps(flat, a, b) - flat.node_radius[a] - flat.node_radius[b], 0.0
    )


def node_max_distances(flat: FlatKDTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``d_max(A, B)`` for parallel node-id arrays."""
    return center_gaps(flat, a, b) + flat.node_radius[a] + flat.node_radius[b]


def well_separated_mask(
    flat: FlatKDTree, a: np.ndarray, b: np.ndarray, s: float = 2.0
) -> np.ndarray:
    """Classical well-separation of every pair in a frontier at once."""
    r = np.maximum(flat.node_radius[a], flat.node_radius[b])
    return center_gaps(flat, a, b) - 2.0 * r >= s * r


def geometrically_separated_mask(
    flat: FlatKDTree, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``d(A, B) >= max(A_diam, B_diam)`` over a frontier of node pairs."""
    diameters = 2.0 * np.maximum(flat.node_radius[a], flat.node_radius[b])
    return node_distances(flat, a, b) >= diameters


def mutually_unreachable_mask(
    flat: FlatKDTree, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Mutual-unreachability of every pair in a frontier at once."""
    if flat.cd_min is None or flat.cd_max is None:
        raise NotComputedError(
            "mutually_unreachable requires core-distance annotations on the tree"
        )
    lhs = np.maximum(
        node_distances(flat, a, b), np.maximum(flat.cd_min[a], flat.cd_min[b])
    )
    rhs = np.maximum(
        2.0 * np.maximum(flat.node_radius[a], flat.node_radius[b]),
        np.maximum(flat.cd_max[a], flat.cd_max[b]),
    )
    return lhs >= rhs


def hdbscan_well_separated_mask(
    flat: FlatKDTree, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Disjunctive HDBSCAN* separation over a frontier of node pairs."""
    return geometrically_separated_mask(flat, a, b) | mutually_unreachable_mask(
        flat, a, b
    )


#: Pairs whose ``|A| · |B|`` does not exceed this are recorded by the
#: ε-certified separation even when uncertified: refining such a pair with
#: one exact (batched) BCCP costs at most this many distance evaluations,
#: which is cheaper than splitting it further — and it bounds the
#: decomposition by the classical ``s``-separated one, so tiny ε can never
#: degenerate into a near-quadratic recursion.
SMALL_PAIR_CAP = 64


def node_representatives(flat: FlatKDTree) -> np.ndarray:
    """Center-nearest representative point (original index) of every node.

    For each kd-tree node, the point of its ``perm`` slice closest to the
    node's bounding-sphere center — the representative that makes the
    ε-certificates of the approximation subsystem tight (an arbitrary corner
    point can sit a full diameter off-center; the center-nearest point is
    within the radius by construction).  Computed in one vectorized pass:
    every (node, member point) row — ``O(n log n)`` rows for a balanced
    tree — is materialized with segment arithmetic, distances to the owning
    node's center are taken under the tree's metric, and a lexsort picks
    each segment's argmin (ties broken towards the first point, so
    single-point nodes and degenerate geometry stay deterministic).
    """
    sizes = flat.node_end - flat.node_start
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    segment = np.repeat(np.arange(flat.num_nodes, dtype=np.int64), sizes)
    within = np.arange(int(sizes.sum()), dtype=np.int64) - starts[segment]
    rows = flat.node_start[segment] + within
    members = flat.perm[rows]
    distances = flat.metric.diff_norms(
        flat.points[members] - flat.node_center[segment]
    )
    order = np.lexsort((within, distances, segment))
    first = starts  # one winner per segment, at the segment's start after the sort
    representatives = np.empty(flat.num_nodes, dtype=np.int64)
    representatives[segment[order[first]]] = members[order[first]]
    return representatives


def representative_distances(
    flat: FlatKDTree,
    a: np.ndarray,
    b: np.ndarray,
    representatives: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distance between the representatives of every pair of a node-id
    frontier.

    ``representatives`` maps node id to a point index
    (:func:`node_representatives`); without it the deterministic first point
    of each node's ``perm`` slice is used.  Weights come from the metric's
    exact (cancellation-safe) kernel because they can end up as MST edge
    weights.
    """
    if representatives is None:
        rep_a = flat.perm[flat.node_start[a]]
        rep_b = flat.perm[flat.node_start[b]]
    else:
        rep_a = representatives[a]
        rep_b = representatives[b]
    return flat.metric.exact_edge_weights(flat.points, rep_a, rep_b)


def box_gaps(flat: FlatKDTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum box-to-box distance of node-id arrays under the tree's metric.

    The norm of the per-axis gap vector between the axis-aligned bounding
    boxes — a valid (and usually far tighter than sphere-based) lower bound
    on every cross distance for any norm-induced metric.
    """
    gap = np.maximum(
        flat.node_lower[a] - flat.node_upper[b],
        flat.node_lower[b] - flat.node_upper[a],
    )
    np.maximum(gap, 0.0, out=gap)
    return flat.metric.diff_norms(gap)


def bccp_lower_bounds(
    flat: FlatKDTree,
    a: np.ndarray,
    b: np.ndarray,
    rep_distances: np.ndarray,
) -> np.ndarray:
    """Per-pair lower bound on ``BCCP(A, B)`` from stored bounding geometry.

    ``max(boxgap(A, B), d(rep) − diam(A) − diam(B))``: the box gap bounds
    every cross distance from below, and by the triangle inequality no cross
    pair can undercut the representative edge by more than the two (sphere)
    diameters.  Valid for every norm-induced metric.
    """
    diameters = 2.0 * (flat.node_radius[a] + flat.node_radius[b])
    return np.maximum(box_gaps(flat, a, b), rep_distances - diameters)


def epsilon_certified_mask(
    flat: FlatKDTree,
    a: np.ndarray,
    b: np.ndarray,
    s: float,
    epsilon: float,
    representatives: Optional[np.ndarray] = None,
) -> np.ndarray:
    """ε-certified separation: classically separated AND (the representative
    edge is provably within ``(1 + ε)`` of the pair's BCCP, OR the pair is
    small enough to refine exactly).

    This is the approximation subsystem's third notion of well-separation
    (next to ``geometric`` and the paper's disjunctive ``hdbscan`` notion):
    the FIND_PAIR recursion keeps splitting a pair until its deterministic
    representative edge is certified against the geometric lower bound of
    :func:`bccp_lower_bounds` — so small ε splits deeper and produces more
    pairs — except that pairs of at most :data:`SMALL_PAIR_CAP` candidate
    distances are recorded regardless (the consumer refines them with one
    exact batched BCCP, per-pair factor 1, which caps the recursion at the
    classical decomposition's granularity).  Every recorded pair therefore
    contributes a candidate edge within ``(1 + ε)`` of its bichromatic
    closest pair while remaining classically well-separated, which is
    exactly what the (1+ε)-approximate EMST argument needs.
    """
    rep = representative_distances(flat, a, b, representatives)
    certified = rep <= (1.0 + epsilon) * bccp_lower_bounds(flat, a, b, rep)
    small = flat.node_sizes[a] * flat.node_sizes[b] <= SMALL_PAIR_CAP
    return well_separated_mask(flat, a, b, s) & (certified | small)
