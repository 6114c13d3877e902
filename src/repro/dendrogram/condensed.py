"""Condensed tree and excess-of-mass (EOM) cluster extraction.

The paper produces the HDBSCAN* *dendrogram*; turning the dendrogram into a
flat clustering without choosing a single epsilon is done, in Campello et
al.'s original HDBSCAN* formulation, by (1) *condensing* the dendrogram —
ignoring splits that only shave off fewer than ``min_cluster_size`` points —
and (2) selecting the set of condensed clusters with maximum total
*stability* ("excess of mass").  This module implements both steps on top of
:class:`repro.dendrogram.structure.Dendrogram`, so the full
``hdbscan()`` → dendrogram → flat clusters pipeline is available end to end.

Density here is expressed as ``lambda = 1 / height`` (height being the mutual
reachability distance at which a split happens), following the standard
formulation.

The implementation is array-native end to end.  Condensing is a fixed
number of passes over all dendrogram nodes plus ``O(log depth)`` pointer-
doubling rounds: every internal node is classified as a split, shed or
dissolve by its children's sizes; the visited nodes and their condensed
clusters are found by pointer doubling over the parent array; clusters are
numbered and records ordered by a right-child-first preorder (the order of
the depth-first walk that defines them); and shed points are gathered from
the dendrogram's leaf spans in one segmented pass.  Per-cluster
stabilities are one segmented ``bincount``, and the EOM selection resolves
nearest-selected-ancestors with single id-ordered array scans.  Nothing
recurses and nothing loops per node in Python, so arbitrarily deep
(chain-shaped) dendrograms condense without approaching a
``RecursionError``.  Dendrogram node ids follow the edge-rank rule both constructions share
(node ``n + r`` is the edge of rank ``r``; see :mod:`repro.dendrogram.topdown`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.dendrogram.structure import Dendrogram
from repro.parallel.primitives import pointer_jump, segment_ranges


@dataclass(frozen=True)
class CondensedEdge:
    """One record of the condensed tree.

    ``child`` is a point id when ``child_size == 1`` and ``child_is_cluster``
    is False; otherwise it is the id of a child cluster.  ``lambda_value`` is
    the density level (1 / height) at which the child separated from
    ``parent_cluster``.
    """

    parent_cluster: int
    child: int
    lambda_value: float
    child_size: int
    child_is_cluster: bool


class CondensedTree:
    """Condensed dendrogram stored as parallel record columns.

    ``edge_*`` columns hold one entry per condensed record (cluster children
    and point fallouts interleaved in construction order).  The historical
    ``edges`` list-of-:class:`CondensedEdge` view is materialized on demand
    for compatibility; all internal computation runs on the columns.
    """

    def __init__(
        self,
        num_points: int,
        min_cluster_size: int,
        edge_parent: np.ndarray,
        edge_child: np.ndarray,
        edge_lambda: np.ndarray,
        edge_size: np.ndarray,
        edge_is_cluster: np.ndarray,
        birth_lambda: Dict[int, float],
        parent_of_cluster: Dict[int, int],
    ) -> None:
        self.num_points = num_points
        self.min_cluster_size = min_cluster_size
        self.edge_parent = edge_parent
        self.edge_child = edge_child
        self.edge_lambda = edge_lambda
        self.edge_size = edge_size
        self.edge_is_cluster = edge_is_cluster
        self.birth_lambda = birth_lambda
        self.parent_of_cluster = parent_of_cluster

    @property
    def num_clusters(self) -> int:
        return len(self.birth_lambda)

    @property
    def edges(self) -> List[CondensedEdge]:
        """Record objects in construction order (compatibility view)."""
        return [
            CondensedEdge(int(p), int(c), float(lam), int(s), bool(flag))
            for p, c, lam, s, flag in zip(
                self.edge_parent.tolist(),
                self.edge_child.tolist(),
                self.edge_lambda.tolist(),
                self.edge_size.tolist(),
                self.edge_is_cluster.tolist(),
            )
        ]

    def cluster_ids(self) -> List[int]:
        return sorted(self.birth_lambda)

    def children_clusters(self, cluster: int) -> List[int]:
        mask = self.edge_is_cluster & (self.edge_parent == cluster)
        return self.edge_child[mask].tolist()

    def births(self) -> np.ndarray:
        """Birth lambda of every cluster, indexed by consecutive cluster id."""
        count = self.num_clusters
        births = np.zeros(count, dtype=np.float64)
        for cluster, birth in self.birth_lambda.items():
            births[cluster] = birth
        return births

    def stabilities(self) -> np.ndarray:
        """Excess-of-mass stability of every cluster with one segmented sum.

        Stability of a cluster is the sum over its records of
        ``(lambda_leave - lambda_birth) * child_size``; records that never
        leave (infinite lambda) are capped at the cluster's own birth level,
        matching the classic formulation for all-duplicate clusters.  The
        ``bincount`` accumulates contributions in record order, so the sums
        match the historical per-edge loop bit for bit.
        """
        count = self.num_clusters
        if count == 0 or self.edge_parent.size == 0:
            return np.zeros(count, dtype=np.float64)
        births = self.births()
        birth_of_record = births[self.edge_parent]
        leave = np.where(np.isinf(self.edge_lambda), birth_of_record, self.edge_lambda)
        contributions = (leave - birth_of_record) * self.edge_size
        return np.bincount(self.edge_parent, weights=contributions, minlength=count)

    def stability(self, cluster: int) -> float:
        """Excess-of-mass stability: sum over members of (lambda_leave - lambda_birth)."""
        return float(self.stabilities()[cluster])

    # -- serialization --------------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The condensed tree as a flat ``name -> ndarray`` mapping.

        Cluster ids are consecutive ``0..num_clusters-1`` by construction, so
        the ``birth_lambda`` / ``parent_of_cluster`` dicts flatten into dense
        arrays (parent ``-1`` marks the root).  ``meta`` carries
        ``[num_points, min_cluster_size]``.
        """
        count = self.num_clusters
        parents = np.full(count, -1, dtype=np.int64)
        for child_cluster, parent_cluster in self.parent_of_cluster.items():
            parents[child_cluster] = parent_cluster
        return {
            "edge_parent": self.edge_parent,
            "edge_child": self.edge_child,
            "edge_lambda": self.edge_lambda,
            "edge_size": self.edge_size,
            "edge_is_cluster": self.edge_is_cluster,
            "cluster_births": self.births(),
            "cluster_parents": parents,
            "meta": np.array(
                [self.num_points, self.min_cluster_size], dtype=np.int64
            ),
        }

    @classmethod
    def from_state_arrays(cls, arrays: Dict[str, np.ndarray]) -> "CondensedTree":
        """Exact inverse of :meth:`state_arrays`."""
        meta = np.asarray(arrays["meta"], dtype=np.int64)
        births = np.asarray(arrays["cluster_births"], dtype=np.float64)
        parents = np.asarray(arrays["cluster_parents"], dtype=np.int64)
        return cls(
            num_points=int(meta[0]),
            min_cluster_size=int(meta[1]),
            edge_parent=np.asarray(arrays["edge_parent"], dtype=np.int64),
            edge_child=np.asarray(arrays["edge_child"], dtype=np.int64),
            edge_lambda=np.asarray(arrays["edge_lambda"], dtype=np.float64),
            edge_size=np.asarray(arrays["edge_size"], dtype=np.int64),
            edge_is_cluster=np.asarray(arrays["edge_is_cluster"], dtype=bool),
            birth_lambda={i: float(b) for i, b in enumerate(births.tolist())},
            parent_of_cluster={
                i: int(p) for i, p in enumerate(parents.tolist()) if p >= 0
            },
        )


def _pointer_fold(up: np.ndarray, flag: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Top of every node's chain and the AND of ``flag`` along it.

    ``up`` is a parent array whose tops point at themselves.  Pointer
    doubling: ``folded[v]`` holds the AND over the chain segment from ``v``
    up to (excluding) ``jump[v]``, and each round doubles every segment, so
    a chain of depth ``d`` takes ``log2(d)`` vectorized rounds.
    """
    jump = up.copy()
    folded = flag.copy()
    active = np.flatnonzero(jump != jump[jump])
    while active.size:
        hop = jump[active]
        folded[active] &= folded[hop]
        jump[active] = jump[hop]
        active = active[jump[active] != jump[jump[active]]]
    folded &= flag[jump]
    return jump, folded


def condense_dendrogram(
    dendrogram: Dendrogram, min_cluster_size: int = 5
) -> CondensedTree:
    """Condense a dendrogram, ignoring splits smaller than ``min_cluster_size``.

    Walking from the root down, a split into two children both of size at
    least ``min_cluster_size`` creates two new clusters; otherwise the large
    side keeps the parent's cluster identity and the points of the small side
    "fall out" of the cluster at the split's density level.

    The walk runs as array passes over all dendrogram nodes, with no
    recursion and no per-node Python step:

    * every internal node is classified by its children's sizes as a
      *split* (both sides large), a *shed* (one side large) or a *dissolve*
      (neither side large);
    * a node is visited when every step down from the root goes to a child
      of a split or to the large child of a shed, and its condensed cluster
      is the one opened at its nearest ancestor-or-self whose parent split
      (the root's is cluster 0) — both by pointer doubling over the parent
      array;
    * the visited nodes are ordered by a right-child-first preorder (leaf
      span end descending, then size descending), clusters are numbered in
      that order (left child first), and every visited node emits its
      records in that order: a leaf one infinite-lambda point record, a
      split two cluster records, a shed or dissolve the points of the shed
      child or of the node itself, gathered from the dendrogram's leaf
      spans in one segmented pass.

    This is the order of the depth-first stack walk the records are defined
    by, so the columns, cluster ids and dicts are the walk's byte for byte.
    """
    if min_cluster_size < 1:
        raise InvalidParameterError("min_cluster_size must be >= 1")
    n = dendrogram.num_points
    if n == 1:
        return CondensedTree(
            num_points=1,
            min_cluster_size=min_cluster_size,
            edge_parent=np.zeros(1, dtype=np.int64),
            edge_child=np.zeros(1, dtype=np.int64),
            edge_lambda=np.full(1, math.inf),
            edge_size=np.ones(1, dtype=np.int64),
            edge_is_cluster=np.zeros(1, dtype=bool),
            birth_lambda={0: 0.0},
            parent_of_cluster={},
        )
    if dendrogram.root is None:
        raise InvalidParameterError("dendrogram has no root; construction incomplete")

    order, first = dendrogram.leaf_spans()
    root = int(dendrogram.root)
    left, right = dendrogram.children_arrays()
    total = n + left.shape[0]
    size = dendrogram.node_sizes(np.arange(total, dtype=np.int64))
    big_left = size[left] >= min_cluster_size
    big_right = size[right] >= min_cluster_size
    split = big_left & big_right
    with np.errstate(divide="ignore"):
        heights = dendrogram.heights()
        lam = np.where(heights <= 0.0, math.inf, 1.0 / heights)

    # The walk steps into every large child: both children of a split, the
    # survivor of a shed.  ``opens`` marks the children of splits.
    steps = np.zeros(total, dtype=bool)
    steps[left] = big_left
    steps[right] = big_right
    opens = np.zeros(total, dtype=bool)
    opens[left] = split
    opens[right] = split
    steps[root] = opens[root] = True
    up = dendrogram.parent_array()
    tops = up < 0
    up[tops] = np.flatnonzero(tops)
    top, reached = _pointer_fold(up, steps)
    visited = np.flatnonzero(reached & (top == root))
    anchor = pointer_jump(np.where(opens, np.arange(total, dtype=np.int64), up))

    # Right-child-first preorder of the visited nodes.
    end = first[visited] + size[visited]
    visited = visited[np.lexsort((-size[visited], -end))]
    internal = visited >= n
    node_index = visited[internal] - n
    is_split = np.zeros(visited.shape[0], dtype=bool)
    is_split[internal] = split[node_index]
    split_nodes = visited[is_split]
    split_children = np.column_stack(
        (left[split_nodes - n], right[split_nodes - n])
    ).ravel()
    cluster_of = np.zeros(total, dtype=np.int64)  # the root's cluster is 0
    cluster_of[split_children] = np.arange(1, split_children.size + 1)
    visited_cluster = cluster_of[anchor[visited]]

    # Point records come from one leaf span per visited node: the node
    # itself for a leaf or a dissolve, the small child for a shed.  A split
    # has two cluster records instead, left child first.
    node_lambda = np.full(visited.shape[0], math.inf)
    node_lambda[internal] = lam[node_index]
    span_node = visited[~is_split]
    unsplit = span_node >= n
    unsplit_index = span_node[unsplit] - n
    span_node[unsplit] = np.where(
        big_left[unsplit_index],
        right[unsplit_index],
        np.where(big_right[unsplit_index], left[unsplit_index], span_node[unsplit]),
    )
    span_size = size[span_node]
    counts = np.full(visited.shape[0], 2, dtype=np.int64)
    counts[~is_split] = span_size
    owner = np.repeat(np.arange(visited.shape[0], dtype=np.int64), counts)
    is_cluster = is_split[owner]
    child = np.empty(owner.shape[0], dtype=np.int64)
    child[~is_cluster] = order[segment_ranges(first[span_node], span_size)]
    child[is_cluster] = cluster_of[split_children]
    child_size = np.ones(owner.shape[0], dtype=np.int64)
    child_size[is_cluster] = size[split_children]

    split_lambda = np.repeat(lam[split_nodes - n], 2).tolist()
    split_parent = np.repeat(visited_cluster[is_split], 2).tolist()
    new_ids = range(1, split_children.size + 1)
    birth_lambda: Dict[int, float] = {0: 0.0}
    birth_lambda.update(zip(new_ids, split_lambda))
    return CondensedTree(
        num_points=n,
        min_cluster_size=min_cluster_size,
        edge_parent=visited_cluster[owner],
        edge_child=child,
        edge_lambda=node_lambda[owner],
        edge_size=child_size,
        edge_is_cluster=is_cluster,
        birth_lambda=birth_lambda,
        parent_of_cluster=dict(zip(new_ids, split_parent)),
    )


def extract_eom_clusters(
    condensed: CondensedTree, *, allow_single_cluster: bool = False
) -> Tuple[np.ndarray, Dict[int, float]]:
    """Excess-of-mass cluster selection.

    Processes clusters bottom-up: a cluster is selected when its own stability
    exceeds the summed stability of its selected descendants (which are then
    deselected).  The root cluster is only eligible when
    ``allow_single_cluster`` is true, as in the reference formulation.

    Deselection and point assignment run as id-ordered array scans: cluster
    ids are assigned parent-before-child, so one forward pass resolves every
    cluster's nearest effectively-selected ancestor, and the point labels are
    one vectorized gather over the condensed point records — the historical
    per-point ancestor walks are gone.

    Returns ``(labels, stabilities)`` where ``labels[p]`` is the selected
    cluster's consecutive label for point ``p`` (or ``-1`` for noise) and
    ``stabilities`` maps each selected condensed-cluster id to its stability.
    """
    count = condensed.num_clusters
    if count == 0:
        return np.full(condensed.num_points, -1, dtype=np.int64), {}

    parent_cl = np.full(count, -1, dtype=np.int64)
    for child_cluster, parent_cluster in condensed.parent_of_cluster.items():
        parent_cl[child_cluster] = parent_cluster
    stability = condensed.stabilities()

    children: List[List[int]] = [[] for _ in range(count)]
    cluster_records = np.flatnonzero(condensed.edge_is_cluster)
    for parent_cluster, child_cluster in zip(
        condensed.edge_parent[cluster_records].tolist(),
        condensed.edge_child[cluster_records].tolist(),
    ):
        children[parent_cluster].append(child_cluster)

    # Bottom-up selection sweep (children have larger ids than parents by
    # construction, so reverse id order is a valid bottom-up order).
    selected = np.zeros(count, dtype=bool)
    subtree_score = np.zeros(count, dtype=np.float64)
    for cluster in range(count - 1, -1, -1):
        child_score = 0.0
        for child_cluster in children[cluster]:
            child_score += subtree_score[child_cluster]
        is_root = cluster == 0
        eligible = allow_single_cluster if is_root else True
        if eligible and stability[cluster] >= child_score:
            selected[cluster] = True
            subtree_score[cluster] = stability[cluster]
        else:
            subtree_score[cluster] = (
                max(child_score, float(stability[cluster])) if is_root else child_score
            )

    # Top-down scans (parents first): a selected ancestor deselects the whole
    # subtree below it, and every cluster resolves its nearest effectively
    # selected ancestor-or-self for point assignment.
    has_selected_ancestor = np.zeros(count, dtype=bool)
    for cluster in range(1, count):
        parent_cluster = parent_cl[cluster]
        has_selected_ancestor[cluster] = (
            selected[parent_cluster] or has_selected_ancestor[parent_cluster]
        )
    effective = selected & ~has_selected_ancestor
    home = np.full(count, -1, dtype=np.int64)
    for cluster in range(count):
        if effective[cluster]:
            home[cluster] = cluster
        elif parent_cl[cluster] >= 0:
            home[cluster] = home[parent_cl[cluster]]

    chosen = np.flatnonzero(effective)
    label_of_cluster = np.full(count, -1, dtype=np.int64)
    label_of_cluster[chosen] = np.arange(chosen.size, dtype=np.int64)

    # A point belongs to the effectively selected ancestor (if any) of the
    # cluster it fell out of: one gather over the point records.
    labels = np.full(condensed.num_points, -1, dtype=np.int64)
    point_records = ~condensed.edge_is_cluster
    record_home = home[condensed.edge_parent[point_records]]
    record_labels = np.where(
        record_home >= 0, label_of_cluster[np.maximum(record_home, 0)], -1
    )
    labels[condensed.edge_child[point_records]] = record_labels
    stabilities = {int(cluster): float(stability[cluster]) for cluster in chosen}
    return labels, stabilities


def _condense_and_extract(
    dendrogram: Dendrogram, min_cluster_size: int, allow_single_cluster: bool
) -> Tuple[CondensedTree, np.ndarray]:
    """The shared condense → EOM-extract pipeline behind both label APIs."""
    condensed = condense_dendrogram(dendrogram, min_cluster_size)
    labels, _ = extract_eom_clusters(
        condensed, allow_single_cluster=allow_single_cluster
    )
    return condensed, labels


def hdbscan_flat_labels(
    dendrogram: Dendrogram,
    *,
    min_cluster_size: int = 5,
    allow_single_cluster: bool = False,
) -> np.ndarray:
    """Convenience wrapper: condense the dendrogram and run EOM selection."""
    _, labels = _condense_and_extract(
        dendrogram, min_cluster_size, allow_single_cluster
    )
    return labels


def point_fallout_lambdas(condensed: CondensedTree) -> np.ndarray:
    """Per-point density level at which each point left its condensed cluster.

    One gather over the condensed point records; points that never leave
    carry ``inf``.  This is the ``lambda_p`` of the membership-probability
    formulation, and the serving layer's ``approximate_predict`` compares new
    points against exactly these levels.
    """
    point_records = ~condensed.edge_is_cluster
    point_lambda = np.zeros(condensed.num_points, dtype=np.float64)
    point_lambda[condensed.edge_child[point_records]] = condensed.edge_lambda[
        point_records
    ]
    return point_lambda


def membership_probabilities(
    condensed: CondensedTree, labels: np.ndarray
) -> np.ndarray:
    """Per-point cluster membership strengths for an EOM labeling.

    The probability of a clustered point follows the standard HDBSCAN*
    membership formulation: the density level ``lambda_p`` at which the point
    left its cluster, normalized by the maximum such level inside that
    cluster (points that persist to the cluster's maximum density get 1.0;
    noise points get 0.0).
    """
    probabilities = np.zeros(condensed.num_points, dtype=np.float64)
    point_lambda = point_fallout_lambdas(condensed)
    for label in np.unique(labels[labels >= 0]):
        members = labels == label
        member_lambda = point_lambda[members]
        finite = member_lambda[np.isfinite(member_lambda)]
        max_lambda = float(finite.max()) if finite.size else 0.0
        if max_lambda <= 0.0:
            probabilities[members] = 1.0
        else:
            # Infinite lambdas (points that never leave) divide to inf and
            # clamp to full membership.
            probabilities[members] = np.minimum(member_lambda / max_lambda, 1.0)
    return probabilities


def labels_and_probabilities_from_condensed(
    condensed: CondensedTree, *, allow_single_cluster: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """EOM labels plus membership strengths from an existing condensed tree.

    The serving layer's zero-refit ``recut`` calls this directly on its
    cached :class:`CondensedTree`; :func:`hdbscan_labels_and_probabilities`
    is this plus the condense step, so both paths produce byte-identical
    output for the same ``min_cluster_size``.
    """
    labels, _ = extract_eom_clusters(
        condensed, allow_single_cluster=allow_single_cluster
    )
    return labels, membership_probabilities(condensed, labels)


def hdbscan_labels_and_probabilities(
    dendrogram: Dendrogram,
    *,
    min_cluster_size: int = 5,
    allow_single_cluster: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """EOM labels plus per-point cluster membership strengths.

    See :func:`membership_probabilities` for the probability formulation.
    """
    condensed = condense_dendrogram(dendrogram, min_cluster_size)
    return labels_and_probabilities_from_condensed(
        condensed, allow_single_cluster=allow_single_cluster
    )
