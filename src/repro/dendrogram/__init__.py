"""Dendrogram and reachability-plot construction (Section 4 of the paper).

Given a weighted spanning tree (the EMST for single-linkage clustering, or the
MST of the mutual reachability graph for HDBSCAN*), this package builds the
*dendrogram*: the binary merge tree obtained by removing tree edges in
decreasing weight order.  Two constructions are provided:

* :func:`~repro.dendrogram.sequential.dendrogram_sequential` — the classic
  bottom-up union-find construction (sort edges, merge in increasing order);
* :func:`~repro.dendrogram.topdown.dendrogram_topdown` — the paper's
  divide-and-conquer algorithm that splits on the heaviest fraction of edges
  (heavy edges), recurses on the heavy-edge subproblem and every light-edge
  subproblem, and splices the light dendrograms into the heavy one.

Both number internal node ``n + r`` by the edge of stable weight rank ``r``
and return the same dendrogram byte for byte.  The fits, the serving layer
and the dynamic engine use the sequential sweep, which is faster on one
core; the top-down construction is the one the paper parallelises and the
Figure 9 benchmark models.

Both produce *ordered* dendrograms for a chosen starting vertex: the
in-order traversal of the leaves equals the visit order of Prim's algorithm
started at that vertex, so the reachability plot (OPTICS sequence) can be read
directly off the dendrogram (:func:`~repro.dendrogram.reachability.reachability_plot`).
"""

from repro.dendrogram.structure import Dendrogram
from repro.dendrogram.sequential import dendrogram_sequential
from repro.dendrogram.topdown import dendrogram_topdown
from repro.dendrogram.reachability import (
    reachability_plot,
    reachability_from_dendrogram,
)
from repro.dendrogram.extract import (
    clusters_at_height,
    dbscan_star_labels,
    cut_num_clusters,
)
from repro.dendrogram.condensed import (
    CondensedTree,
    condense_dendrogram,
    extract_eom_clusters,
    hdbscan_flat_labels,
)
from repro.dendrogram.single_linkage import single_linkage, SingleLinkageResult

__all__ = [
    "Dendrogram",
    "dendrogram_sequential",
    "dendrogram_topdown",
    "reachability_plot",
    "reachability_from_dendrogram",
    "clusters_at_height",
    "dbscan_star_labels",
    "cut_num_clusters",
    "CondensedTree",
    "condense_dendrogram",
    "extract_eom_clusters",
    "hdbscan_flat_labels",
    "single_linkage",
    "SingleLinkageResult",
]
