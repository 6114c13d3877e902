"""Well-separated pair decomposition (WSPD) and bichromatic closest pairs.

This package implements Algorithm 1 of the paper (parallel WSPD over a
spatial-median kd-tree), the two notions of well-separation used in the paper
(the standard Callahan–Kosaraju geometric separation, and the new
HDBSCAN*-specific disjunction of geometric separation and mutual
unreachability), and exact BCCP / BCCP* computations with the bounding-sphere
distance bounds that MemoGFK's pruned traversals rely on.  Every function
names kd-tree nodes by their ids in the :class:`~repro.spatial.flat.FlatKDTree`
arrays and works on whole node-pair frontiers at once; the separation
predicates and sphere bounds read the frontier's center gaps
(:func:`center_gaps`), which the caller computes once per frontier.
"""

from repro.wspd.separation import (
    center_gaps,
    node_distances,
    node_max_distances,
    well_separated_mask,
    geometrically_separated_mask,
    mutually_unreachable_mask,
    hdbscan_well_separated_mask,
)
from repro.wspd.bccp import bccp_batch, BCCPCache
from repro.wspd.wspd import compute_wspd_ids, count_wspd_pairs

__all__ = [
    "center_gaps",
    "node_distances",
    "node_max_distances",
    "well_separated_mask",
    "geometrically_separated_mask",
    "mutually_unreachable_mask",
    "hdbscan_well_separated_mask",
    "bccp_batch",
    "BCCPCache",
    "compute_wspd_ids",
    "count_wspd_pairs",
]
