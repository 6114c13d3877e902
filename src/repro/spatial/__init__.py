"""Spatial data structures: flat kd-tree engine, k-NN queries, Delaunay.

The paper's algorithms are all driven by a spatial-median kd-tree (Section
2.3) whose nodes carry bounding-sphere information (and, for HDBSCAN*,
minimum and maximum core distances).  The tree is stored as the array-native
:class:`FlatKDTree` — a permutation of point indices plus parallel per-node
arrays — which WSPD construction, the pruned traversals of MemoGFK and the
batched k-NN / core-distance queries all drive with vectorized frontier
operations.  A node is named by its id in those arrays; :class:`KDTree` is
the handle that carries a flat tree together with its point set, metric,
backend and attached core distances.
"""

from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import knn, knn_bruteforce, knn_distances
from repro.spatial.delaunay import delaunay_edges

__all__ = [
    "FlatKDTree",
    "KDTree",
    "knn",
    "knn_bruteforce",
    "knn_distances",
    "delaunay_edges",
]
