"""2D Delaunay triangulation edges.

Appendix A.1 of the paper computes the EMST of a planar point set as the MST
of its Delaunay triangulation (Shamos & Hoey).  The paper uses the parallel
Delaunay implementation from PBBS; here the triangulation substrate is SciPy's
Qhull binding, and the MST step reuses the library's own Kruskal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial import Delaunay

from repro.core.errors import InvalidParameterError
from repro.core.metric import EUCLIDEAN
from repro.core.points import as_points
from repro.parallel.scheduler import current_tracker


def delaunay_edges(points) -> Tuple[np.ndarray, np.ndarray]:
    """Unique edges of the 2D Delaunay triangulation with Euclidean weights.

    Returns ``(edges, weights)`` where ``edges`` is an ``(m, 2)`` integer array
    of point indices (each undirected edge listed once) and ``weights`` the
    corresponding Euclidean lengths.

    Raises
    ------
    InvalidParameterError
        If the points are not two-dimensional (the Delaunay-based EMST is a
        2D-only method, as in the paper) or fewer than 3 points are given.
    """
    data = as_points(points, min_points=2)
    if data.shape[1] != 2:
        raise InvalidParameterError("delaunay_edges requires 2-dimensional points")
    n = data.shape[0]
    if n < 3:
        # Qhull needs at least 3 non-collinear points; with 2 the only edge is
        # the pair itself.
        pairs = np.array([[0, 1]], dtype=np.int64)
    else:
        current_tracker().add(n * max(np.log2(n), 1.0), max(np.log2(n), 1.0), phase="delaunay")
        simplices = Delaunay(data, qhull_options="QJ").simplices
        pairs = np.vstack(
            [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
        )
        pairs.sort(axis=1)
        pairs = np.unique(pairs, axis=0).astype(np.int64)
    return pairs, EUCLIDEAN.exact_edge_weights(data, pairs[:, 0], pairs[:, 1])
