"""2D Delaunay triangulation edges.

Appendix A.1 of the paper computes the EMST of a planar point set as the MST
of its Delaunay triangulation (Shamos & Hoey).  The paper uses the parallel
Delaunay implementation from PBBS; here the triangulation substrate is SciPy's
Qhull binding, and the MST step reuses the library's own Kruskal.

Qhull loses the configuration of points far from the origin (uniform points
in a unit square shifted by 1e6 exhaust its joggle retries).  When every
coordinate lies within a factor of 2 of a per-axis anchor of the same sign,
Sterbenz's lemma makes ``data - anchor`` exact, so the shifted copy is the
same configuration near the origin and is triangulated instead; the edge
weights still come from the original coordinates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial import Delaunay, QhullError

from repro.core.errors import InvalidParameterError, InvalidPointSetError
from repro.core.metric import EUCLIDEAN
from repro.core.points import as_points
from repro.parallel.scheduler import current_tracker


def _exact_translation(data: np.ndarray) -> np.ndarray:
    """``data`` moved next to the origin when that subtraction is exact.

    Each axis's anchor is its coordinate of least magnitude.  If every
    coordinate has the anchor's sign and at most twice its magnitude,
    ``x - anchor`` is exact for every ``x`` (Sterbenz), and the translated
    copy is returned; otherwise ``data`` itself.
    """
    magnitude = np.abs(data)
    anchor = data[np.argmin(magnitude, axis=0), np.arange(data.shape[1])]
    same_sign = np.sign(data) == np.sign(anchor)
    if np.all(same_sign & (magnitude <= 2.0 * np.abs(anchor))):
        return data - anchor
    return data


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
    InvalidPointSetError
        If Qhull cannot triangulate the points.
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
        try:
            simplices = Delaunay(
                _exact_translation(data), qhull_options="QJ"
            ).simplices
        except QhullError as error:
            raise InvalidPointSetError(
                f"Qhull could not triangulate the {n} points ({error}); "
                "use another exact EMST method"
            ) from error
        pairs = np.vstack(
            [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
        )
        pairs.sort(axis=1)
        pairs = np.unique(pairs, axis=0).astype(np.int64)
    return pairs, EUCLIDEAN.exact_edge_weights(data, pairs[:, 0], pairs[:, 1])
