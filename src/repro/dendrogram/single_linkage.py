"""Single-linkage clustering via the EMST.

Computing the EMST and then building its dendrogram solves the single-linkage
hierarchical clustering problem (Gower & Ross); this module packages the two
steps behind one call.  The dendrogram comes from the bottom-up sweep
(:func:`~repro.dendrogram.sequential.dendrogram_sequential`), the fastest
construction on one core; the paper's top-down construction that Figure 9
measures (:func:`~repro.dendrogram.topdown.dendrogram_topdown`) returns the
same dendrogram byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.points import as_points
from repro.dendrogram.extract import clusters_at_height, cut_num_clusters
from repro.dendrogram.structure import Dendrogram
from repro.dendrogram.sequential import dendrogram_sequential
from repro.emst.api import emst
from repro.emst.result import EMSTResult


@dataclass
class SingleLinkageResult:
    """EMST plus its ordered dendrogram and convenience extraction helpers."""

    emst: EMSTResult
    dendrogram: Dendrogram
    stats: Dict[str, float] = field(default_factory=dict)

    def labels_at(self, epsilon: float) -> np.ndarray:
        """Flat clusters obtained by cutting the dendrogram at ``epsilon``."""
        return clusters_at_height(self.dendrogram, epsilon)

    def labels_k(self, num_clusters: int) -> np.ndarray:
        """Flat clustering with exactly ``num_clusters`` clusters."""
        return cut_num_clusters(self.dendrogram, num_clusters)


def single_linkage(
    points,
    *,
    method: str = "memogfk",
    metric=None,
    start: int = 0,
    **emst_kwargs,
) -> SingleLinkageResult:
    """Single-linkage hierarchical clustering of a point set.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    method:
        EMST method to use (see :func:`repro.emst.api.emst`).
    metric:
        Distance metric for the underlying MST (name, Metric instance, or
        ``None`` for Euclidean).
    start:
        Starting vertex for the ordered dendrogram.
    emst_kwargs:
        Forwarded to the EMST implementation.
    """
    data = as_points(points, min_points=1)
    timings = {}

    start_time = time.perf_counter()
    tree = emst(data, method=method, metric=metric, **emst_kwargs)
    timings["emst"] = time.perf_counter() - start_time

    start_time = time.perf_counter()
    dendrogram = dendrogram_sequential(tree.edges, data.shape[0], start=start)
    timings["dendrogram"] = time.perf_counter() - start_time

    stats = {f"time_{name}": value for name, value in timings.items()}
    return SingleLinkageResult(emst=tree, dendrogram=dendrogram, stats=stats)
