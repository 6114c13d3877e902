"""Parallel EMST and hierarchical spatial clustering (HDBSCAN*).

A from-scratch Python reproduction of *"Fast Parallel Algorithms for Euclidean
Minimum Spanning Tree and Hierarchical Spatial Clustering"* (Wang, Yu, Gu &
Shun, SIGMOD 2021).

Quickstart
----------
>>> import numpy as np
>>> from repro import emst, hdbscan, single_linkage
>>> points = np.random.default_rng(0).random((1000, 3))
>>> tree = emst(points)                      # Euclidean MST (MemoGFK)
>>> clustering = hdbscan(points, min_pts=10)  # HDBSCAN* hierarchy
>>> labels = clustering.dbscan_labels(0.1)    # flat DBSCAN* cut

Every pipeline takes a ``metric=`` knob (``"euclidean"``, ``"manhattan"``,
``"chebyshev"``, ``"minkowski:p"``) and a ``backend=`` knob (``"numpy"``,
``"numba"``, ``"numpy-f32"``, ``"numba-f32"`` — compiled and float32-lowered
kernel variants; see :mod:`repro.core.backend`), and :mod:`repro.estimators`
provides the scikit-learn-style facade:

>>> from repro.estimators import HDBSCAN
>>> labels = HDBSCAN(min_pts=10, metric="manhattan").fit_predict(points)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every reproduced table and figure.
"""

from repro.core import PointSet, as_points, open_memmap_points
from repro.core.budget import (
    MemoryBudget,
    parse_memory_size,
    resolve_memory_budget,
)
from repro.core.backend import (
    BACKEND_NAMES,
    BackendFallbackWarning,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from repro.core.context import current_context, use_context
from repro.core.metric import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    resolve_metric,
)
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    InvalidParameterError,
    InvalidPointSetError,
    NotComputedError,
    ReproError,
    SpillIOError,
    WorkerFailedError,
)
from repro.resilience import CheckpointManager, inject_faults
from repro.emst import (
    EMSTResult,
    emst,
    emst_bruteforce,
    emst_delaunay,
    emst_dualtree_boruvka,
    emst_gfk,
    emst_memogfk,
    emst_naive,
)
from repro.hdbscan import (
    HDBSCANResult,
    core_distances,
    hdbscan,
    hdbscan_mst_gantao,
    hdbscan_mst_memogfk,
    optics_approx_mst,
)
from repro.approx import approx_emst, approx_hdbscan, approx_hdbscan_mst
from repro.dendrogram import (
    Dendrogram,
    clusters_at_height,
    cut_num_clusters,
    dbscan_star_labels,
    dendrogram_sequential,
    dendrogram_topdown,
    reachability_plot,
    single_linkage,
    SingleLinkageResult,
)
from repro.spatial import KDTree
from repro.parallel import WorkDepthTracker
from repro import estimators
from repro.estimators import EMST, HDBSCAN

__version__ = "1.1.0"

__all__ = [
    "PointSet",
    "as_points",
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "resolve_metric",
    "BACKEND_NAMES",
    "BackendFallbackWarning",
    "KernelBackend",
    "available_backends",
    "resolve_backend",
    "current_context",
    "use_context",
    "estimators",
    "EMST",
    "HDBSCAN",
    "ReproError",
    "InvalidParameterError",
    "InvalidPointSetError",
    "NotComputedError",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "WorkerFailedError",
    "SpillIOError",
    "CheckpointManager",
    "inject_faults",
    "EMSTResult",
    "emst",
    "emst_bruteforce",
    "emst_delaunay",
    "emst_dualtree_boruvka",
    "emst_gfk",
    "emst_memogfk",
    "emst_naive",
    "HDBSCANResult",
    "core_distances",
    "hdbscan",
    "hdbscan_mst_gantao",
    "hdbscan_mst_memogfk",
    "optics_approx_mst",
    "approx_emst",
    "approx_hdbscan",
    "approx_hdbscan_mst",
    "Dendrogram",
    "clusters_at_height",
    "cut_num_clusters",
    "dbscan_star_labels",
    "dendrogram_sequential",
    "dendrogram_topdown",
    "reachability_plot",
    "single_linkage",
    "SingleLinkageResult",
    "KDTree",
    "WorkDepthTracker",
    "__version__",
]
