"""Core geometric utilities shared by every subsystem.

This subpackage holds the small, dependency-free building blocks the rest of
the library is written against: point-set validation, the pluggable metric
core and its distance kernels, and the library's exception hierarchy, plus the ambient execution context
(:mod:`repro.core.context`) that carries the backend, memory budget, pool
policy and tracker a run executes under.
"""

from repro.core.errors import (
    ReproError,
    InvalidParameterError,
    InvalidPointSetError,
    NotComputedError,
)
from repro.core.points import PointSet, as_points, open_memmap_points
from repro.core.budget import (
    MemoryBudget,
    format_memory_size,
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
from repro.core.context import ExecutionContext, current_context, use_context
from repro.core.metric import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    METRIC_NAMES,
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    resolve_metric,
)
from repro.core.distance import (
    euclidean,
    point_distance,
    pairwise_distances,
    cross_distances,
    closest_pair_bruteforce,
    squared_distances_to_point,
)

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InvalidPointSetError",
    "NotComputedError",
    "PointSet",
    "as_points",
    "open_memmap_points",
    "MemoryBudget",
    "format_memory_size",
    "parse_memory_size",
    "resolve_memory_budget",
    "BACKEND_NAMES",
    "BackendFallbackWarning",
    "KernelBackend",
    "available_backends",
    "resolve_backend",
    "ExecutionContext",
    "current_context",
    "use_context",
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "EUCLIDEAN",
    "MANHATTAN",
    "CHEBYSHEV",
    "METRIC_NAMES",
    "resolve_metric",
    "euclidean",
    "point_distance",
    "pairwise_distances",
    "cross_distances",
    "closest_pair_bruteforce",
    "squared_distances_to_point",
]
