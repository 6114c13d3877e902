"""Axis-aligned bounding boxes and bounding spheres.

The WSPD well-separation tests and the MemoGFK pruning rules (Section 3.1.3 of
the paper) are expressed in terms of per-node bounding spheres: the minimum
distance between two spheres lower-bounds the BCCP of the two point sets and
the sum of sphere diameters plus the center distance upper-bounds it.
Following the reference implementation we derive each node's sphere from its
axis-aligned bounding box (center = box center, radius = half the box
diagonal), which is cheap to maintain during kd-tree construction.

Both shapes are metric-aware: every distance-flavoured method takes a
:class:`~repro.core.metric.Metric` (Euclidean by default) and evaluates its
gap or span vector with :meth:`Metric.vector_norm`, one row of the metric's
exact :meth:`~repro.core.metric.Metric.diff_norms` kernel; a sphere carries
the metric it was derived under so the scalar separation predicates stay
metric-correct.  All supported metrics are norm-induced, so the sphere bounds
remain valid: the circumscribing radius of a box is half the norm of its
extent and the min/max sphere-to-sphere bounds follow from the triangle
inequality alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metric import EUCLIDEAN, Metric


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box given by coordinate-wise lower/upper corners."""

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def of_points(points: np.ndarray) -> "BoundingBox":
        """Smallest box containing every row of ``points``."""
        points = np.asarray(points, dtype=np.float64)
        return BoundingBox(points.min(axis=0), points.max(axis=0))

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) * 0.5

    @property
    def extent(self) -> np.ndarray:
        """Side length along each dimension."""
        return self.upper - self.lower

    @property
    def diagonal(self) -> float:
        """Euclidean length of the main diagonal."""
        return EUCLIDEAN.vector_norm(self.extent)

    def contains(self, point: np.ndarray, *, tol: float = 0.0) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(
            np.all(point >= self.lower - tol) and np.all(point <= self.upper + tol)
        )

    def merge(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(
            np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper)
        )

    def to_sphere(self, metric: Metric = EUCLIDEAN) -> "BoundingSphere":
        """Bounding sphere circumscribing the box under ``metric``."""
        return BoundingSphere(
            self.center, 0.5 * metric.vector_norm(self.extent), metric=metric
        )

    def min_distance(self, other: "BoundingBox", metric: Metric = EUCLIDEAN) -> float:
        """Minimum distance between the two boxes (0 if they overlap)."""
        gap = np.maximum(
            np.maximum(self.lower - other.upper, other.lower - self.upper), 0.0
        )
        return metric.vector_norm(gap)

    def max_distance(self, other: "BoundingBox", metric: Metric = EUCLIDEAN) -> float:
        """Maximum distance between any two points of the boxes."""
        span = np.maximum(self.upper - other.lower, other.upper - self.lower)
        return metric.vector_norm(span)

    def min_distance_to_point(
        self, point: np.ndarray, metric: Metric = EUCLIDEAN
    ) -> float:
        point = np.asarray(point, dtype=np.float64)
        gap = np.maximum(np.maximum(self.lower - point, point - self.upper), 0.0)
        return metric.vector_norm(gap)


@dataclass(frozen=True)
class BoundingSphere:
    """Sphere with a center and radius: a ball of ``metric`` (Euclidean by default).

    ``distance`` / ``max_distance`` give the lower and upper bounds on the
    distance between points contained in two spheres, exactly the quantities
    ``d(A, B)`` and ``d_max(A, B)`` used throughout Section 3 of the paper.
    """

    center: np.ndarray
    radius: float
    metric: Metric = EUCLIDEAN

    @staticmethod
    def of_points(points: np.ndarray, metric: Metric = EUCLIDEAN) -> "BoundingSphere":
        """Sphere circumscribing the axis-aligned bounding box of ``points``."""
        return BoundingBox.of_points(points).to_sphere(metric)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def _center_gap(self, other: "BoundingSphere") -> float:
        return self.metric.point_distance(self.center, other.center)

    def distance(self, other: "BoundingSphere") -> float:
        """Minimum distance between the two spheres (0 if they intersect)."""
        return max(0.0, self._center_gap(other) - self.radius - other.radius)

    def max_distance(self, other: "BoundingSphere") -> float:
        """Maximum distance between any point of one sphere and of the other."""
        return self._center_gap(other) + self.radius + other.radius

    def contains(self, point: np.ndarray, *, tol: float = 1e-9) -> bool:
        return self.metric.point_distance(point, self.center) <= self.radius + tol

    def well_separated_from(self, other: "BoundingSphere", s: float = 2.0) -> bool:
        """Callahan–Kosaraju well-separation with separation constant ``s``.

        Both point sets are enclosed in spheres of the common radius
        ``r = max(radius_A, radius_B)``; the sets are well-separated when the
        gap between those enlarged spheres is at least ``s * r``.
        """
        r = max(self.radius, other.radius)
        return self._center_gap(other) - 2.0 * r >= s * r
