"""Bounding boxes and spheres of kd-tree nodes, named by node id.

Every node of a :class:`FlatKDTree` carries an axis-aligned box
(``node_lower`` / ``node_upper``) and the sphere circumscribing it
(``node_center`` / ``node_radius``).  These tests pin the geometry the WSPD
separation masks and the pruned traversals rely on, reading it from the node
arrays and the frontier kernels of :mod:`repro.wspd.separation`.
"""

import numpy as np
import pytest

from repro.core.distance import cross_distances
from repro.spatial import FlatKDTree
from repro.wspd.separation import (
    box_gaps,
    node_distances,
    node_max_distances,
    well_separated_mask,
)


def one(kernel, flat, a, b, *args):
    """A frontier kernel evaluated on the single node pair ``(a, b)``."""
    return kernel(flat, np.array([a]), np.array([b]), *args)[0]


def sibling_nodes(*groups):
    """A tree whose root children hold exactly the two point groups."""
    points = np.vstack(groups).astype(np.float64)
    flat = FlatKDTree(points, leaf_size=max(len(g) for g in groups))
    left, right = int(flat.left_child[0]), int(flat.right_child[0])
    assert sorted(flat.point_indices(left)) == list(range(len(groups[0])))
    return flat, left, right


def on_axis(*xs):
    """Points on the x axis of the plane."""
    return np.column_stack([xs, np.zeros(len(xs))])


class TestBoundingBox:
    def test_of_points(self):
        flat = FlatKDTree(np.array([[0.0, 5.0], [2.0, 1.0], [1.0, 3.0]]), leaf_size=3)
        assert np.array_equal(flat.node_lower[0], [0.0, 1.0])
        assert np.array_equal(flat.node_upper[0], [2.0, 5.0])

    def test_center_and_extent(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [2.0, 4.0]]), leaf_size=2)
        assert np.array_equal(flat.node_center[0], [1.0, 2.0])
        assert np.array_equal(flat.node_upper[0] - flat.node_lower[0], [2.0, 4.0])

    def test_diagonal(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [3.0, 4.0]]), leaf_size=2)
        assert 2.0 * flat.node_radius[0] == pytest.approx(5.0)

    def test_contains(self):
        points = np.random.default_rng(0).random((60, 2))
        flat = FlatKDTree(points, leaf_size=4)
        for node in range(flat.num_nodes):
            members = points[flat.point_indices(node)]
            gaps = flat.min_distances_to_points(members, np.full(len(members), node))
            assert np.all(gaps == 0.0)
        outside = np.array([[1.5, 0.5]])
        assert flat.min_distances_to_points(outside, [0])[0] > 0.0

    def test_contains_with_tolerance(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [1.0, 1.0]]), leaf_size=2)
        gap = flat.min_distances_to_points(np.array([[1.0 + 1e-12, 0.5]]), [0])[0]
        assert 0.0 < gap <= 1e-9

    def test_merge(self):
        """A parent's box is the smallest box holding both children's."""
        flat = FlatKDTree(np.random.default_rng(1).random((80, 3)), leaf_size=2)
        parents = np.flatnonzero(flat.left_child >= 0)
        left, right = flat.left_child[parents], flat.right_child[parents]
        assert np.array_equal(
            flat.node_lower[parents],
            np.minimum(flat.node_lower[left], flat.node_lower[right]),
        )
        assert np.array_equal(
            flat.node_upper[parents],
            np.maximum(flat.node_upper[left], flat.node_upper[right]),
        )

    def test_min_distance_disjoint(self):
        flat, a, b = sibling_nodes([[0.0, 0.0], [1.0, 1.0]], [[4.0, 5.0], [6.0, 6.0]])
        assert one(box_gaps, flat, a, b) == pytest.approx(5.0)

    def test_min_distance_overlapping_is_zero(self):
        flat = FlatKDTree(np.random.default_rng(2).random((30, 2)), leaf_size=4)
        assert one(box_gaps, flat, 0, int(flat.left_child[0])) == 0.0

    def test_max_distance_upper_bounds_all_pairs(self):
        rng = np.random.default_rng(0)
        points_a = rng.random((30, 3))
        points_b = rng.random((30, 3)) + 2.0
        flat, a, b = sibling_nodes(points_a, points_b)
        bound = one(node_max_distances, flat, a, b)
        assert cross_distances(points_a, points_b).max() <= bound + 1e-9

    def test_min_distance_to_point(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [1.0, 1.0]]), leaf_size=2)
        queries = np.array([[0.5, 0.5], [4.0, 5.0]])
        gaps = flat.min_distances_to_points(queries, [0, 0])
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(5.0)

    def test_to_sphere_contains_corners(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [2.0, 2.0]]), leaf_size=2)
        corners = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 2.0], [2.0, 0.0]])
        reach = flat.metric.diff_norms(corners - flat.node_center[0])
        assert np.all(reach <= flat.node_radius[0] + 1e-12)


class TestBoundingSphere:
    def test_of_points_contains_all(self):
        points = np.random.default_rng(1).random((50, 4))
        flat = FlatKDTree(points, leaf_size=4)
        for node in range(flat.num_nodes):
            members = points[flat.point_indices(node)]
            reach = flat.metric.diff_norms(members - flat.node_center[node])
            assert np.all(reach <= flat.node_radius[node] + 1e-12)

    def test_diameter(self):
        flat = FlatKDTree(np.array([[0.0, 0.0], [0.0, 4.0]]), leaf_size=2)
        assert 2.0 * flat.node_radius[0] == 4.0

    def test_distance_between_disjoint_spheres(self):
        # Radius 1 around 0 and radius 2 around 10.
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(8.0, 12.0))
        assert one(node_distances, flat, a, b) == pytest.approx(7.0)

    def test_distance_intersecting_spheres_is_zero(self):
        flat = FlatKDTree(np.random.default_rng(3).random((30, 2)), leaf_size=4)
        assert one(node_distances, flat, 0, int(flat.right_child[0])) == 0.0

    def test_max_distance(self):
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(8.0, 12.0))
        assert one(node_max_distances, flat, a, b) == pytest.approx(13.0)

    def test_distance_lower_bounds_point_distances(self):
        rng = np.random.default_rng(2)
        points_a = rng.random((20, 3))
        points_b = rng.random((20, 3)) + 5.0
        flat, a, b = sibling_nodes(points_a, points_b)
        lower = one(node_distances, flat, a, b)
        assert lower <= cross_distances(points_a, points_b).min() + 1e-9

    def test_well_separated_far_spheres(self):
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(99.0, 101.0))
        assert one(well_separated_mask, flat, a, b, 2.0)

    def test_not_well_separated_close_spheres(self):
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(2.0, 4.0))
        assert not one(well_separated_mask, flat, a, b, 2.0)

    def test_well_separation_threshold(self):
        # gap = center_gap - 2r must be >= s*r; with r=1, s=2 the threshold
        # center gap is exactly 4.
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(3.0, 5.0))
        assert one(well_separated_mask, flat, a, b, 2.0)
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(2.999, 4.999))
        assert not one(well_separated_mask, flat, a, b, 2.0)

    def test_higher_separation_constant_is_stricter(self):
        flat, a, b = sibling_nodes(on_axis(-1.0, 1.0), on_axis(4.0, 6.0))
        assert one(well_separated_mask, flat, a, b, 2.0)
        assert not one(well_separated_mask, flat, a, b, 8.0)
