"""Tests for the spatial-median kd-tree, with nodes named by their ids."""

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, NotComputedError
from repro.spatial import KDTree


class TestConstruction:
    def test_leaf_size_one_gives_singleton_leaves(self, small_points_2d):
        flat = KDTree(small_points_2d, leaf_size=1).flat
        assert np.all(flat.node_sizes[flat.leaf_ids()] == 1)

    def test_leaf_size_respected(self, small_points_3d):
        flat = KDTree(small_points_3d, leaf_size=8).flat
        assert np.all(flat.node_sizes[flat.leaf_ids()] <= 8)

    def test_all_points_in_exactly_one_leaf(self, small_points_2d):
        flat = KDTree(small_points_2d, leaf_size=4).flat
        seen = np.concatenate([flat.point_indices(leaf) for leaf in flat.leaf_ids()])
        assert sorted(seen.tolist()) == list(range(len(small_points_2d)))

    def test_root_contains_all_points(self, small_points_2d):
        flat = KDTree(small_points_2d).flat
        assert flat.node_sizes[0] == len(small_points_2d)

    def test_children_partition_parent(self, small_points_3d):
        flat = KDTree(small_points_3d, leaf_size=2).flat
        for node in np.flatnonzero(flat.left_child >= 0):
            left = set(flat.point_indices(flat.left_child[node]).tolist())
            right = set(flat.point_indices(flat.right_child[node]).tolist())
            assert left | right == set(flat.point_indices(node).tolist())
            assert not (left & right)

    def test_node_count_bound(self, small_points_2d):
        n = len(small_points_2d)
        tree = KDTree(small_points_2d, leaf_size=1)
        assert n <= tree.num_nodes <= 2 * n

    def test_bounding_boxes_contain_points(self, small_points_3d):
        flat = KDTree(small_points_3d, leaf_size=4).flat
        for node in range(flat.num_nodes):
            members = small_points_3d[flat.point_indices(node)]
            assert np.all(members >= flat.node_lower[node])
            assert np.all(members <= flat.node_upper[node])

    def test_bounding_spheres_contain_points(self, small_points_3d):
        flat = KDTree(small_points_3d, leaf_size=4).flat
        for node in range(flat.num_nodes):
            members = small_points_3d[flat.point_indices(node)]
            reach = flat.metric.diff_norms(members - flat.node_center[node])
            assert np.all(reach <= flat.node_radius[node] + 1e-12)

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0]]))
        assert tree.flat.left_child[0] < 0
        assert tree.num_nodes == 1

    def test_duplicate_points_terminate(self):
        points = np.zeros((16, 3))
        flat = KDTree(points, leaf_size=1).flat
        assert np.all(flat.node_sizes[flat.leaf_ids()] == 1)

    def test_collinear_points(self):
        points = np.column_stack([np.arange(32.0), np.zeros(32)])
        flat = KDTree(points, leaf_size=2).flat
        assert flat.node_sizes[flat.leaf_ids()].sum() == 32

    def test_invalid_leaf_size(self):
        with pytest.raises(InvalidParameterError):
            KDTree(np.zeros((4, 2)), leaf_size=0)

    def test_height_logarithmic_for_uniform_data(self):
        rng = np.random.default_rng(0)
        points = rng.random((256, 2))
        tree = KDTree(points, leaf_size=1)
        # Spatial-median splits on uniform data give height close to log2(n);
        # allow generous slack while still catching a degenerate linear tree.
        assert tree.height() <= 4 * int(np.log2(256))

    def test_size_and_dimension(self, small_points_5d):
        tree = KDTree(small_points_5d)
        assert tree.size == len(small_points_5d)
        assert tree.dimension == 5


class TestCoreDistanceAnnotation:
    def test_min_max_consistency(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=2)
        rng = np.random.default_rng(5)
        core = rng.random(len(small_points_2d))
        tree.annotate_core_distances(core)
        flat = tree.flat
        for node in range(flat.num_nodes):
            values = core[flat.point_indices(node)]
            assert flat.cd_min[node] == values.min()
            assert flat.cd_max[node] == values.max()

    def test_requires_matching_length(self, small_points_2d):
        tree = KDTree(small_points_2d)
        with pytest.raises(InvalidParameterError):
            tree.annotate_core_distances(np.zeros(3))

    def test_core_distances_property_after_annotation(self, small_points_2d):
        tree = KDTree(small_points_2d)
        core = np.ones(len(small_points_2d))
        tree.annotate_core_distances(core)
        assert tree.has_core_distances
        assert np.array_equal(tree.core_distances, core)

    def test_core_distances_property_before_annotation_raises(self, small_points_2d):
        tree = KDTree(small_points_2d)
        assert not tree.has_core_distances
        with pytest.raises(NotComputedError):
            _ = tree.core_distances
