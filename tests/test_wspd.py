"""Tests for the well-separated pair decomposition and separation predicates."""

import importlib

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, NotComputedError
from repro.emst import emst_memogfk
from repro.hdbscan import core_distances, hdbscan
from repro.spatial import KDTree
from repro.wspd import (
    compute_wspd_ids,
    count_wspd_pairs,
    geometrically_separated_mask,
    hdbscan_well_separated_mask,
    mutually_unreachable_mask,
    node_distances,
    node_max_distances,
    well_separated_mask,
)
from repro.wspd.separation import center_gaps
from repro.wspd.wspd import iterate_wspd_ids, validate_wspd_realization


def _one(mask, flat, a, b, *args):
    """A frontier predicate evaluated on the single node pair ``(a, b)`` and
    its center gap, as the traversals pass it."""
    a, b = np.array([a]), np.array([b])
    return mask(flat, a, b, center_gaps(flat, a, b), *args)[0]


def _root_children(tree):
    return int(tree.flat.left_child[0]), int(tree.flat.right_child[0])


class TestSeparationPredicates:
    def _two_leaf_nodes(self, offset):
        points = np.array([[0.0, 0.0], [offset, 0.0]])
        flat = KDTree(points, leaf_size=1).flat
        leaves = {int(flat.point_indices(leaf)[0]): int(leaf) for leaf in flat.leaf_ids()}
        return flat, leaves[0], leaves[1]

    def test_singletons_always_geometrically_separated(self):
        flat, a, b = self._two_leaf_nodes(0.001)
        assert _one(geometrically_separated_mask, flat, a, b)

    def test_node_distance_between_singleton_leaves(self):
        flat, a, b = self._two_leaf_nodes(3.0)
        assert _one(node_distances, flat, a, b) == pytest.approx(3.0)
        assert _one(node_max_distances, flat, a, b) == pytest.approx(3.0)

    def test_well_separated_definition_on_internal_nodes(self):
        rng = np.random.default_rng(0)
        cluster_a = rng.random((20, 2))
        cluster_b = rng.random((20, 2)) + 100.0
        tree = KDTree(np.vstack([cluster_a, cluster_b]), leaf_size=32)
        left, right = _root_children(tree)
        assert _one(well_separated_mask, tree.flat, left, right, 2.0)
        assert _one(geometrically_separated_mask, tree.flat, left, right)

    def test_not_separated_when_clusters_touch(self):
        rng = np.random.default_rng(1)
        points = rng.random((64, 2))
        tree = KDTree(points, leaf_size=32)
        left, right = _root_children(tree)
        assert not _one(geometrically_separated_mask, tree.flat, left, right)

    def test_mutually_unreachable_requires_annotation(self):
        flat, a, b = self._two_leaf_nodes(1.0)
        with pytest.raises(NotComputedError):
            _one(mutually_unreachable_mask, flat, a, b)

    def test_mutually_unreachable_with_large_core_distances(self):
        rng = np.random.default_rng(2)
        points = rng.random((64, 2))
        tree = KDTree(points, leaf_size=32)
        # Uniform huge core distances make every pair mutually unreachable:
        # lhs >= cd_min = 100 and rhs = max(diam, 100) = 100.
        tree.annotate_core_distances(np.full(64, 100.0))
        left, right = _root_children(tree)
        assert _one(mutually_unreachable_mask, tree.flat, left, right)
        assert _one(hdbscan_well_separated_mask, tree.flat, left, right)

    def test_hdbscan_separation_is_disjunction(self):
        rng = np.random.default_rng(3)
        cluster_a = rng.random((10, 2))
        cluster_b = rng.random((10, 2)) + 50.0
        tree = KDTree(np.vstack([cluster_a, cluster_b]), leaf_size=16)
        tree.annotate_core_distances(np.full(20, 1e-6))
        left, right = _root_children(tree)
        # Geometrically separated, tiny core distances: not mutually
        # unreachable but still hdbscan-well-separated.
        assert _one(geometrically_separated_mask, tree.flat, left, right)
        assert _one(hdbscan_well_separated_mask, tree.flat, left, right)


class TestWSPDConstruction:
    @pytest.mark.parametrize("n,d", [(40, 1), (60, 2), (80, 3), (50, 5)])
    def test_realization_covers_every_pair_exactly_once(self, n, d):
        points = np.random.default_rng(n + d).random((n, d))
        tree = KDTree(points, leaf_size=1)
        assert validate_wspd_realization(tree, *compute_wspd_ids(tree))

    def test_every_recorded_pair_is_well_separated(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        a_ids, b_ids = compute_wspd_ids(tree, s=2.0)
        gap = center_gaps(tree.flat, a_ids, b_ids)
        assert well_separated_mask(tree.flat, a_ids, b_ids, gap, 2.0).all()

    def test_linear_number_of_pairs(self):
        # The number of pairs should grow roughly linearly in n for fixed
        # dimension (it is O(n) with a dimension-dependent constant).
        counts = {}
        for n in (100, 200, 400):
            points = np.random.default_rng(n).random((n, 2))
            counts[n] = count_wspd_pairs(KDTree(points, leaf_size=1))
        ratio_1 = counts[200] / counts[100]
        ratio_2 = counts[400] / counts[200]
        assert ratio_1 < 3.0
        assert ratio_2 < 3.0

    def test_larger_separation_constant_gives_more_pairs(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        assert count_wspd_pairs(tree, s=4.0) > count_wspd_pairs(tree, s=2.0)

    def test_hdbscan_separation_gives_no_more_pairs(self, small_points_3d):
        min_pts = 10
        core = core_distances(small_points_3d, min_pts)
        tree = KDTree(small_points_3d, leaf_size=1)
        tree.annotate_core_distances(core)
        geometric_count = count_wspd_pairs(tree, separation="geometric")
        hdbscan_count = count_wspd_pairs(tree, separation="hdbscan")
        assert hdbscan_count <= geometric_count

    def test_hdbscan_separation_strictly_fewer_for_large_minpts(self, varden_points):
        min_pts = 30
        core = core_distances(varden_points, min_pts)
        tree = KDTree(varden_points, leaf_size=1)
        tree.annotate_core_distances(core)
        geometric_count = count_wspd_pairs(tree, separation="geometric")
        hdbscan_count = count_wspd_pairs(tree, separation="hdbscan")
        assert hdbscan_count < geometric_count

    def test_hdbscan_separation_requires_annotation(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        with pytest.raises(NotComputedError):
            compute_wspd_ids(tree, separation="hdbscan")

    def test_unknown_separation_rejected(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        with pytest.raises(InvalidParameterError):
            compute_wspd_ids(tree, separation="bogus")

    def test_two_points(self):
        tree = KDTree(np.array([[0.0, 0.0], [1.0, 1.0]]), leaf_size=1)
        a_ids, b_ids = compute_wspd_ids(tree)
        assert a_ids.size == b_ids.size == 1

    def test_duplicate_points_still_covered(self):
        points = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        tree = KDTree(points, leaf_size=1)
        assert validate_wspd_realization(tree, *compute_wspd_ids(tree))


class TestOneGapPerFrontierPair:
    """Every visited frontier pair has its center gap evaluated once per
    traversal pass: the window bounds and the separation predicates all read
    the one array the pass computed."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(11)
        blobs = np.vstack(
            [rng.normal(0.0, 0.05, (160, 2)), rng.normal(1.0, 0.08, (160, 2))]
        )
        return np.vstack([blobs, blobs[::8]])  # 40 exact duplicates

    @pytest.fixture()
    def gap_log(self, monkeypatch):
        # Modules named through sys.modules: the package attributes can be
        # shadowed by re-exported functions of the same name.
        separation = importlib.import_module("repro.wspd.separation")
        # A 64-pair default chunk makes the 4-thread runs shard their sweeps.
        monkeypatch.setattr(
            importlib.import_module("repro.parallel.pool"), "DEFAULT_CHUNK", 64
        )
        original = separation.center_gaps
        log = []

        def recording(flat, a, b):
            log.append(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1))
            return original(flat, a, b)

        monkeypatch.setattr(separation, "center_gaps", recording)
        return log

    @staticmethod
    def _assert_once(pairs):
        pairs = np.concatenate(pairs)
        assert np.unique(pairs, axis=0).shape[0] == pairs.shape[0]

    @pytest.mark.parametrize("num_threads", [1, 4])
    @pytest.mark.parametrize("fit", ["emst", "hdbscan"])
    def test_memogfk_passes(self, points, gap_log, monkeypatch, fit, num_threads):
        memogfk = importlib.import_module("repro.emst.memogfk")
        passes = []

        def one_pass(traversal):
            def wrapped(*args, **kwargs):
                del gap_log[:]
                result = traversal(*args, **kwargs)
                if gap_log:
                    passes.append((traversal.__name__, list(gap_log)))
                return result

            return wrapped

        for name in ("_get_rho", "_get_pairs"):
            monkeypatch.setattr(memogfk, name, one_pass(getattr(memogfk, name)))
        if fit == "emst":
            emst_memogfk(points, num_threads=num_threads)
        else:
            hdbscan(points, min_pts=5, method="memogfk", num_threads=num_threads)
        assert {name for name, _ in passes} == {"_get_rho", "_get_pairs"}
        for _, pairs in passes:
            self._assert_once(pairs)

    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_hdbscan_wspd_pass(self, points, gap_log, num_threads):
        tree = KDTree(points, leaf_size=1)
        tree.annotate_core_distances(core_distances(points, 5))
        batches = list(
            iterate_wspd_ids(tree.flat, separation="hdbscan", num_threads=num_threads)
        )
        assert batches and gap_log
        self._assert_once(gap_log)
