"""Tests for the HDBSCAN* pipeline: core distances, MST variants, public API."""

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, NotComputedError
from repro.emst import emst_bruteforce
from repro.hdbscan import (
    HDBSCAN_METHODS,
    core_distances,
    hdbscan,
    hdbscan_mst_bruteforce,
    hdbscan_mst_gantao,
    hdbscan_mst_memogfk,
    mutual_reachability,
    mutual_reachability_matrix,
    optics_approx_mst,
)
from repro.mst import kruskal
from repro.spatial import KDTree
from repro.wspd import compute_wspd_ids

EXACT_METHODS = [hdbscan_mst_gantao, hdbscan_mst_memogfk]


class TestCoreDistances:
    def test_minpts_one_is_zero(self, small_points_2d):
        assert np.allclose(core_distances(small_points_2d, 1), 0.0)

    def test_minpts_two_is_nearest_neighbor_distance(self, small_points_2d):
        from repro.core.distance import pairwise_distances

        core = core_distances(small_points_2d, 2)
        matrix = pairwise_distances(small_points_2d)
        np.fill_diagonal(matrix, np.inf)
        assert np.allclose(core, matrix.min(axis=1), atol=1e-6)

    def test_monotone_in_minpts(self, small_points_3d):
        previous = core_distances(small_points_3d, 2)
        for min_pts in (5, 10, 20):
            current = core_distances(small_points_3d, min_pts)
            assert np.all(current >= previous - 1e-9)
            previous = current

    def test_kdtree_method_matches_bruteforce(self, small_points_3d):
        brute = core_distances(small_points_3d, 6, method="bruteforce")
        kdtree = core_distances(small_points_3d, 6, method="kdtree")
        assert np.allclose(brute, kdtree, atol=1e-6)

    def test_invalid_minpts(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            core_distances(small_points_2d, 0)
        with pytest.raises(InvalidParameterError):
            core_distances(small_points_2d, len(small_points_2d) + 1)

    def test_invalid_method(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            core_distances(small_points_2d, 3, method="bogus")

    def test_supplied_tree_over_other_point_count_rejected(self):
        rng = np.random.default_rng(0)
        tree = KDTree(rng.random((300, 2)), leaf_size=8)
        with pytest.raises(InvalidParameterError, match="indexes 300 points"):
            core_distances(rng.random((200, 2)), 5, method="kdtree", tree=tree)

    def test_supplied_tree_over_other_points_rejected(self, small_points_2d):
        tree = KDTree(small_points_2d + 1e-9, leaf_size=8)
        with pytest.raises(InvalidParameterError, match="different point set"):
            core_distances(small_points_2d, 5, method="kdtree", tree=tree)

    def test_supplied_tree_backend_conflict_rejected(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=8, backend="numpy-f32")
        with pytest.raises(InvalidParameterError, match="numpy-f32"):
            core_distances(
                small_points_2d, 5, method="kdtree", tree=tree, backend="numpy"
            )
        # Without an explicit backend the tree's own backend is used.
        reused = core_distances(small_points_2d, 5, method="kdtree", tree=tree)
        fresh = core_distances(
            small_points_2d, 5, method="kdtree", backend="numpy-f32"
        )
        assert np.array_equal(reused, fresh)

    def test_dense_point_has_smaller_core_distance(self):
        # One tight cluster plus one isolated point: the isolated point's core
        # distance must be the largest.
        rng = np.random.default_rng(0)
        cluster = rng.normal(0.0, 0.01, size=(30, 2))
        outlier = np.array([[10.0, 10.0]])
        core = core_distances(np.vstack([cluster, outlier]), 5)
        assert np.argmax(core) == 30


class TestMutualReachability:
    def test_pointwise_definition(self):
        p, q = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert mutual_reachability(p, q, 0.5, 0.3) == pytest.approx(1.0)
        assert mutual_reachability(p, q, 2.0, 0.3) == pytest.approx(2.0)

    def test_matrix_symmetric_with_zero_diagonal(self, small_points_2d):
        core = core_distances(small_points_2d, 5)
        matrix = mutual_reachability_matrix(small_points_2d, core)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matrix_lower_bounded_by_core_distances(self, small_points_2d):
        core = core_distances(small_points_2d, 5)
        matrix = mutual_reachability_matrix(small_points_2d, core)
        off_diagonal = matrix + np.diag(np.full(len(core), np.inf))
        assert np.all(off_diagonal >= core[:, None] - 1e-9)

    def test_matrix_requires_matching_core_length(self, small_points_2d):
        with pytest.raises(ValueError):
            mutual_reachability_matrix(small_points_2d, np.zeros(3))


class TestMSTVariants:
    @pytest.mark.parametrize("algorithm", EXACT_METHODS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("min_pts", [2, 5, 15])
    def test_weight_matches_bruteforce(self, algorithm, min_pts):
        points = np.random.default_rng(min_pts).random((90, 3))
        expected = hdbscan_mst_bruteforce(points, min_pts).total_weight
        result = algorithm(points, min_pts)
        assert result.total_weight == pytest.approx(expected, rel=1e-9)
        assert result.is_spanning_tree()

    @pytest.mark.parametrize("algorithm", EXACT_METHODS, ids=lambda f: f.__name__)
    def test_skewed_data(self, algorithm, varden_points):
        subset = varden_points[:150]
        expected = hdbscan_mst_bruteforce(subset, 10).total_weight
        assert algorithm(subset, 10).total_weight == pytest.approx(expected, rel=1e-9)

    def test_minpts_one_equals_emst(self, small_points_2d):
        emst_weight = emst_bruteforce(small_points_2d).total_weight
        hdbscan_weight = hdbscan_mst_memogfk(small_points_2d, 1).total_weight
        assert hdbscan_weight == pytest.approx(emst_weight, rel=1e-9)

    def test_mst_weight_monotone_in_minpts(self, small_points_3d):
        weights = [
            hdbscan_mst_memogfk(small_points_3d, min_pts).total_weight
            for min_pts in (1, 5, 10, 20)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(weights, weights[1:]))

    def test_memogfk_fewer_bccp_calls_than_gantao(self, varden_points):
        subset = varden_points[:200]
        gantao = hdbscan_mst_gantao(subset, 20)
        memogfk = hdbscan_mst_memogfk(subset, 20)
        assert memogfk.stats["bccp_calls"] <= gantao.stats["bccp_calls"]

    def test_precomputed_core_distances_accepted(self, small_points_2d):
        core = core_distances(small_points_2d, 5)
        result = hdbscan_mst_memogfk(small_points_2d, 5, core_dists=core)
        expected = hdbscan_mst_bruteforce(small_points_2d, 5, core_dists=core)
        assert result.total_weight == pytest.approx(expected.total_weight)

    @pytest.mark.parametrize("algorithm", EXACT_METHODS + [hdbscan_mst_bruteforce], ids=lambda f: f.__name__)
    def test_single_point(self, algorithm):
        result = algorithm(np.array([[0.0, 0.0]]), 1)
        assert result.num_edges == 0

    def test_edge_weights_at_least_core_distances(self, small_points_3d):
        min_pts = 8
        core = core_distances(small_points_3d, min_pts)
        result = hdbscan_mst_memogfk(small_points_3d, min_pts, core_dists=core)
        for u, v, w in result.edges:
            assert w >= max(core[u], core[v]) - 1e-9


class TestTranslatedData:
    """2D uniform points shifted far from the origin: every exact MST is the
    exact one, so the oracle barely moves with the shift."""

    @pytest.fixture(scope="class")
    def base(self):
        return np.random.default_rng(1).random((1200, 2))

    @pytest.mark.parametrize("shift", [1e5, 1e6])
    def test_exact_methods_equal_bruteforce(self, base, shift):
        points = base + shift
        expected = np.sort(hdbscan_mst_bruteforce(points, 5).edges.as_arrays()[2])
        for method in EXACT_METHODS:
            weights = np.sort(method(points, 5).edges.as_arrays()[2])
            assert weights.tobytes() == expected.tobytes(), method.__name__

    def test_bruteforce_is_translation_stable(self, base):
        # Rounding the shifted coordinates moves the total by ~1e-10; the
        # BLAS expansion kernel moved it by 2e-3 at a 1e5 shift.
        unshifted = hdbscan_mst_bruteforce(base, 5).total_weight
        shifted = hdbscan_mst_bruteforce(base + 1e5, 5).total_weight
        assert shifted == pytest.approx(unshifted, rel=1e-9)


class TestApproximateOptics:
    def test_weight_close_to_exact(self, small_points_3d):
        exact = hdbscan_mst_bruteforce(small_points_3d, 10).total_weight
        approx = optics_approx_mst(small_points_3d, 10, rho=0.125).total_weight
        # The approximate MST uses weights scaled by at most 1/(1+rho), so its
        # total weight lies within [exact / (1 + rho), ~exact].
        assert approx >= exact / 1.125 - 1e-9
        assert approx <= exact * 1.01 + 1e-9

    def test_spanning(self, small_points_2d):
        result = optics_approx_mst(small_points_2d, 10, rho=0.125)
        assert result.is_spanning_tree()

    def test_smaller_rho_means_more_pairs(self, small_points_2d):
        loose = optics_approx_mst(small_points_2d, 10, rho=0.5)
        tight = optics_approx_mst(small_points_2d, 10, rho=0.125)
        assert tight.stats["wspd_pairs"] >= loose.stats["wspd_pairs"]

    def test_invalid_rho(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            optics_approx_mst(small_points_2d, 10, rho=0.0)

    def test_reports_separation_constant(self, small_points_2d):
        result = optics_approx_mst(small_points_2d, 10, rho=0.125)
        assert result.stats["separation_constant"] == pytest.approx(8.0)


def appendix_c_oracle(points, min_pts, rho, metric):
    """Appendix C per pair: the four cardinality cases, then Kruskal.

    Walks the ``s = sqrt(8 / rho)`` decomposition one pair at a time; a node
    with fewer than ``min_pts`` points contributes every member, a larger one
    its first member, and each edge weighs
    ``max(cd(u), cd(v), d(u, v) / (1 + rho))``.
    """
    core = core_distances(points, min_pts, metric=metric)
    tree = KDTree(points, metric=metric)
    flat = tree.flat
    metric = flat.metric
    edges = []
    for a, b in zip(*compute_wspd_ids(tree, s=np.sqrt(8.0 / rho))):
        members_a = flat.point_indices(a)
        members_b = flat.point_indices(b)
        if len(members_a) >= min_pts:
            members_a = members_a[:1]
        if len(members_b) >= min_pts:
            members_b = members_b[:1]
        for u in members_a.tolist():
            for v in members_b.tolist():
                distance = metric.point_distance(points[u], points[v])
                edges.append((u, v, max(core[u], core[v], distance / (1.0 + rho))))
    return kruskal(edges, len(points)).as_arrays()


class TestOpticsApproxOracle:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("rho", [0.125, 0.5])
    @pytest.mark.parametrize("dim", [2, 7])
    def test_matches_per_pair_oracle(self, dim, rho, metric):
        rng = np.random.default_rng(dim)
        base = rng.random((150, dim))
        lattice = rng.integers(0, 4, size=(60, dim)) * 0.25
        points = np.vstack([base, base[:20], lattice])
        # minPts 3 puts many pairs in the three cases with a large node.
        for min_pts in (3, 10):
            result = optics_approx_mst(points, min_pts, rho=rho, metric=metric)
            got = result.edges.as_arrays()
            want = appendix_c_oracle(points, min_pts, rho, metric)
            for got_part, want_part in zip(got, want):
                assert got_part.tobytes() == want_part.tobytes()


class TestPublicAPI:
    def test_default_pipeline(self, clustered_points):
        points, truth = clustered_points
        result = hdbscan(points, min_pts=5)
        assert result.mst.is_spanning_tree()
        assert result.dendrogram is not None
        labels = result.dbscan_labels(0.2)
        # The two blobs are far apart: the cut at 0.2 recovers them exactly.
        assert len(set(labels[labels >= 0].tolist())) == 2
        first_blob = set(labels[truth == 0].tolist())
        second_blob = set(labels[truth == 1].tolist())
        assert first_blob.isdisjoint(second_blob)

    @pytest.mark.parametrize("method", sorted(HDBSCAN_METHODS))
    def test_all_methods_run(self, method):
        points = np.random.default_rng(4).random((80, 2))
        result = hdbscan(points, min_pts=5, method=method)
        assert result.mst.num_edges == 79

    def test_unknown_method(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            hdbscan(small_points_2d, method="nope")

    @pytest.mark.parametrize("method", sorted(HDBSCAN_METHODS))
    def test_unknown_option_rejected(self, method, small_points_2d):
        with pytest.raises(InvalidParameterError, match="bogus"):
            hdbscan(small_points_2d, min_pts=5, method=method, bogus=123)

    def test_invalid_minpts(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            hdbscan(small_points_2d, min_pts=0)

    def test_reachability_plot_matches_prim(self, small_points_2d):
        from repro.dendrogram import reachability_plot

        result = hdbscan(small_points_2d, min_pts=5)
        order, reach = result.reachability_plot()
        order_ref, reach_ref = reachability_plot(
            list(result.mst.edges), len(small_points_2d), start=0
        )
        # The HDBSCAN* MST has tied edge weights (many equal core distances),
        # so the ordered dendrogram and the heap-based Prim may break ties
        # differently; the multiset of reachability values must still agree,
        # both orders start at the same vertex and visit every point once.
        assert order[0] == order_ref[0] == 0
        assert sorted(order.tolist()) == sorted(order_ref.tolist())
        assert np.allclose(np.sort(reach[1:]), np.sort(reach_ref[1:]))

    def test_skip_dendrogram(self, small_points_2d):
        result = hdbscan(small_points_2d, min_pts=5, compute_dendrogram=False)
        assert result.dendrogram is None
        with pytest.raises(NotComputedError):
            result.reachability_plot()

    def test_noise_points_labelled_minus_one(self):
        rng = np.random.default_rng(8)
        cluster = rng.normal(0.0, 0.02, size=(60, 2))
        outliers = np.array([[5.0, 5.0], [-5.0, 5.0], [5.0, -5.0]])
        points = np.vstack([cluster, outliers])
        result = hdbscan(points, min_pts=5)
        labels = result.dbscan_labels(0.1)
        assert np.all(labels[60:] == -1)
        assert np.all(labels[:60] >= 0)

    def test_min_cluster_size_filters_small_components(self, clustered_points):
        points, _ = clustered_points
        result = hdbscan(points, min_pts=5)
        strict = result.dbscan_labels(0.2, min_cluster_size=200)
        assert np.all(strict == -1)

    def test_epsilon_zero_everything_noise(self, small_points_2d):
        result = hdbscan(small_points_2d, min_pts=5)
        labels = result.dbscan_labels(0.0)
        assert np.all(labels == -1)

    def test_huge_epsilon_single_cluster(self, small_points_2d):
        result = hdbscan(small_points_2d, min_pts=5)
        labels = result.dbscan_labels(1e6)
        assert set(labels.tolist()) == {0}

    def test_stats_include_phases(self, small_points_2d):
        result = hdbscan(small_points_2d, min_pts=5)
        assert "time_core-dist" in result.stats
        assert "time_mst" in result.stats
        assert "time_dendrogram" in result.stats
