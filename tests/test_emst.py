"""Tests for every EMST algorithm variant and the public API."""

import numpy as np
import pytest

from conformance import EXACT_EMST_METHODS, skip_unless_supported
from repro.core.errors import InvalidParameterError
from repro.emst import (
    EMST_METHODS,
    emst,
    emst_bruteforce,
    emst_delaunay,
    emst_dualtree_boruvka,
    emst_gfk,
    emst_memogfk,
    emst_naive,
)

FAST_METHODS = [emst_naive, emst_gfk, emst_memogfk, emst_dualtree_boruvka]


@pytest.fixture(scope="module")
def reference_2d(small_points_2d=None):
    points = np.random.default_rng(21).random((100, 2))
    return points, emst_bruteforce(points)


class TestAgainstBruteforce:
    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("dimensions", [1, 2, 3, 5])
    def test_total_weight_matches(self, algorithm, dimensions):
        points = np.random.default_rng(dimensions).random((70, dimensions))
        expected = emst_bruteforce(points).total_weight
        result = algorithm(points)
        assert result.total_weight == pytest.approx(expected, rel=1e-9)
        assert result.is_spanning_tree()

    def test_delaunay_matches_in_2d(self):
        points = np.random.default_rng(9).random((150, 2))
        expected = emst_bruteforce(points).total_weight
        result = emst_delaunay(points)
        assert result.total_weight == pytest.approx(expected, rel=1e-9)
        assert result.is_spanning_tree()

    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    def test_clustered_data(self, algorithm, clustered_points):
        points, _ = clustered_points
        expected = emst_bruteforce(points).total_weight
        assert algorithm(points).total_weight == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    def test_skewed_varden_data(self, algorithm, varden_points):
        subset = varden_points[:120]
        expected = emst_bruteforce(subset).total_weight
        assert algorithm(subset).total_weight == pytest.approx(expected, rel=1e-9)


@pytest.fixture(scope="module", params=[1e5, 1e6, 1e7], ids=lambda s: f"shift{s:g}")
def translated_3d(request):
    """3D uniform points far from the origin, where the BLAS expansion's
    cancellation error exceeds the point spacing, and their brute-force
    sorted weights."""
    points = np.random.default_rng(0).random((1500, 3)) + request.param
    return points, np.sort(emst_bruteforce(points).edges.as_arrays()[2])


class TestTranslatedData:
    @pytest.mark.parametrize(
        "method", [m for m in EXACT_EMST_METHODS if m != "bruteforce"]
    )
    def test_exact_methods_equal_bruteforce(self, translated_3d, method):
        points, expected = translated_3d
        skip_unless_supported(method, "euclidean", points.shape[1])
        weights = np.sort(emst(points, method=method).edges.as_arrays()[2])
        assert weights.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("shift", [1e5, 1e6, 1e7])
    def test_delaunay_on_shifted_2d_points(self, shift):
        # Qhull exhausts its joggle retries on these points unless they are
        # first translated (exactly) next to the origin.
        points = np.random.default_rng(0).random((1200, 2)) + shift
        expected = np.sort(emst_bruteforce(points).edges.as_arrays()[2])
        weights = np.sort(emst(points, method="delaunay").edges.as_arrays()[2])
        assert weights.tobytes() == expected.tobytes()

    def test_translation_is_skipped_when_it_would_round(self):
        from repro.spatial.delaunay import _exact_translation

        points = np.array([[1.0, -4.0], [1.5, -3.0], [2.0, -2.0]])
        assert np.array_equal(_exact_translation(points), points - [1.0, -2.0])
        for spread in ([[1.0, 5.0], [2.5, 6.0], [2.0, 7.0]],
                       [[-1.0, 5.0], [1.0, 6.0], [0.5, 7.0]]):
            spread = np.array(spread)
            assert _exact_translation(spread) is spread

    def test_qhull_failure_is_a_typed_error(self, monkeypatch):
        from scipy.spatial import QhullError

        from repro.core.errors import InvalidPointSetError
        from repro.spatial import delaunay

        def failing(*args, **kwargs):
            raise QhullError("QH6229 simulated")

        monkeypatch.setattr(delaunay, "Delaunay", failing)
        points = np.random.default_rng(1).random((50, 2))
        with pytest.raises(InvalidPointSetError, match="Qhull"):
            emst(points, method="delaunay")


class TestEdgeCases:
    @pytest.mark.parametrize(
        "algorithm",
        FAST_METHODS + [emst_bruteforce],
        ids=lambda f: f.__name__,
    )
    def test_single_point(self, algorithm):
        result = algorithm(np.array([[1.0, 2.0]]))
        assert result.num_edges == 0
        assert result.is_spanning_tree()

    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    def test_two_points(self, algorithm):
        result = algorithm(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert result.num_edges == 1
        assert result.total_weight == pytest.approx(5.0)

    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    def test_collinear_points(self, algorithm):
        points = np.column_stack([np.arange(20.0), np.zeros(20)])
        result = algorithm(points)
        assert result.total_weight == pytest.approx(19.0)

    @pytest.mark.parametrize("algorithm", FAST_METHODS, ids=lambda f: f.__name__)
    def test_duplicate_points(self, algorithm):
        points = np.vstack([np.zeros((4, 2)), np.ones((4, 2)), [[0.5, 0.5]]])
        result = algorithm(points)
        expected = emst_bruteforce(points).total_weight
        assert result.total_weight == pytest.approx(expected)
        assert result.is_spanning_tree()

    def test_grid_points_known_weight(self):
        # A 5x5 unit grid has an MST of total weight 24 (24 unit edges).
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        points = np.column_stack([xs.ravel(), ys.ravel()])
        for algorithm in FAST_METHODS:
            assert algorithm(points).total_weight == pytest.approx(24.0)


class TestStatistics:
    def test_naive_reports_wspd_pairs(self, small_points_2d):
        result = emst_naive(small_points_2d)
        assert result.stats["wspd_pairs"] > 0
        assert result.stats["bccp_calls"] == result.stats["wspd_pairs"]

    def test_gfk_computes_fewer_bccps_than_naive(self, varden_points):
        subset = varden_points[:200]
        naive = emst_naive(subset)
        gfk = emst_gfk(subset)
        assert gfk.stats["bccp_calls"] <= naive.stats["bccp_calls"]

    def test_memogfk_materializes_fewer_pairs_than_naive(self, varden_points):
        subset = varden_points[:200]
        naive = emst_naive(subset)
        memo = emst_memogfk(subset)
        assert memo.stats["max_pairs_materialized"] < naive.stats["pairs_materialized"]

    def test_memogfk_round_count_logarithmic(self):
        points = np.random.default_rng(0).random((256, 2))
        result = emst_memogfk(points)
        assert result.stats["rounds"] <= 2 * int(np.log2(256)) + 2

    def test_gfk_beta_increment_mode(self):
        points = np.random.default_rng(1).random((60, 2))
        doubling = emst_gfk(points, beta_growth="double")
        incrementing = emst_gfk(points, beta_growth="increment")
        assert incrementing.total_weight == pytest.approx(doubling.total_weight)
        assert incrementing.stats["rounds"] >= doubling.stats["rounds"]

    def test_gfk_invalid_beta_growth(self):
        with pytest.raises(ValueError):
            emst_gfk(np.zeros((3, 2)), beta_growth="bogus")

    def test_phase_timings_present(self, small_points_2d):
        result = emst_memogfk(small_points_2d)
        assert any(key.startswith("time_") for key in result.stats)


class TestPublicAPI:
    def test_default_method_is_memogfk(self, small_points_2d):
        result = emst(small_points_2d)
        assert result.method == "memogfk"

    @pytest.mark.parametrize("method", sorted(EMST_METHODS))
    def test_all_registered_methods_run(self, method):
        points = np.random.default_rng(5).random((50, 2))
        result = emst(points, method=method)
        assert result.num_edges == 49

    def test_unknown_method_rejected(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            emst(small_points_2d, method="nope")

    def test_delaunay_rejects_3d(self, small_points_3d):
        with pytest.raises(InvalidParameterError):
            emst(small_points_3d, method="delaunay")

    def test_kwargs_forwarded(self, small_points_2d):
        result = emst(small_points_2d, method="dualtree-boruvka", leaf_size=4)
        assert result.is_spanning_tree()

    def test_wspd_methods_reject_multipoint_leaves(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            emst(small_points_2d, method="naive", leaf_size=4)

    @pytest.mark.parametrize("method", sorted(EMST_METHODS))
    def test_unknown_option_rejected(self, method, small_points_2d):
        with pytest.raises(InvalidParameterError, match="bogus.*num_threads"):
            emst(small_points_2d, method=method, bogus=123)

    def test_result_repr(self, small_points_2d):
        result = emst(small_points_2d)
        assert "memogfk" in repr(result)

    def test_edge_arrays_accessor(self, small_points_2d):
        endpoints, weights = emst(small_points_2d).edge_arrays()
        assert endpoints.shape == (len(small_points_2d) - 1, 2)
        assert weights.shape == (len(small_points_2d) - 1,)

    def test_threaded_naive_matches(self, small_points_2d):
        sequential = emst_naive(small_points_2d)
        threaded = emst_naive(small_points_2d, num_threads=4)
        assert threaded.total_weight == pytest.approx(sequential.total_weight)


def tie_heavy_points(dim):
    """Random points plus exact duplicates and a coarse lattice (n = 330)."""
    rng = np.random.default_rng(40 + dim)
    base = rng.random((200, dim))
    lattice = rng.integers(0, 4, size=(100, dim)) * 0.25
    return np.vstack([base, base[:30], lattice])


class TestDualTreeBoruvka:
    """The batched frontier Borůvka against the brute-force MST."""

    @pytest.mark.parametrize(
        "metric", ["euclidean", "manhattan", "chebyshev", "minkowski:3"]
    )
    @pytest.mark.parametrize(
        "name", ["tie-2d", "tie-7d", "collinear", "duplicates", "random-7d"]
    )
    def test_sorted_weights_equal_bruteforce(self, name, metric):
        points = {
            "tie-2d": lambda: tie_heavy_points(2),
            "tie-7d": lambda: tie_heavy_points(7),
            "collinear": lambda: np.column_stack(
                [np.linspace(0.0, 1.0, 120), np.zeros(120)]
            ),
            "duplicates": lambda: np.repeat(np.eye(3), 8, axis=0),
            "random-7d": lambda: np.random.default_rng(9).random((300, 7)),
        }[name]()
        result = emst_dualtree_boruvka(points, metric=metric)
        assert result.is_spanning_tree()
        got = np.sort(result.edges.as_arrays()[2])
        want = np.sort(emst_bruteforce(points, metric=metric).edges.as_arrays()[2])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 7])
    def test_identical_across_reruns_and_threads(self, dim):
        points = tie_heavy_points(dim)
        runs = [
            emst_dualtree_boruvka(points, num_threads=threads).edges.as_arrays()
            for threads in (1, 4, 1)
        ]
        for u, v, w in runs[1:]:
            assert u.tobytes() == runs[0][0].tobytes()
            assert v.tobytes() == runs[0][1].tobytes()
            assert w.tobytes() == runs[0][2].tobytes()
