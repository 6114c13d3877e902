"""Property-based tests (hypothesis) for the core invariants.

These complement the example-based tests with randomized coverage of the
library's central claims:

* every EMST variant produces a spanning tree of the same total weight as the
  brute-force reference, on arbitrary point sets;
* the WSPD is an exact realization (every unordered pair covered exactly once);
* the HDBSCAN* MST variants agree with the brute-force mutual-reachability MST;
* the ordered dendrogram's in-order leaf traversal reproduces Prim's order;
* union-find never loses or invents connectivity;
* prefix sums / list ranking match their sequential references.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.approx import approx_emst
from repro.core.errors import InvalidPointSetError
from repro.dendrogram import dendrogram_sequential, dendrogram_topdown, reachability_from_dendrogram, reachability_plot
from repro.emst import emst, emst_bruteforce, emst_gfk, emst_memogfk, emst_naive
from repro.estimators import EMST, HDBSCAN
from repro.hdbscan import core_distances, hdbscan_mst_bruteforce, hdbscan_mst_memogfk
from repro.mst import boruvka, kruskal, total_weight
from repro.parallel import UnionFind
from repro.spatial import KDTree
from repro.wspd import compute_wspd_ids
from repro.wspd.wspd import validate_wspd_realization

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def point_sets(min_points=2, max_points=40, max_dim=4):
    """Strategy producing small float point arrays with distinct scales."""
    return st.integers(min_points, max_points).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda d: arrays(
                dtype=np.float64,
                shape=(n, d),
                elements=st.floats(
                    min_value=-100.0, max_value=100.0, allow_nan=False, width=32
                ),
            )
        )
    )


class TestEMSTProperties:
    @SETTINGS
    @given(points=point_sets())
    def test_all_variants_match_bruteforce_weight(self, points):
        reference = emst_bruteforce(points).total_weight
        for algorithm in (emst_naive, emst_gfk, emst_memogfk):
            result = algorithm(points)
            assert result.is_spanning_tree()
            assert result.total_weight == pytest.approx(reference, rel=1e-6, abs=1e-6)

    @SETTINGS
    @given(points=point_sets(min_points=2, max_points=30))
    def test_memogfk_edge_weights_are_true_distances(self, points):
        result = emst_memogfk(points)
        for u, v, w in result.edges:
            assert w == pytest.approx(float(np.linalg.norm(points[u] - points[v])), abs=1e-9)


def _canonical_edge_set(result):
    return {(min(int(u), int(v)), max(int(u), int(v))) for u, v, _ in result.edges}


def _tree_adjacency(result, n):
    adjacency = [[] for _ in range(n)]
    for u, v, w in result.edges:
        adjacency[int(u)].append((int(v), float(w)))
        adjacency[int(v)].append((int(u), float(w)))
    return adjacency


def _path_max_weight(adjacency, source, target):
    """Bottleneck (maximum edge weight) of the unique tree path source→target."""
    stack = [(source, -1, 0.0)]
    while stack:
        node, parent, best = stack.pop()
        if node == target:
            return best
        for neighbor, weight in adjacency[node]:
            if neighbor != parent:
                stack.append((neighbor, node, max(best, weight)))
    raise AssertionError("tree is not connected")


class TestMSTStructuralProperties:
    """Cut/cycle-property spot checks and invariance under relabeling and
    rigid motion, on seeded random instances."""

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 35))
    def test_cycle_property(self, seed, n):
        # For any non-tree pair (u, v), every edge on the tree path between
        # u and v weighs at most d(u, v) — otherwise swapping would improve
        # the tree.
        points = np.random.default_rng(seed).random((n, 3))
        result = emst_memogfk(points)
        adjacency = _tree_adjacency(result, n)
        tree_edges = _canonical_edge_set(result)
        for u in range(0, n, 3):
            for v in range(u + 1, n, 2):
                if (u, v) in tree_edges:
                    continue
                direct = float(np.linalg.norm(points[u] - points[v]))
                assert _path_max_weight(adjacency, u, v) <= direct + 1e-9

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
    def test_cut_property(self, seed, n):
        # Each tree edge is a minimum-weight edge across the cut induced by
        # removing it.
        points = np.random.default_rng(seed).random((n, 3))
        result = emst_memogfk(points)
        edges = [(int(u), int(v), float(w)) for u, v, w in result.edges]
        for index, (u, v, w) in enumerate(edges):
            # Components of the tree minus this edge, via flood fill.
            adjacency = [[] for _ in range(n)]
            for j, (a, b, _) in enumerate(edges):
                if j != index:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
            side = np.zeros(n, dtype=bool)
            stack = [u]
            side[u] = True
            while stack:
                node = stack.pop()
                for neighbor in adjacency[node]:
                    if not side[neighbor]:
                        side[neighbor] = True
                        stack.append(neighbor)
            crossing = np.linalg.norm(
                points[side][:, None, :] - points[~side][None, :, :], axis=2
            )
            assert w <= float(crossing.min()) + 1e-9

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        # Relabeling the input points relabels the tree and nothing else.
        rng = np.random.default_rng(seed)
        points = rng.random((40, 3))
        permutation = rng.permutation(40)
        original = emst(points)
        permuted = emst(points[permutation])
        assert permuted.total_weight == pytest.approx(
            original.total_weight, rel=1e-9
        )
        mapped = {
            (min(permutation[u], permutation[v]), max(permutation[u], permutation[v]))
            for u, v in _canonical_edge_set(permuted)
        }
        assert mapped == _canonical_edge_set(original)

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_rigid_motion_invariance(self, seed):
        # Euclidean distances — and therefore the MST — are invariant under
        # rotation plus translation.
        rng = np.random.default_rng(seed)
        points = rng.random((40, 3))
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = points @ rotation.T + rng.normal(size=3)
        original = emst(points)
        transformed = emst(moved)
        assert transformed.total_weight == pytest.approx(
            original.total_weight, rel=1e-9
        )
        assert _canonical_edge_set(transformed) == _canonical_edge_set(original)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), epsilon=st.sampled_from([0.1, 0.5, 1.0]))
    def test_approx_weight_bound_random_instances(self, seed, epsilon):
        points = np.random.default_rng(seed).random((60, 3))
        exact = emst(points).total_weight
        result = approx_emst(points, epsilon)
        assert result.is_spanning_tree()
        assert exact - 1e-9 <= result.total_weight <= (1 + epsilon) * exact + 1e-9


class TestDegenerateInputs:
    """n ∈ {0, 1, 2} and duplicate points through every public entry."""

    def test_empty_input_rejected_everywhere(self):
        empty = np.empty((0, 2))
        with pytest.raises(InvalidPointSetError):
            emst(empty)
        with pytest.raises(InvalidPointSetError):
            approx_emst(empty, 0.5)
        with pytest.raises(InvalidPointSetError):
            EMST().fit(empty)
        with pytest.raises(InvalidPointSetError):
            HDBSCAN().fit(empty)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_single_point(self, epsilon):
        point = np.array([[0.25, 0.75]])
        result = approx_emst(point, epsilon)
        assert result.num_edges == 0 and result.num_points == 1
        assert emst(point).num_edges == 0
        model = EMST(epsilon=epsilon).fit(point)
        assert model.edges_.shape == (0, 2) and model.total_weight_ == 0.0
        labels = HDBSCAN(min_pts=1).fit_predict(point)
        assert labels.tolist() == [-1]

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_two_points(self, epsilon):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        result = approx_emst(points, epsilon)
        assert result.num_edges == 1
        assert result.total_weight == pytest.approx(5.0)
        assert emst(points).total_weight == pytest.approx(5.0)
        model = EMST(epsilon=epsilon, n_clusters=2).fit(points)
        assert model.total_weight_ == pytest.approx(5.0)
        assert set(model.labels_.tolist()) == {0, 1}

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_duplicate_points(self, epsilon):
        points = np.zeros((7, 3))
        result = approx_emst(points, epsilon)
        assert result.is_spanning_tree()
        assert result.total_weight == 0.0
        assert emst(points).total_weight == 0.0
        model = EMST(epsilon=epsilon).fit(points)
        assert model.total_weight_ == 0.0
        labels = HDBSCAN(min_pts=3, min_cluster_size=2).fit_predict(points)
        assert labels.shape == (7,)

    def test_mixed_duplicates_and_distinct(self):
        points = np.array(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]
        )
        exact = emst(points).total_weight
        for epsilon in (0.1, 1.0):
            result = approx_emst(points, epsilon)
            assert result.is_spanning_tree()
            assert exact - 1e-12 <= result.total_weight <= (1 + epsilon) * exact + 1e-9


class TestWSPDProperties:
    @SETTINGS
    @given(points=point_sets(min_points=2, max_points=30, max_dim=3))
    def test_realization_exact_cover(self, points):
        tree = KDTree(points, leaf_size=1)
        assert validate_wspd_realization(tree, *compute_wspd_ids(tree))


class TestHDBSCANProperties:
    @SETTINGS
    @given(points=point_sets(min_points=5, max_points=35, max_dim=3), min_pts=st.integers(1, 5))
    def test_memogfk_matches_bruteforce(self, points, min_pts):
        min_pts = min(min_pts, points.shape[0])
        reference = hdbscan_mst_bruteforce(points, min_pts).total_weight
        result = hdbscan_mst_memogfk(points, min_pts)
        assert result.is_spanning_tree()
        assert result.total_weight == pytest.approx(reference, rel=1e-6, abs=1e-6)

    @SETTINGS
    @given(points=point_sets(min_points=4, max_points=30, max_dim=3))
    def test_core_distances_bounded_by_diameter(self, points):
        min_pts = min(3, points.shape[0])
        core = core_distances(points, min_pts)
        diameter = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
        assert np.all(core >= 0)
        assert np.all(core <= diameter + 1e-9)


class TestDendrogramProperties:
    @SETTINGS
    @given(
        n=st.integers(3, 40),
        seed=st.integers(0, 10_000),
        start_fraction=st.floats(0.0, 0.999),
    )
    def test_topdown_reproduces_prim_order(self, n, seed, start_fraction):
        rng = np.random.default_rng(seed)
        # Random tree with distinct weights.
        weights = rng.permutation(n - 1) + rng.random(n - 1) * 0.5
        edges = [
            (int(rng.integers(0, i)), i, float(weights[i - 1])) for i in range(1, n)
        ]
        start = int(start_fraction * n)
        dendrogram = dendrogram_topdown(edges, n, start=start)
        assert dendrogram.is_valid()
        order, reach = reachability_from_dendrogram(dendrogram)
        order_ref, reach_ref = reachability_plot(edges, n, start=start)
        assert np.array_equal(order, order_ref)
        assert np.allclose(reach[1:], reach_ref[1:])

    @SETTINGS
    @given(n=st.integers(2, 50), seed=st.integers(0, 10_000))
    def test_sequential_and_topdown_same_heights(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = [
            (int(rng.integers(0, i)), i, float(rng.random())) for i in range(1, n)
        ]
        heights_a = sorted(dendrogram_sequential(edges, n).heights().tolist())
        heights_b = sorted(dendrogram_topdown(edges, n).heights().tolist())
        assert np.allclose(heights_a, heights_b)


class TestSubstrateProperties:
    @SETTINGS
    @given(
        n=st.integers(2, 60),
        operations=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=80),
    )
    def test_union_find_matches_naive_partition(self, n, operations):
        union_find = UnionFind(n)
        partition = {i: {i} for i in range(n)}
        for u, v in operations:
            u, v = u % n, v % n
            union_find.union(u, v)
            if partition[u] is not partition[v]:
                merged = partition[u] | partition[v]
                for member in merged:
                    partition[member] = merged
        for i in range(0, n, 3):
            for j in range(0, n, 5):
                assert union_find.connected(i, j) == (j in partition[i])

    @SETTINGS
    @given(
        n=st.integers(2, 30),
        extra=st.integers(0, 60),
        seed=st.integers(0, 10_000),
    )
    def test_kruskal_boruvka_agree_on_random_graphs(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        edges = [(i - 1, i, float(rng.random())) for i in range(1, n)]
        for _ in range(extra):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v), float(rng.random())))
        assert total_weight(kruskal(edges, n)) == pytest.approx(
            total_weight(boruvka(edges, n))
        )
