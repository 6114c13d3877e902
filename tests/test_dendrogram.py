"""Tests for dendrogram construction, reachability plots and cluster extraction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.dendrogram import (
    Dendrogram,
    clusters_at_height,
    cut_num_clusters,
    dbscan_star_labels,
    dendrogram_sequential,
    dendrogram_topdown,
    reachability_from_dendrogram,
    reachability_plot,
    single_linkage,
)
from repro.dendrogram import topdown
from repro.dendrogram.sequential import tree_vertex_distances
from repro.dendrogram.topdown import connected_components
from repro.dynamic import fit_dynamic
from repro.emst import emst_bruteforce, emst_memogfk
from repro.hdbscan import core_distances, hdbscan, hdbscan_mst_memogfk
from repro.mst import kruskal
from repro.parallel import UnionFind

BUILDERS = [dendrogram_sequential, dendrogram_topdown]


def random_tree_edges(n, seed, weight_scale=1.0):
    """A random spanning tree with distinct random weights."""
    rng = np.random.default_rng(seed)
    weights = rng.permutation(n - 1) * weight_scale + rng.random(n - 1) * 0.001
    return [
        (int(rng.integers(0, i)), i, float(weights[i - 1])) for i in range(1, n)
    ]


class TestStructure:
    def test_single_point(self):
        dendrogram = Dendrogram(1)
        assert dendrogram.is_valid()
        assert dendrogram.num_internal == 0

    def test_add_internal_assigns_ids(self):
        dendrogram = Dendrogram(3)
        first = dendrogram.add_internal(0, 1, 1.0, (0, 1))
        second = dendrogram.add_internal(first, 2, 2.0, (1, 2))
        assert (first, second) == (3, 4)
        dendrogram.set_root(second)
        assert dendrogram.is_valid()

    def test_node_size(self):
        dendrogram = Dendrogram(3)
        first = dendrogram.add_internal(0, 1, 1.0, (0, 1))
        second = dendrogram.add_internal(first, 2, 2.0, (1, 2))
        assert dendrogram.node_size(0) == 1
        assert dendrogram.node_size(first) == 2
        assert dendrogram.node_size(second) == 3

    def test_children_and_height_accessors(self):
        dendrogram = Dendrogram(2)
        node = dendrogram.add_internal(0, 1, 5.0, (0, 1))
        assert dendrogram.children(node) == (0, 1)
        assert dendrogram.height(node) == 5.0
        assert dendrogram.edge(node) == (0, 1)

    def test_leaf_queried_as_internal_raises(self):
        dendrogram = Dendrogram(2)
        with pytest.raises(InvalidParameterError):
            dendrogram.height(0)

    def test_invalid_when_heights_not_monotone(self):
        dendrogram = Dendrogram(3)
        first = dendrogram.add_internal(0, 1, 5.0, (0, 1))
        second = dendrogram.add_internal(first, 2, 1.0, (1, 2))  # lower than child
        dendrogram.set_root(second)
        assert not dendrogram.is_valid()

    def test_linkage_matrix_shape(self):
        edges = random_tree_edges(20, seed=0)
        dendrogram = dendrogram_sequential(edges, 20)
        matrix = dendrogram.to_linkage_matrix()
        assert matrix.shape == (19, 4)
        assert np.all(np.diff(matrix[:, 2]) >= -1e-12)
        assert matrix[-1, 3] == 20

    def test_scipy_accepts_linkage_matrix(self):
        from scipy.cluster.hierarchy import fcluster

        edges = random_tree_edges(30, seed=1)
        matrix = dendrogram_sequential(edges, 30).to_linkage_matrix()
        labels = fcluster(matrix, t=4, criterion="maxclust")
        assert len(set(labels.tolist())) <= 4


class TestVertexDistances:
    def test_path_graph(self):
        edges = [(i, i + 1, 1.0) for i in range(4)]
        distances = tree_vertex_distances(edges, 5, 0)
        assert list(distances) == [0, 1, 2, 3, 4]

    def test_star_graph(self):
        edges = [(0, i, 1.0) for i in range(1, 6)]
        distances = tree_vertex_distances(edges, 6, 3)
        assert distances[3] == 0
        assert distances[0] == 1
        assert all(distances[i] == 2 for i in (1, 2, 4, 5))

    def test_matches_bfs_reference_on_random_trees(self):
        # Reference: textbook adjacency-list BFS.
        for seed in range(3):
            n = 200
            edges = random_tree_edges(n, seed)
            adjacency = [[] for _ in range(n)]
            for u, v, _ in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
            expected = np.full(n, -1)
            expected[0] = 0
            frontier = [0]
            while frontier:
                nxt = []
                for vertex in frontier:
                    for neighbor in adjacency[vertex]:
                        if expected[neighbor] < 0:
                            expected[neighbor] = expected[vertex] + 1
                            nxt.append(neighbor)
                frontier = nxt
            assert np.array_equal(tree_vertex_distances(edges, n, 0), expected)

    def test_accepts_array_input(self):
        edges = [(i, i + 1, 1.0) for i in range(4)]
        u = np.array([e[0] for e in edges])
        v = np.array([e[1] for e in edges])
        w = np.array([e[2] for e in edges])
        assert np.array_equal(
            tree_vertex_distances((u, v, w), 5, 2),
            tree_vertex_distances(edges, 5, 2),
        )


class TestEdgeInputForms:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_edgelist_and_tuples_build_identical_dendrograms(self, builder):
        from repro.mst import EdgeList

        n = 60
        tuple_edges = random_tree_edges(n, seed=20)
        edge_list = EdgeList(tuple_edges)
        from_tuples = builder(tuple_edges, n)
        from_edgelist = builder(edge_list, n)
        assert np.array_equal(
            from_tuples.to_linkage_matrix(), from_edgelist.to_linkage_matrix()
        )
        assert from_tuples.root == from_edgelist.root


class TestConstruction:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_valid_on_random_trees(self, builder):
        for seed in range(3):
            n = 60
            edges = random_tree_edges(n, seed)
            dendrogram = builder(edges, n)
            assert dendrogram.is_valid()

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_heights_are_edge_weights(self, builder):
        n = 40
        edges = random_tree_edges(n, seed=5)
        dendrogram = builder(edges, n)
        assert sorted(dendrogram.heights().tolist()) == sorted(
            edge[2] for edge in edges
        )

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_root_height_is_max_weight(self, builder):
        n = 30
        edges = random_tree_edges(n, seed=6)
        dendrogram = builder(edges, n)
        assert dendrogram.height(dendrogram.root) == pytest.approx(
            max(edge[2] for edge in edges)
        )

    def test_all_builders_agree_on_reachability(self):
        n = 80
        edges = random_tree_edges(n, seed=7)
        reference = None
        for builder in BUILDERS:
            order, reach = reachability_from_dendrogram(builder(edges, n, start=0))
            if reference is None:
                reference = (order, reach)
            else:
                assert np.array_equal(order, reference[0])
                assert np.allclose(reach[1:], reference[1][1:])

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_wrong_edge_count_rejected(self, builder):
        with pytest.raises(InvalidParameterError):
            builder([(0, 1, 1.0)], 3)

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda f: f.__name__)
    def test_two_points(self, builder):
        dendrogram = builder([(0, 1, 3.0)], 2)
        assert dendrogram.num_internal == 1
        assert dendrogram.height(dendrogram.root) == 3.0

    def test_topdown_heavy_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            dendrogram_topdown([(0, 1, 1.0)], 2, heavy_fraction=0.0)

    @pytest.mark.parametrize("heavy_fraction", [0.05, 0.1, 0.3, 0.5, 1.0])
    def test_topdown_heavy_fraction_does_not_change_result(self, heavy_fraction):
        n = 70
        edges = random_tree_edges(n, seed=9)
        reference = reachability_from_dendrogram(dendrogram_sequential(edges, n))
        result = reachability_from_dendrogram(
            dendrogram_topdown(edges, n, heavy_fraction=heavy_fraction)
        )
        assert np.array_equal(result[0], reference[0])

    @pytest.mark.parametrize("base_size", [1, 4, 16, 128])
    def test_topdown_base_size_does_not_change_result(self, base_size):
        n = 50
        edges = random_tree_edges(n, seed=10)
        reference = reachability_from_dendrogram(dendrogram_sequential(edges, n))
        result = reachability_from_dendrogram(
            dendrogram_topdown(edges, n, base_size=base_size)
        )
        assert np.array_equal(result[0], reference[0])

    def test_path_with_increasing_weights(self):
        # Worst case for the warm-up algorithm: a path with sorted weights.
        n = 40
        edges = [(i, i + 1, float(i + 1)) for i in range(n - 1)]
        for builder in BUILDERS:
            dendrogram = builder(edges, n)
            assert dendrogram.is_valid()
            order, _ = reachability_from_dendrogram(dendrogram)
            assert list(order) == list(range(n))


def union_find_labels(u, v, num_nodes):
    """Reference light-component labelling: a sequential union-find sweep."""
    forest = UnionFind(num_nodes)
    forest.union_many(u, v)
    return forest.roots()


@st.composite
def forests(draw):
    """Random forests, long paths and stars, in shuffled edge order."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    shape = draw(st.sampled_from(["forest", "path", "star"]))
    if shape == "path":
        u, v = perm[:-1], perm[1:]
    elif shape == "star":
        u, v = np.full(n - 1, perm[0]), perm[1:]
    else:
        u = perm[rng.integers(0, np.arange(1, n))] if n > 1 else perm[:0]
        v = perm[1:]
        keep = rng.random(n - 1) < draw(st.floats(0.0, 1.0))
        u, v = u[keep], v[keep]
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    order = rng.permutation(u.size)
    return u[order].astype(np.int64), v[order].astype(np.int64), n


class TestLightComponentLabels:
    """The vectorized labelling partitions nodes exactly like union-find."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=forests())
    def test_partition_matches_union_find(self, graph):
        u, v, n = graph
        labels = connected_components(u, v, n)
        reference = union_find_labels(u, v, n)
        # Labelling each union-find class by its least node id gives the
        # same partition, and distinct classes have distinct least ids.
        least = np.full(n, n, dtype=np.int64)
        np.minimum.at(least, reference, np.arange(n))
        assert np.array_equal(labels, least[reference])

    @pytest.mark.parametrize("min_pts", [1, 4])
    def test_topdown_is_byte_identical_to_union_find(self, monkeypatch, min_pts):
        # Integer grid with duplicated rows: the MR-MST is almost all ties.
        grid = np.stack(
            np.meshgrid(np.arange(25.0), np.arange(25.0)), axis=-1
        ).reshape(-1, 2)
        points = np.concatenate([grid, grid[::3]])
        state = fit_dynamic(points, min_pts=min_pts)
        edges = (state.mst_u, state.mst_v, state.mst_w)
        assert np.unique(state.mst_w).size < state.mst_w.size // 20
        vectorized = dendrogram_topdown(edges, state.num_points)
        monkeypatch.setattr(topdown, "connected_components", union_find_labels)
        reference = dendrogram_topdown(edges, state.num_points)
        got, want = vectorized.state_arrays(), reference.state_arrays()
        assert set(got) == set(want)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name


@st.composite
def weighted_trees(draw):
    """Spanning trees (random attachment, paths, stars) with tie-heavy weights."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    shape = draw(st.sampled_from(["tree", "path", "star"]))
    if shape == "path":
        u, v = perm[:-1], perm[1:]
    elif shape == "star":
        u, v = np.full(n - 1, perm[0]), perm[1:]
    else:
        u, v = perm[rng.integers(0, np.arange(1, n))], perm[1:]
    flip = rng.random(n - 1) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    classes = draw(st.sampled_from([1, 3, 10, None]))
    if classes is None:
        w = rng.random(n - 1)
    else:
        w = rng.integers(0, classes, n - 1).astype(np.float64)
    order = rng.permutation(n - 1)
    return u[order].astype(np.int64), v[order].astype(np.int64), w[order], n


def assert_same_dendrogram(got, want):
    got, want = got.state_arrays(), want.state_arrays()
    assert set(got) == set(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def assert_topdown_equals_sequential(u, v, w, n):
    reference = dendrogram_sequential((u, v, w), n)
    for heavy_fraction in (0.05, 0.1, 0.5, 1.0):
        for base_size in (1, 32, n):
            assert_same_dendrogram(
                dendrogram_topdown(
                    (u, v, w), n, heavy_fraction=heavy_fraction, base_size=base_size
                ),
                reference,
            )


class TestTopDownEqualsSequential:
    """Node ``n + r`` belongs to the edge of stable weight rank ``r``, so the
    level-synchronous top-down build is the sequential sweep's dendrogram
    byte for byte, whatever the heavy fraction and base size."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tree=weighted_trees())
    def test_random_trees(self, tree):
        assert_topdown_equals_sequential(*tree)

    @pytest.mark.parametrize("min_pts", [1, 4, 10])
    def test_tie_heavy_mr_mst(self, min_pts):
        grid = np.stack(
            np.meshgrid(np.arange(20.0), np.arange(20.0)), axis=-1
        ).reshape(-1, 2)
        state = fit_dynamic(np.concatenate([grid, grid[::4]]), min_pts=min_pts)
        assert_topdown_equals_sequential(
            state.mst_u, state.mst_v, state.mst_w, state.num_points
        )

    def test_long_chain(self):
        n = 50_000
        u = np.arange(n - 1, dtype=np.int64)
        assert_topdown_equals_sequential(u, u + 1, u.astype(np.float64), n)

    def test_cycle_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="spanning tree"):
            dendrogram_topdown([(0, 1, 1.0), (1, 0, 2.0)], 3)

    def test_sequential_rejects_cycle(self):
        with pytest.raises(InvalidParameterError, match="spanning tree"):
            dendrogram_sequential([(0, 1, 1.0), (1, 0, 2.0)], 3)


class TestFitsUseTheSameDendrogram:
    """The fits build their dendrogram with the sequential sweep; it is the
    paper's top-down dendrogram byte for byte."""

    def test_single_linkage(self, clustered_points):
        points, _ = clustered_points
        result = single_linkage(points, start=5)
        assert_same_dendrogram(
            result.dendrogram,
            dendrogram_topdown(result.emst.edges, points.shape[0], start=5),
        )

    def test_hdbscan(self, clustered_points):
        points, _ = clustered_points
        result = hdbscan(points, 5, start=3)
        assert_same_dendrogram(
            result.dendrogram,
            dendrogram_topdown(result.mst.edges, points.shape[0], start=3),
        )

    def test_heavy_fraction_is_not_a_fit_option(self, small_points_2d):
        with pytest.raises(InvalidParameterError):
            hdbscan(small_points_2d, 5, heavy_fraction=0.1)


class TestScipyOracle:
    """SciPy's single linkage over the same distances is an independent oracle."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("heavy_fraction", [0.1, 0.5])
    def test_linkage_and_cophenet_match_scipy(self, seed, heavy_fraction):
        from scipy.cluster.hierarchy import cophenet, is_valid_linkage, linkage
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 150))
        points = rng.random((n, 3))
        distances = pdist(points)
        assert np.unique(distances).size == distances.size  # tie-free
        i, j = np.triu_indices(n, 1)
        mst = kruskal((i, j, distances), n)
        matrix = dendrogram_topdown(
            mst, n, heavy_fraction=heavy_fraction, base_size=4
        ).to_linkage_matrix()
        assert is_valid_linkage(matrix)
        expected = cophenet(linkage(distances, "single"))
        assert cophenet(matrix).tobytes() == expected.tobytes()


class TestReachability:
    @pytest.mark.parametrize("start", [0, 7, 33])
    def test_matches_prim_from_any_start(self, start):
        points = np.random.default_rng(3).random((60, 2))
        tree = emst_bruteforce(points)
        edges = list(tree.edges)
        dendrogram = dendrogram_topdown(edges, 60, start=start)
        order, reach = reachability_from_dendrogram(dendrogram)
        order_ref, reach_ref = reachability_plot(edges, 60, start=start)
        assert order[0] == start
        assert np.array_equal(order, order_ref)
        assert np.allclose(reach[1:], reach_ref[1:])

    def test_first_value_is_infinite(self):
        edges = random_tree_edges(10, seed=11)
        _, reach = reachability_from_dendrogram(dendrogram_sequential(edges, 10))
        assert np.isinf(reach[0])

    def test_on_hdbscan_mst(self, clustered_points):
        points, _ = clustered_points
        mst = hdbscan_mst_memogfk(points, 5)
        edges = list(mst.edges)
        order, reach = reachability_plot(edges, len(points), start=0)
        # The reachability plot of two well-separated blobs has exactly one
        # large jump (crossing between the blobs).
        finite = reach[1:]
        assert np.sum(finite > 0.5) == 1

    def test_reachability_plot_rejects_incomplete_tree(self):
        with pytest.raises(InvalidParameterError):
            reachability_plot([(0, 1, 1.0)], 3, start=0)


class TestExtraction:
    def test_clusters_at_height_zero_are_singletons(self):
        edges = random_tree_edges(12, seed=12)
        dendrogram = dendrogram_sequential(edges, 12)
        labels = clusters_at_height(dendrogram, -1.0)
        assert len(set(labels.tolist())) == 12

    def test_clusters_at_max_height_single_cluster(self):
        edges = random_tree_edges(12, seed=13)
        dendrogram = dendrogram_sequential(edges, 12)
        labels = clusters_at_height(dendrogram, max(e[2] for e in edges))
        assert set(labels.tolist()) == {0}

    def test_cluster_count_monotone_in_epsilon(self):
        edges = random_tree_edges(40, seed=14)
        dendrogram = dendrogram_sequential(edges, 40)
        counts = [
            len(set(clusters_at_height(dendrogram, eps).tolist()))
            for eps in np.linspace(0.0, 40.0, 9)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_cut_matches_component_structure(self):
        # Cutting the dendrogram at eps must equal connected components of the
        # tree restricted to edges <= eps.
        from repro.parallel import UnionFind

        n = 50
        edges = random_tree_edges(n, seed=15)
        dendrogram = dendrogram_sequential(edges, n)
        for eps in (5.0, 20.0, 35.0):
            labels = clusters_at_height(dendrogram, eps)
            union_find = UnionFind(n)
            for u, v, w in edges:
                if w <= eps:
                    union_find.union(u, v)
            components = union_find.component_labels()
            # Same partition: points share a label iff they share a component.
            for i in range(0, n, 7):
                for j in range(0, n, 11):
                    assert (labels[i] == labels[j]) == (components[i] == components[j])

    def test_cut_num_clusters_exact_counts(self):
        edges = random_tree_edges(30, seed=16)
        dendrogram = dendrogram_sequential(edges, 30)
        for k in (1, 2, 5, 10, 30):
            labels = cut_num_clusters(dendrogram, k)
            assert len(set(labels.tolist())) == k

    def test_cut_num_clusters_clamped(self):
        edges = random_tree_edges(10, seed=17)
        dendrogram = dendrogram_sequential(edges, 10)
        labels = cut_num_clusters(dendrogram, 50)
        assert len(set(labels.tolist())) == 10

    def test_cut_num_clusters_invalid(self):
        dendrogram = dendrogram_sequential([(0, 1, 1.0)], 2)
        with pytest.raises(InvalidParameterError):
            cut_num_clusters(dendrogram, 0)

    def test_dbscan_star_labels_consistent_with_bruteforce_dbscan(self):
        # Reference DBSCAN*: connected components of the eps-mutual-reachability
        # graph restricted to core points.
        from repro.hdbscan import mutual_reachability_matrix
        from repro.parallel import UnionFind

        points = np.random.default_rng(18).random((80, 2))
        min_pts, eps = 5, 0.25
        core = core_distances(points, min_pts)
        mst = hdbscan_mst_memogfk(points, min_pts, core_dists=core)
        labels = dbscan_star_labels(mst.edges, core, eps)

        matrix = mutual_reachability_matrix(points, core)
        is_core = core <= eps
        union_find = UnionFind(80)
        for i in range(80):
            for j in range(i + 1, 80):
                if is_core[i] and is_core[j] and matrix[i, j] <= eps:
                    union_find.union(i, j)
        reference = union_find.component_labels()
        for i in range(80):
            for j in range(80):
                if is_core[i] and is_core[j]:
                    assert (labels[i] == labels[j]) == (reference[i] == reference[j])
                elif not is_core[i]:
                    assert labels[i] == -1


class TestSingleLinkage:
    def test_result_contains_emst_and_dendrogram(self, small_points_2d):
        result = single_linkage(small_points_2d)
        assert result.emst.is_spanning_tree()
        assert result.dendrogram.is_valid()

    def test_labels_k(self, clustered_points):
        points, truth = clustered_points
        result = single_linkage(points)
        labels = result.labels_k(2)
        assert len(set(labels.tolist())) == 2
        # Single linkage separates the two far-apart blobs perfectly.
        assert len(set(labels[truth == 0].tolist())) == 1
        assert len(set(labels[truth == 1].tolist())) == 1

    def test_labels_at_epsilon(self, clustered_points):
        points, _ = clustered_points
        result = single_linkage(points)
        labels = result.labels_at(0.3)
        assert len(set(labels.tolist())) == 2

    def test_method_forwarding(self, small_points_2d):
        result = single_linkage(small_points_2d, method="naive")
        expected = emst_memogfk(small_points_2d).total_weight
        assert result.emst.total_weight == pytest.approx(expected)

    def test_stats_contain_timings(self, small_points_2d):
        result = single_linkage(small_points_2d)
        assert "time_emst" in result.stats
        assert "time_dendrogram" in result.stats
