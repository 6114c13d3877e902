"""Tests for the flat structure-of-arrays kd-tree engine."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.parallel.unionfind import UnionFind
from repro.spatial import FlatKDTree, KDTree, knn
from repro.spatial.knn import knn_bruteforce
from repro.wspd import compute_wspd_ids, well_separated_mask

F32_SETS_PATH = Path(__file__).parent / "data" / "knn_f32_neighbour_sets.npz"


def reference_leaves(points, leaf_size):
    """Leaf point sets of the spatial-median split rule, by recursion.

    Split the widest box dimension at its midpoint; fall back to an object
    median when every point lands on one side, and to a positional halve
    when all points coincide.
    """
    leaves = []
    stack = [np.arange(len(points))]
    while stack:
        idx = stack.pop()
        if idx.size <= leaf_size:
            leaves.append(tuple(sorted(idx.tolist())))
            continue
        coords = points[idx]
        lower, upper = coords.min(axis=0), coords.max(axis=0)
        dim = int(np.argmax(upper - lower))
        half = idx.size // 2
        if upper[dim] <= lower[dim]:
            stack += [idx[:half], idx[half:]]
            continue
        mask = coords[:, dim] < (lower[dim] + upper[dim]) * 0.5
        if mask.all() or not mask.any():
            order = np.argsort(coords[:, dim], kind="stable")
            stack += [idx[order[:half]], idx[order[half:]]]
        else:
            stack += [idx[mask], idx[~mask]]
    return sorted(leaves)


def recursive_wspd(flat, s=2.0):
    """Algorithm 1 as written: one FIND_PAIR recursion per internal node.

    Each pair is oriented larger sphere first; an unseparated pair splits its
    larger node (the other one if that is a leaf), and two unseparated
    leaves (duplicate points) are recorded anyway.
    """
    pairs = set()

    def find_pair(a, b):
        if flat.node_radius[a] < flat.node_radius[b]:
            a, b = b, a
        if well_separated_mask(flat, np.array([a]), np.array([b]), s)[0]:
            pairs.add((a, b))
            return
        if flat.left_child[a] < 0:
            a, b = b, a
        if flat.left_child[a] < 0:
            pairs.add((a, b))
            return
        find_pair(int(flat.left_child[a]), b)
        find_pair(int(flat.right_child[a]), b)

    for node in np.flatnonzero(flat.left_child >= 0):
        find_pair(int(flat.left_child[node]), int(flat.right_child[node]))
    return pairs


def exact_knn_reference(points, queries, k):
    diffs = queries[:, None, :] - points[None, :, :]
    full = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    return np.sort(full, axis=1)[:, :k]


class TestFlatConstruction:
    def test_perm_is_a_permutation(self, small_points_2d):
        flat = FlatKDTree(small_points_2d, leaf_size=4)
        assert sorted(flat.perm.tolist()) == list(range(len(small_points_2d)))

    def test_leaves_tile_the_permutation(self, small_points_3d):
        flat = FlatKDTree(small_points_3d, leaf_size=2)
        leaves = flat.leaf_ids()
        order = np.argsort(flat.node_start[leaves])
        starts = flat.node_start[leaves][order]
        ends = flat.node_end[leaves][order]
        assert starts[0] == 0
        assert ends[-1] == len(small_points_3d)
        assert np.array_equal(starts[1:], ends[:-1])

    def test_bounding_arrays_are_tight(self, small_points_3d):
        flat = FlatKDTree(small_points_3d, leaf_size=4)
        for node in range(flat.num_nodes):
            segment = small_points_3d[flat.point_indices(node)]
            assert np.allclose(flat.node_lower[node], segment.min(axis=0))
            assert np.allclose(flat.node_upper[node], segment.max(axis=0))

    def test_children_partition_parent_segment(self, small_points_2d):
        flat = FlatKDTree(small_points_2d, leaf_size=1)
        for node in range(flat.num_nodes):
            left = int(flat.left_child[node])
            right = int(flat.right_child[node])
            if left < 0:
                continue
            assert flat.node_start[left] == flat.node_start[node]
            assert flat.node_end[left] == flat.node_start[right]
            assert flat.node_end[right] == flat.node_end[node]

    def test_same_structure_as_legacy_object_tree(self, small_points_2d):
        """The level-synchronous build implements the per-node split rule
        of the original object tree (:func:`reference_leaves`)."""
        points = np.vstack([small_points_2d, small_points_2d[:10], np.zeros((4, 2))])
        for leaf_size in (1, 3):
            flat = FlatKDTree(points, leaf_size=leaf_size)
            flat_leaves = sorted(
                tuple(sorted(flat.point_indices(int(i)).tolist()))
                for i in flat.leaf_ids()
            )
            assert flat_leaves == reference_leaves(points, leaf_size)

    def test_duplicate_points_terminate(self):
        flat = FlatKDTree(np.zeros((16, 3)), leaf_size=1)
        assert np.all(flat.node_sizes[flat.leaf_ids()] == 1)

    def test_single_point(self):
        flat = FlatKDTree(np.array([[1.0, 2.0]]))
        assert flat.num_nodes == 1
        assert flat.height == 0

    def test_invalid_leaf_size(self):
        with pytest.raises(InvalidParameterError):
            FlatKDTree(np.zeros((4, 2)), leaf_size=0)

    def test_pickle_roundtrip(self, small_points_2d):
        """Flat arrays are picklable/shareable, unlike node-object trees."""
        flat = FlatKDTree(small_points_2d, leaf_size=4)
        flat.annotate_core_distances(np.random.default_rng(0).random(len(small_points_2d)))
        clone = pickle.loads(pickle.dumps(flat))
        assert np.array_equal(clone.perm, flat.perm)
        assert np.array_equal(clone.left_child, flat.left_child)
        assert np.array_equal(clone.cd_min, flat.cd_min)


class TestBatchKnn:
    def test_exact_against_direct_reference(self, small_points_3d):
        flat = FlatKDTree(small_points_3d, leaf_size=8)
        _, distances = flat.query_knn(small_points_3d, 5)
        reference = exact_knn_reference(small_points_3d, small_points_3d, 5)
        assert np.allclose(distances, reference, rtol=1e-12, atol=0)

    def test_indices_consistent_with_distances(self, small_points_2d):
        flat = FlatKDTree(small_points_2d, leaf_size=4)
        indices, distances = flat.query_knn(small_points_2d, 4)
        gathered = small_points_2d[indices] - small_points_2d[:, None, :]
        recomputed = np.sqrt(np.einsum("ijk,ijk->ij", gathered, gathered))
        assert np.allclose(recomputed, distances, rtol=1e-12, atol=0)

    def test_external_queries(self, small_points_2d):
        flat = FlatKDTree(small_points_2d, leaf_size=4)
        queries = np.random.default_rng(9).random((13, 2))
        _, distances = flat.query_knn(queries, 3)
        reference = exact_knn_reference(small_points_2d, queries, 3)
        assert np.allclose(distances, reference, rtol=1e-12, atol=0)

    def test_k_equals_n_on_tiny_leaves(self):
        points = np.random.default_rng(4).random((12, 2))
        flat = FlatKDTree(points, leaf_size=1)
        _, distances = flat.query_knn(points, 12)
        assert np.allclose(
            distances, exact_knn_reference(points, points, 12), rtol=1e-12, atol=0
        )

    def test_duplicates(self):
        points = np.zeros((10, 2))
        flat = FlatKDTree(points, leaf_size=2)
        _, distances = flat.query_knn(points, 4)
        assert np.allclose(distances, 0.0)


def tie_points():
    """Random 2D points plus exact duplicates, a collinear run and a lattice."""
    base = np.random.default_rng(7).random((160, 2))
    return np.vstack(
        [
            base,
            np.repeat(base[:20], 4, axis=0),
            np.column_stack([np.linspace(0.0, 1.0, 40), np.full(40, 0.5)]),
            np.stack(np.meshgrid(np.arange(5), np.arange(4)), -1).reshape(-1, 2)
            * 0.25,
        ]
    )


def tie_queries(points):
    """External queries: random, on data points, and on a lattice vertex."""
    random = np.random.default_rng(8).random((50, 2)) * 1.2 - 0.1
    return np.vstack([random, points[150:190:4], [[0.5, 0.5]]])


LEAF_SIZES = (1, 3, 8, 16, 64)
TIE_N = tie_points().shape[0]


def k_values(leaf, n):
    """k below, equal to, above and above twice the leaf size, plus k = n."""
    return sorted({max(leaf - 1, 1), leaf, leaf + 1, 2 * leaf + 1, n})


ALL_K = sorted({k for leaf in LEAF_SIZES for k in k_values(leaf, TIE_N)})


def assert_exact_rows(points, queries, indices, distances):
    """Rows are the exact k-NN: direct-norm distances, no repeated index."""
    k = indices.shape[1]
    assert np.array_equal(distances, exact_knn_reference(points, queries, k))
    gathered = points[indices] - queries[:, None, :]
    recomputed = np.sqrt(np.einsum("ijk,ijk->ij", gathered, gathered))
    assert np.array_equal(recomputed, distances)
    assert np.all(np.diff(np.sort(indices, axis=1), axis=1) > 0)


class TestKnnExactnessMatrix:
    """The k-point seed subtree under every leaf-size/k relation, with ties."""

    @pytest.mark.parametrize("leaf", LEAF_SIZES)
    def test_all_points_query_is_exact(self, leaf):
        points = tie_points()
        flat = FlatKDTree(points, leaf_size=leaf)
        # The brute-force kernel's matrix expansion carries a cancellation
        # error of a few eps * max|x|^2 on *squared* distances (about 2e-8
        # on a duplicate's zero distance), so it is compared on that scale;
        # exactness itself is the byte-equality with the direct norms.
        slack = 8 * np.finfo(np.float64).eps * np.einsum("ij,ij->i", points, points).max()
        for k in k_values(leaf, len(points)):
            indices, distances = flat.query_knn(points, k)
            assert_exact_rows(points, points, indices, distances)
            _, brute = knn_bruteforce(points, k)
            assert np.all(np.abs(distances**2 - brute**2) <= slack)

    @pytest.mark.parametrize("leaf", LEAF_SIZES)
    def test_external_queries_are_exact(self, leaf):
        points = tie_points()
        queries = tie_queries(points)
        flat = FlatKDTree(points, leaf_size=leaf)
        for k in k_values(leaf, len(points)):
            indices, distances = flat.query_knn(queries, k)
            assert_exact_rows(points, queries, indices, distances)

    @pytest.mark.parametrize("k", ALL_K)
    def test_distances_byte_equal_across_leaf_sizes(self, k):
        points = tie_points()
        queries = np.vstack([points, tie_queries(points)])
        rows = [
            FlatKDTree(points, leaf_size=leaf).query_knn(queries, k)[1]
            for leaf in LEAF_SIZES
        ]
        for other in rows[1:]:
            assert other.tobytes() == rows[0].tobytes()

    @pytest.mark.parametrize("k", [4, 20])
    def test_lowered_backend_neighbour_sets_unchanged(self, k):
        """numpy-f32 neighbour sets match those of the home-leaf-seeded
        traversal the k-point seed subtree replaced (recorded references)."""
        rng = np.random.default_rng(11)
        points = rng.random((500, 3))
        queries = np.vstack([points, rng.random((60, 3))])
        expected = np.load(F32_SETS_PATH)[f"sets_k{k}"]
        for leaf in LEAF_SIZES:
            tree = KDTree(points, leaf_size=leaf, backend="numpy-f32")
            indices, _ = knn(tree, k, queries=queries)
            assert np.array_equal(np.sort(indices, axis=1), expected)


class TestKnnWork:
    @pytest.mark.parametrize("leaf", [4, 8, 16])
    def test_folded_candidates_per_query_bounded(self, monkeypatch, leaf):
        """The seed bound must be finite: a home-leaf seed with leaf < k left
        it infinite and folded 264-481 candidates per query here."""
        n, k = 4000, 10
        points = np.random.default_rng(0).random((n, 2))
        flat = FlatKDTree(points, leaf_size=leaf)
        fold = FlatKDTree._fold_leaf_candidates
        folded = []

        def spy(self, queries, pair_q, pair_n, *args):
            folded.append(int((self.node_end[pair_n] - self.node_start[pair_n]).sum()))
            return fold(self, queries, pair_q, pair_n, *args)

        monkeypatch.setattr(FlatKDTree, "_fold_leaf_candidates", spy)
        flat.query_knn(points, k)
        assert sum(folded) / n <= 8 * k


class TestTreeReductions:
    def test_node_value_ranges_match_bruteforce(self, small_points_2d):
        flat = FlatKDTree(small_points_2d, leaf_size=2)
        values = np.random.default_rng(5).random(len(small_points_2d))
        lo, hi = flat.node_value_ranges(values)
        for node in range(flat.num_nodes):
            segment = values[flat.point_indices(node)]
            assert lo[node] == pytest.approx(segment.min())
            assert hi[node] == pytest.approx(segment.max())

    def test_connectivity_snapshot_detects_components(self, small_points_2d):
        from repro.emst.gfk import connectivity_snapshot, pairs_fully_connected

        n = len(small_points_2d)
        flat = FlatKDTree(small_points_2d, leaf_size=1)
        union_find = UnionFind(n)
        for i in range(n - 1):
            union_find.union(i, i + 1)
        root_min, root_max = connectivity_snapshot(flat, union_find)
        assert np.all(root_min == root_max)
        every_pair_a = np.arange(flat.num_nodes, dtype=np.int64)
        connected = pairs_fully_connected(root_min, root_max, every_pair_a, every_pair_a)
        assert bool(connected.all())


class TestMaskWithinRadii:
    def test_matches_brute_force(self, small_points_3d):
        flat = FlatKDTree(small_points_3d, leaf_size=4)
        rng = np.random.default_rng(11)
        radii = rng.uniform(0.05, 0.4, size=len(small_points_3d))
        batch = rng.random((7, 3))
        mask = flat.mask_within_radii(batch, radii)
        nearest = np.sqrt(
            ((small_points_3d[:, None, :] - batch[None, :, :]) ** 2).sum(-1)
        ).min(axis=1)
        assert np.array_equal(mask, nearest <= radii)

    def test_strict_excludes_the_boundary(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0]])
        flat = FlatKDTree(points, leaf_size=1)
        batch = np.array([[1.0, 0.0]])
        radii = np.array([1.0, 1.0])
        assert flat.mask_within_radii(batch, radii).tolist() == [True, False]
        assert flat.mask_within_radii(
            batch, radii, strict=True
        ).tolist() == [False, False]

    def test_lowered_backend_is_rejected(self, small_points_2d):
        """float32 node bounds could over-prune; the mask must stay exact."""
        flat = FlatKDTree(small_points_2d, backend="numpy-f32")
        radii = np.full(len(small_points_2d), 0.1)
        with pytest.raises(InvalidParameterError, match="exact backend"):
            flat.mask_within_radii(small_points_2d[:2], radii)


class TestWspdIds:
    def test_id_pairs_match_object_pairs(self, small_points_2d):
        """The frontier decomposition records exactly the pairs, in the
        same orientation, that the per-pair recursion of Algorithm 1 does."""
        points = np.vstack([small_points_2d, small_points_2d[:8]])
        tree = KDTree(points, leaf_size=1)
        for s in (2.0, 8.0):
            a_ids, b_ids = compute_wspd_ids(tree, s=s)
            id_pairs = set(zip(a_ids.tolist(), b_ids.tolist()))
            assert len(id_pairs) == a_ids.size
            assert id_pairs == recursive_wspd(tree.flat, s)
