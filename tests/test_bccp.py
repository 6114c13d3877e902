"""Tests for the batched BCCP / BCCP* kernel and the BCCP cache.

Nodes are named by their flat-tree ids; the reference is brute force over
the two nodes' point indices, inside the test.
"""

import tracemalloc

import numpy as np
import pytest

from conformance import CONFORMANCE_MEMORY_BUDGETS, CONFORMANCE_METRICS
from repro.core.backend import resolve_backend
from repro.core.context import use_context
from repro.core.distance import closest_pair_bruteforce, cross_distances, euclidean
from repro.core.errors import InvalidParameterError
from repro.core.metric import resolve_metric
from repro.hdbscan import core_distances
from repro.spatial import KDTree
from repro.wspd import BCCPCache, bccp_batch
from repro.wspd.bccp import _LARGE_PAIR_ELEMENTS, bccp_windows
from repro.wspd.wspd import compute_wspd_ids


def brute_bccp(tree, a, b, core=None):
    """BCCP (BCCP* with ``core``) of nodes ``a``, ``b`` by brute force.

    Evaluates every candidate of ``point_indices(a) x point_indices(b)``
    with the exact pair kernel and takes the row-major first candidate at
    the minimum: ``(point_a, point_b, weight)``.
    """
    flat = tree.flat
    ia, ib = flat.point_indices(a), flat.point_indices(b)
    u, v = np.repeat(ia, ib.size), np.tile(ib, ia.size)
    exact = flat.metric.exact_edge_weights(flat.points, u, v, core)
    first = int(np.flatnonzero(exact == exact.min())[0])
    return int(u[first]), int(v[first]), float(exact[first])


def one_bccp(tree, a, b, core=None):
    """``bccp_batch`` on the single node pair ``(a, b)``."""
    pa, pb, w = bccp_batch(tree.flat, np.array([a]), np.array([b]), core)
    return int(pa[0]), int(pb[0]), float(w[0])


def _split_nodes(points, leaf_size=32):
    """kd-tree root children: a convenient pair of disjoint node ids."""
    tree = KDTree(points, leaf_size=leaf_size)
    return tree, int(tree.flat.left_child[0]), int(tree.flat.right_child[0])


class TestBCCP:
    def test_matches_bruteforce(self, small_points_3d):
        tree, left, right = _split_nodes(small_points_3d)
        _, _, distance = one_bccp(tree, left, right)
        flat = tree.flat
        _, _, expected = closest_pair_bruteforce(
            small_points_3d[flat.point_indices(left)],
            small_points_3d[flat.point_indices(right)],
        )
        assert distance == pytest.approx(expected)
        assert one_bccp(tree, left, right) == brute_bccp(tree, left, right)

    def test_endpoints_belong_to_their_nodes(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        point_a, point_b, _ = one_bccp(tree, left, right)
        assert point_a in set(tree.flat.point_indices(left).tolist())
        assert point_b in set(tree.flat.point_indices(right).tolist())

    def test_distance_consistent_with_endpoints(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        point_a, point_b, distance = one_bccp(tree, left, right)
        recomputed = euclidean(small_points_2d[point_a], small_points_2d[point_b])
        assert distance == pytest.approx(recomputed)

    def test_singleton_nodes(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        tree = KDTree(points, leaf_size=1)
        leaves = tree.flat.leaf_ids()
        assert one_bccp(tree, leaves[0], leaves[1])[2] == pytest.approx(5.0)


class TestBCCPStar:
    def test_against_bruteforce_mutual_reachability(self, small_points_3d):
        core = core_distances(small_points_3d, 8)
        tree, left, right = _split_nodes(small_points_3d)
        _, _, distance = one_bccp(tree, left, right, core)
        ia = tree.flat.point_indices(left)
        ib = tree.flat.point_indices(right)
        distances = cross_distances(small_points_3d[ia], small_points_3d[ib])
        mutual = np.maximum(distances, np.maximum(core[ia][:, None], core[ib][None, :]))
        assert distance == pytest.approx(mutual.min())
        assert one_bccp(tree, left, right, core) == brute_bccp(tree, left, right, core)

    def test_bccp_star_at_least_bccp(self, small_points_3d):
        core = core_distances(small_points_3d, 8)
        tree, left, right = _split_nodes(small_points_3d)
        euclidean_distance = one_bccp(tree, left, right)[2]
        mutual_distance = one_bccp(tree, left, right, core)[2]
        assert mutual_distance >= euclidean_distance - 1e-12

    def test_minpts_one_reduces_to_bccp(self, small_points_2d):
        core = np.zeros(len(small_points_2d))
        tree, left, right = _split_nodes(small_points_2d)
        assert one_bccp(tree, left, right, core)[2] == pytest.approx(
            one_bccp(tree, left, right)[2]
        )


def _random_frontier(tree, rng, num_pairs):
    """Random node-id pairs with distinct ids (a frontier-shaped workload)."""
    num_nodes = tree.flat.num_nodes
    a = rng.integers(0, num_nodes, size=num_pairs)
    b = rng.integers(0, num_nodes, size=num_pairs)
    keep = a != b
    return a[keep].astype(np.int64), b[keep].astype(np.int64)


class TestBCCPBatch:
    def test_matches_scalar_on_random_frontiers(self):
        rng = np.random.default_rng(0)
        points = rng.random((200, 3))
        tree = KDTree(points, leaf_size=1)
        for seed in range(3):
            a_ids, b_ids = _random_frontier(tree, np.random.default_rng(seed), 300)
            pa, pb, w = bccp_batch(tree.flat, a_ids, b_ids)
            for i in range(a_ids.size):
                ref = brute_bccp(tree, a_ids[i], b_ids[i])
                assert (int(pa[i]), int(pb[i]), float(w[i])) == ref

    def test_matches_scalar_star_on_random_frontiers(self):
        rng = np.random.default_rng(1)
        points = rng.random((150, 2))
        core = core_distances(points, 5)
        tree = KDTree(points, leaf_size=1)
        a_ids, b_ids = _random_frontier(tree, rng, 250)
        pa, pb, w = bccp_batch(tree.flat, a_ids, b_ids, core)
        for i in range(a_ids.size):
            ref = brute_bccp(tree, a_ids[i], b_ids[i], core)
            assert (int(pa[i]), int(pb[i]), float(w[i])) == ref

    def test_matches_scalar_on_wspd_pairs(self):
        points = np.random.default_rng(2).random((120, 2))
        tree = KDTree(points, leaf_size=1)
        a_ids, b_ids = compute_wspd_ids(tree)
        pa, pb, w = bccp_batch(tree.flat, a_ids, b_ids)
        for i in range(a_ids.size):
            ref = brute_bccp(tree, a_ids[i], b_ids[i])
            assert (int(pa[i]), int(pb[i]), float(w[i])) == ref

    def test_duplicate_points_tie_breaking(self):
        # All-identical points: every candidate distance ties at zero and the
        # batched argmin must pick the same (row-major first) entry as the
        # brute-force matrix.
        points = np.zeros((16, 2))
        tree = KDTree(points, leaf_size=1)
        a_ids, b_ids = _random_frontier(tree, np.random.default_rng(3), 60)
        pa, pb, w = bccp_batch(tree.flat, a_ids, b_ids)
        for i in range(a_ids.size):
            ref = brute_bccp(tree, a_ids[i], b_ids[i])
            assert (int(pa[i]), int(pb[i]), float(w[i])) == ref
            assert float(w[i]) == 0.0

    def test_empty_input(self):
        points = np.random.default_rng(4).random((10, 2))
        tree = KDTree(points, leaf_size=1)
        empty = np.empty(0, dtype=np.int64)
        pa, pb, w = bccp_batch(tree.flat, empty, empty)
        assert pa.size == pb.size == w.size == 0

    def test_only_large_pairs(self):
        # Both nodes big enough that the pair takes the unpadded large-pair
        # path (regression: this used to crash the empty small-class loop).
        points = np.random.default_rng(8).random((400, 2))
        tree = KDTree(points, leaf_size=1)
        flat = tree.flat
        a = np.array([flat.left_child[0]], dtype=np.int64)
        b = np.array([flat.right_child[0]], dtype=np.int64)
        assert int(flat.node_sizes[a[0]] * flat.node_sizes[b[0]]) >= 16_384
        pa, pb, w = bccp_batch(flat, a, b)
        assert (int(pa[0]), int(pb[0]), float(w[0])) == brute_bccp(tree, a[0], b[0])


def window_oracle(points, index, start_a, size_a, start_b, size_b, metric, core=None):
    """The exact winner rule over index windows, by full enumeration.

    Every candidate of ``index[start_a[r] : start_a[r] + size_a[r]] x
    index[start_b[r] : start_b[r] + size_b[r]]`` is weighed with
    ``Metric.exact_edge_weights``; each pair's winner is its first
    candidate in row-major order (A's window major) whose weight is the
    pair's minimum.
    """
    counts = size_a * size_b
    offsets = np.cumsum(counts) - counts
    pair = np.repeat(np.arange(size_a.size), counts)
    k = np.arange(counts.sum()) - offsets[pair]
    u = index[start_a[pair] + k // size_b[pair]]
    v = index[start_b[pair] + k % size_b[pair]]
    exact = metric.exact_edge_weights(points, u, v, core)
    at_min = exact == np.minimum.reduceat(exact, offsets)[pair]
    first = np.minimum.reduceat(np.where(at_min, np.arange(k.size), k.size), offsets)
    return u[first], v[first], exact[first]


def exact_oracle(flat, a_ids, b_ids, core=None):
    """:func:`window_oracle` over node pairs, one window per node."""
    return window_oracle(
        flat.points, flat.perm,
        flat.node_start[a_ids], flat.node_sizes[a_ids],
        flat.node_start[b_ids], flat.node_sizes[b_ids],
        flat.metric, core,
    )


def shifted_points(kind, shift, seed=0):
    """A small 3D set translated by ``shift``: generic uniform points, or a
    half-integer lattice with exact duplicates (exact ties survive every
    shift here, since the lattice is representable at 1e7)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        points = rng.random((160, 3))
    else:
        lattice = 0.5 * rng.integers(0, 5, size=(120, 3)).astype(float)
        points = np.concatenate([lattice, lattice[rng.choice(120, 40)]])
    return points + shift


class TestExactWinners:
    """Every winner is the row-major first exact minimum, weight bits
    included, however large the coordinates, ties, metric, thread count or
    memory budget."""

    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("kind", ["uniform", "ties"])
    @pytest.mark.parametrize("shift", [0.0, 1e5, 1e6, 1e7])
    def test_matches_exact_oracle(self, shift, kind, metric):
        points = shifted_points(kind, shift)
        tree = KDTree(points, leaf_size=1, metric=metric)
        flat = tree.flat
        wspd_a, wspd_b = compute_wspd_ids(tree)
        rand_a, rand_b = _random_frontier(tree, np.random.default_rng(9), 200)
        a_ids = np.concatenate([wspd_a, rand_a])
        b_ids = np.concatenate([wspd_b, rand_b])
        for core in (None, core_distances(points, 5, metric=metric)):
            want = exact_oracle(flat, a_ids, b_ids, core)
            for threads in (1, 4):
                for budget in CONFORMANCE_MEMORY_BUDGETS:
                    with use_context(memory_budget=budget):
                        got = bccp_batch(flat, a_ids, b_ids, core, num_threads=threads)
                    context = f"core={core is not None} {threads=} {budget=}"
                    for name, g, w in zip(("point_a", "point_b", "weight"), got, want):
                        assert g.tobytes() == w.tobytes(), f"{name} differs: {context}"


def window_case(name, n, rng):
    """``(start_a, size_a, start_b, size_b)`` windows over ``n`` points of
    the shapes ``bccp_windows`` is sent beyond node pairs."""
    if name == "one-point-rows":  # the update repair's row path
        size_a = np.ones(150, dtype=np.int64)
        size_b = rng.integers(2, 90, 150)
    elif name == "padded-class":  # one (8, 16) class padding rows and columns
        size_a = rng.integers(5, 9, 150)
        size_b = rng.integers(9, 17, 150)
    else:  # one pair resolved alone, plus small ones
        size_a = np.array([130, 3, 40])
        size_b = np.array([130, 7, 2])
        assert 130 * 130 >= _LARGE_PAIR_ELEMENTS
    start_a = rng.integers(0, n - size_a + 1)
    start_b = rng.integers(0, n - size_b + 1)
    return start_a, size_a, start_b, size_b


class TestWindowWinners:
    """``bccp_windows`` over the windows the engine sends: the row-major
    first exact minimum, weight bits included."""

    @pytest.mark.parametrize("case", ["one-point-rows", "padded-class", "large-pair"])
    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("kind", ["uniform", "ties"])
    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e7])
    def test_matches_window_oracle(self, shift, kind, metric, case):
        points = shifted_points(kind, shift)
        metric = resolve_metric(metric)
        rng = np.random.default_rng(17)
        index = rng.permutation(points.shape[0])
        windows = window_case(case, points.shape[0], rng)
        for core in (None, core_distances(points, 5, metric=metric)):
            want = window_oracle(points, index, *windows, metric, core)
            for threads in (1, 4):
                got = bccp_windows(
                    points, index, *windows, core, metric=metric,
                    backend=resolve_backend("numpy"), num_threads=threads,
                )
                context = f"core={core is not None} {threads=}"
                for name, g, w in zip(("point_a", "point_b", "weight"), got, want):
                    assert g.tobytes() == w.tobytes(), f"{name} differs: {context}"

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_empty_window_is_rejected(self, side):
        points = shifted_points("uniform", 0.0)
        sizes = {"a": np.array([3, 4]), "b": np.array([5, 2])}
        sizes[side][1] = 0
        with pytest.raises(InvalidParameterError):
            bccp_windows(
                points, np.arange(points.shape[0]), np.array([0, 10]),
                sizes["a"], np.array([20, 30]), sizes["b"],
                metric=resolve_metric("euclidean"),
                backend=resolve_backend("numpy"),
            )


class TestClassChunkMemory:
    """A class chunk scores in the thread's reusable workspace: once it is
    warm, a chunk allocates less than one chunk-shaped float64 tensor."""

    @pytest.mark.parametrize("metric", CONFORMANCE_METRICS)
    @pytest.mark.parametrize("with_core", [False, True])
    def test_warm_chunk_allocates_under_one_tensor(self, metric, with_core):
        rng = np.random.default_rng(11)
        points = rng.random((20_000, 2))
        metric = resolve_metric(metric)
        core = core_distances(points, 5, metric=metric) if with_core else None
        # 300 pairs of one (32, 32) class: windows of the x-sorted points,
        # the left ones against the right ones, sizes padding the class.
        index = np.argsort(points[:, 0], kind="stable")
        g = 300
        size_a = rng.integers(17, 33, g)
        size_b = rng.integers(17, 33, g)
        size_a[0] = size_b[0] = 32
        start_a = 32 * np.arange(g)
        start_b = 32 * (np.arange(g) + g + 10)

        def run():
            return bccp_windows(
                points, index, start_a, size_a, start_b, size_b, core,
                metric=metric, backend=resolve_backend("numpy"), num_threads=1,
            )

        want = run()
        tracemalloc.start()
        try:
            got = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for g_, w in zip(got, want):
            assert g_.tobytes() == w.tobytes()
        tensor = g * 32 * 32 * 8
        assert peak < tensor, f"peak {peak / tensor:.2f} tensors"


def one_get(cache, a, b):
    """``BCCPCache.get_batch`` on the single node pair ``(a, b)``."""
    pa, pb, w = cache.get_batch(np.array([a]), np.array([b]))
    return int(pa[0]), int(pb[0]), float(w[0])


class TestBCCPCache:
    def test_get_batch_matches_scalar_gets(self, small_points_2d):
        """One whole-frontier lookup equals one-pair lookups in sequence."""
        tree = KDTree(small_points_2d, leaf_size=1)
        rng = np.random.default_rng(5)
        a_ids, b_ids = _random_frontier(tree, rng, 120)
        batch_cache = BCCPCache(tree)
        pa, pb, w = batch_cache.get_batch(a_ids, b_ids)
        scalar_cache = BCCPCache(tree)
        for i in range(a_ids.size):
            ref = scalar_cache.get_batch(a_ids[i : i + 1], b_ids[i : i + 1])
            assert (pa[i], pb[i], w[i]) == (ref[0][0], ref[1][0], ref[2][0])
        assert batch_cache.num_bccp_calls == scalar_cache.num_bccp_calls
        assert (
            batch_cache.num_distance_evaluations
            == scalar_cache.num_distance_evaluations
        )

    def test_get_batch_hit_miss_partition(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        cache = BCCPCache(tree)
        rng = np.random.default_rng(6)
        first_a, first_b = _random_frontier(tree, rng, 80)
        cache.get_batch(first_a, first_b)
        calls_after_first = cache.num_bccp_calls
        # Re-submit the same pairs (some swapped) mixed with fresh ones: only
        # the fresh unique pairs may trigger kernel evaluations.
        fresh_a, fresh_b = _random_frontier(tree, np.random.default_rng(7), 40)
        mixed_a = np.concatenate([first_b, fresh_a])  # swapped orientation
        mixed_b = np.concatenate([first_a, fresh_b])
        cache.get_batch(mixed_a, mixed_b)
        known = set(zip(*(np.minimum(first_a, first_b), np.maximum(first_a, first_b))))
        fresh_keys = set(
            zip(*(np.minimum(fresh_a, fresh_b), np.maximum(fresh_a, fresh_b)))
        )
        expected_new = len(fresh_keys - known)
        assert cache.num_bccp_calls == calls_after_first + expected_new

    def test_get_batch_duplicate_pairs_evaluated_once(self, small_points_2d):
        tree = KDTree(small_points_2d, leaf_size=1)
        cache = BCCPCache(tree)
        a = np.array([1, 2, 1, 2, 1], dtype=np.int64)
        b = np.array([2, 1, 2, 1, 2], dtype=np.int64)
        pa, pb, w = cache.get_batch(a, b)
        assert cache.num_bccp_calls == 1
        assert np.unique(pa).size == 1 and np.unique(pb).size == 1
        assert np.unique(w).size == 1

    def test_caches_results(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        cache = BCCPCache(tree)
        first = one_get(cache, left, right)
        second = one_get(cache, left, right)
        assert first == second
        assert cache.num_bccp_calls == 1

    def test_symmetric_key(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        cache = BCCPCache(tree)
        one_get(cache, left, right)
        one_get(cache, right, left)
        assert cache.num_bccp_calls == 1

    def test_counts_distance_evaluations(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        cache = BCCPCache(tree)
        one_get(cache, left, right)
        sizes = tree.flat.node_sizes
        assert cache.num_distance_evaluations == sizes[left] * sizes[right]

    def test_mutual_reachability_mode(self, small_points_3d):
        core = core_distances(small_points_3d, 5)
        tree, left, right = _split_nodes(small_points_3d)
        cache = BCCPCache(tree, core_distances=core)
        assert cache.uses_mutual_reachability
        assert one_get(cache, left, right) == brute_bccp(tree, left, right, core)

    def test_len_reports_cached_pairs(self, small_points_2d):
        tree, left, right = _split_nodes(small_points_2d)
        cache = BCCPCache(tree)
        assert len(cache) == 0
        one_get(cache, left, right)
        assert len(cache) == 1
