"""Thread-count determinism of every threaded driver, plus pool lifecycle.

The multicore execution engine's contract is that sharding is deterministic:
fixed chunk boundaries and stable, shard-ordered reductions make every
threaded run byte-identical to the single-threaded one.  These tests pin that
contract down for the GFK and MemoGFK EMST drivers, both HDBSCAN* drivers,
the kNN paths and the parallel Kruskal argsort, and exercise the
:class:`~repro.parallel.pool.WorkerPool` lifecycle (worker reuse, shutdown,
exception propagation, workspace buffer reuse).
"""

import threading
from functools import partial

import numpy as np
import pytest

from repro.approx import approx_emst
from repro.emst import emst_gfk, emst_memogfk
from repro.hdbscan import hdbscan
from repro.mst.kruskal import parallel_argsort
from repro.parallel.pool import (
    WorkerPool,
    Workspace,
    current_workspace,
    get_pool,
    map_shards,
    shard_ranges,
)
from repro.spatial import KDTree, knn, knn_bruteforce

THREAD_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def cluster_points():
    rng = np.random.default_rng(42)
    blob_a = rng.normal(0.0, 0.05, size=(220, 2))
    blob_b = rng.normal(1.0, 0.08, size=(220, 2))
    noise = rng.uniform(-1.0, 2.0, size=(60, 2))
    return np.vstack([blob_a, blob_b, noise])


def _edge_arrays(result):
    return result.edges.as_arrays()


class TestEmstThreadDeterminism:
    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    @pytest.mark.parametrize("driver", [emst_gfk, emst_memogfk], ids=["gfk", "memogfk"])
    def test_edge_lists_byte_identical(self, cluster_points, driver, num_threads):
        baseline = driver(cluster_points)
        threaded = driver(cluster_points, num_threads=num_threads)
        for base_col, threaded_col in zip(
            _edge_arrays(baseline), _edge_arrays(threaded)
        ):
            assert np.array_equal(base_col, threaded_col)

    def test_gfk_and_memogfk_weights_agree_threaded(self, cluster_points):
        gfk = emst_gfk(cluster_points, num_threads=2)
        memo = emst_memogfk(cluster_points, num_threads=4)
        assert gfk.total_weight == pytest.approx(memo.total_weight, rel=0, abs=0)


class TestHdbscanThreadDeterminism:
    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    @pytest.mark.parametrize("method", ["gantao", "memogfk"])
    def test_mst_and_dendrogram_byte_identical(
        self, cluster_points, method, num_threads
    ):
        baseline = hdbscan(cluster_points, min_pts=5, method=method)
        threaded = hdbscan(
            cluster_points, min_pts=5, method=method, num_threads=num_threads
        )
        assert np.array_equal(baseline.core_distances, threaded.core_distances)
        for base_col, threaded_col in zip(
            _edge_arrays(baseline.mst), _edge_arrays(threaded.mst)
        ):
            assert np.array_equal(base_col, threaded_col)
        assert np.array_equal(
            baseline.dendrogram.to_linkage_matrix(),
            threaded.dendrogram.to_linkage_matrix(),
        )
        assert np.array_equal(
            baseline.eom_labels(min_cluster_size=10),
            threaded.eom_labels(min_cluster_size=10),
        )


class TestKnnThreadDeterminism:
    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_tree_knn_identical(self, cluster_points, num_threads):
        tree = KDTree(cluster_points, leaf_size=4)
        base_idx, base_dist = knn(tree, 6)
        idx, dist = knn(tree, 6, num_threads=num_threads)
        assert np.array_equal(base_idx, idx)
        assert np.array_equal(base_dist, dist)

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_bruteforce_knn_identical(self, cluster_points, num_threads):
        base_idx, base_dist = knn_bruteforce(cluster_points, 6)
        idx, dist = knn_bruteforce(cluster_points, 6, num_threads=num_threads)
        assert np.array_equal(base_idx, idx)
        assert np.array_equal(base_dist, dist)

    def test_bruteforce_auto_chunk_matches_explicit(self, cluster_points):
        # Different chunk sizes may round the BLAS cross terms differently
        # (that was already true before auto-sizing), so this is allclose;
        # bit-identity is only promised across *thread counts* at a fixed
        # chunking, which the tests above pin down.
        auto_idx, auto_dist = knn_bruteforce(cluster_points, 5)
        explicit_idx, explicit_dist = knn_bruteforce(cluster_points, 5, chunk_size=13)
        assert np.array_equal(auto_idx, explicit_idx)
        assert np.allclose(auto_dist, explicit_dist, rtol=1e-12, atol=1e-12)


class TestParallelArgsort:
    @pytest.mark.parametrize("size", [0, 5, 70_000, 131_072, 200_001])
    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_matches_stable_argsort_with_ties(self, size, num_threads):
        rng = np.random.default_rng(size + num_threads)
        weights = rng.integers(0, 37, size).astype(np.float64)
        expected = np.argsort(weights, kind="stable")
        assert np.array_equal(
            parallel_argsort(weights, num_threads=num_threads), expected
        )


class TestShardedPathsEngage:
    """Byte-identity with the sharded branches *actually running*.

    At test scale the production chunk thresholds keep most sharded paths on
    their inline fallback, so the driver tests above would pass even with a
    broken shard kernel.  Here the thresholds are lowered (they are read at
    call time for exactly this purpose) so a 500-point run shards its
    frontier gaps and masks, edge-weight sweeps, sort chunks, k-NN blocks
    and BCCP tasks across a real 4-worker pool — and must still match the
    unsharded single-thread run bit for bit.
    """

    @pytest.fixture()
    def tiny_chunks(self, monkeypatch):
        # sys.modules lookups: the package attributes `repro.mst.kruskal` /
        # `repro.wspd.bccp` are shadowed by the re-exported functions.
        import importlib

        pool_module = importlib.import_module("repro.parallel.pool")
        kruskal_module = importlib.import_module("repro.mst.kruskal")
        knn_module = importlib.import_module("repro.spatial.knn")
        bccp_module = importlib.import_module("repro.wspd.bccp")

        monkeypatch.setattr(pool_module, "DEFAULT_CHUNK", 64)
        monkeypatch.setattr(kruskal_module, "_SORT_CHUNK", 32)
        monkeypatch.setattr(knn_module, "_CHUNK_BUDGET_BYTES", 1 << 12)
        monkeypatch.setattr(bccp_module, "_LARGE_PAIR_ELEMENTS", 256)

    @pytest.mark.parametrize(
        "driver",
        [emst_gfk, emst_memogfk, partial(approx_emst, epsilon=0.1)],
        ids=["gfk", "memogfk", "wspd-approx"],
    )
    def test_emst_sharded_matches_inline(self, cluster_points, tiny_chunks, driver):
        inline = driver(cluster_points)
        sharded = driver(cluster_points, num_threads=4)
        for inline_col, sharded_col in zip(_edge_arrays(inline), _edge_arrays(sharded)):
            assert np.array_equal(inline_col, sharded_col)

    @pytest.mark.parametrize(
        "method, options",
        [
            pytest.param("gantao", {}, id="gantao"),
            pytest.param("memogfk", {}, id="memogfk"),
            pytest.param("wspd-approx", {"epsilon": 0.1}, id="wspd-approx"),
        ],
    )
    def test_hdbscan_sharded_matches_inline(
        self, cluster_points, tiny_chunks, method, options
    ):
        inline = hdbscan(cluster_points, min_pts=5, method=method, **options)
        sharded = hdbscan(
            cluster_points, min_pts=5, method=method, num_threads=4, **options
        )
        assert np.array_equal(inline.core_distances, sharded.core_distances)
        for inline_col, sharded_col in zip(
            _edge_arrays(inline.mst), _edge_arrays(sharded.mst)
        ):
            assert np.array_equal(inline_col, sharded_col)
        assert np.array_equal(
            inline.dendrogram.to_linkage_matrix(),
            sharded.dendrogram.to_linkage_matrix(),
        )

    def test_knn_sharded_blocks_match(self, cluster_points, tiny_chunks):
        tree = KDTree(cluster_points, leaf_size=4)
        inline_idx, inline_dist = knn(tree, 6)
        sharded_idx, sharded_dist = knn(tree, 6, num_threads=4)
        assert np.array_equal(inline_idx, sharded_idx)
        assert np.array_equal(inline_dist, sharded_dist)


class TestWorkerPoolLifecycle:
    def test_map_preserves_order_and_reuses_workers(self):
        with WorkerPool(2) as pool:
            first = pool.map(lambda item: threading.get_ident(), range(64))
            second = pool.map(lambda item: threading.get_ident(), range(64))
            # Same two threads serve every map: no spawning after the first.
            assert pool.workers_started == 2
            worker_idents = {thread.ident for thread in pool._threads}
            assert set(first) <= worker_idents
            assert set(second) <= worker_idents
            assert threading.get_ident() not in worker_idents
            squares = pool.map(lambda item: item * item, range(100))
            assert squares == [item * item for item in range(100)]

    def test_single_worker_runs_inline(self):
        with WorkerPool(1) as pool:
            idents = pool.map(lambda item: threading.get_ident(), range(8))
            assert set(idents) == {threading.get_ident()}
            assert pool.workers_started == 0

    def test_shutdown_stops_workers_and_rejects_maps(self):
        pool = WorkerPool(2)
        pool.map(lambda item: item, range(8))
        threads = list(pool._threads)
        pool.shutdown()
        for thread in threads:
            assert not thread.is_alive()
        with pytest.raises(RuntimeError):
            pool.map(lambda item: item, range(8))
        # The inline fast paths observe shutdown too.
        with pytest.raises(RuntimeError):
            pool.map(lambda item: item, [1])
        single = WorkerPool(1)
        single.shutdown()
        with pytest.raises(RuntimeError):
            single.map(lambda item: item, range(4))
        pool.shutdown()  # idempotent

    def test_exception_propagates_after_batch_drains(self):
        class Boom(RuntimeError):
            pass

        def explode(item):
            if item == 13:
                raise Boom("task 13 failed")
            return item

        with WorkerPool(3) as pool:
            with pytest.raises(Boom, match="task 13 failed"):
                pool.map(explode, range(64))
            # The pool survives a failed batch.
            assert pool.map(lambda item: -item, [1, 2, 3]) == [-1, -2, -3]

    def test_get_pool_is_cached_per_thread_count(self):
        assert get_pool(3) is get_pool(3)
        assert get_pool(3) is not get_pool(2)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestWorkspace:
    def test_take_reuses_grown_buffer(self):
        workspace = Workspace()
        big = workspace.take("scratch", (64, 8))
        small = workspace.take("scratch", (16, 4))
        assert np.shares_memory(big, small)
        assert small.shape == (16, 4)

    def test_distinct_keys_and_dtypes_do_not_alias(self):
        workspace = Workspace()
        a = workspace.take("a", (32,))
        b = workspace.take("b", (32,))
        c = workspace.take("a", (32,), dtype=np.int64)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, c)

    def test_workers_get_their_own_workspace(self):
        main_workspace = current_workspace()
        with WorkerPool(2) as pool:
            worker_spaces = pool.map(lambda item: id(current_workspace()), range(32))
        assert id(main_workspace) not in set(worker_spaces)
        # Each worker keeps one workspace across tasks: at most two distinct.
        assert len(set(worker_spaces)) <= 2


class TestShardHelpers:
    def test_shard_ranges_fixed_boundaries(self):
        spans = shard_ranges(10, 4)
        assert spans == [(0, 4), (4, 8), (8, 10)]
        assert shard_ranges(0, 4) == []

    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_map_shards_orders_results_by_shard(self, num_threads):
        totals = map_shards(
            lambda lo, hi: (lo, hi), 100, num_threads=num_threads, chunk_size=7
        )
        assert totals == shard_ranges(100, 7)
