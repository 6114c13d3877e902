"""Tests for the fit-once serving layer (:mod:`repro.serve`).

The serving contract is the byte-identity story extended to the read side:
a re-cut off the frozen fit-state must equal a cold refit at the same
parameters down to the byte, across every exact method and thread count,
and surviving a save/load round trip.  The predict, cache, engine and
buffer-release behaviours the issue gates are covered alongside.
"""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest

from conformance import CONFORMANCE_THREAD_COUNTS, EXACT_HDBSCAN_METHODS
from repro.core.budget import MemoryBudget
from repro.core.context import use_context
from repro.core.errors import FitStateError, InvalidParameterError
from repro.datasets import gaussian_blobs
from repro.emst.api import emst
from repro.estimators import HDBSCAN
from repro.hdbscan.api import hdbscan
from repro.serve import (
    ServingEngine,
    approximate_predict,
    compute_cut,
    cut_key,
    fit_state,
    load_state,
)

MIN_PTS = 5
MIN_CLUSTER_SIZE = 5
EPSILONS = (0.1, 0.3)


@pytest.fixture(scope="module")
def points():
    return gaussian_blobs(240, 3, num_clusters=4, cluster_std=0.03, seed=7)


@pytest.fixture(scope="module")
def state(points):
    return fit_state(points, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE)


class TestRecutIdentity:
    """recut() must be byte-identical to a cold fit at the same parameters."""

    @pytest.mark.parametrize("method", EXACT_HDBSCAN_METHODS)
    @pytest.mark.parametrize("threads", CONFORMANCE_THREAD_COUNTS)
    def test_epsilon_recut_matches_cold_fit(self, points, method, threads):
        fitted = fit_state(
            points, min_pts=MIN_PTS, method=method, num_threads=threads
        )
        for epsilon in EPSILONS:
            cold = HDBSCAN(
                min_pts=MIN_PTS, epsilon=epsilon, method=method,
                num_threads=threads,
            ).fit_predict(points)
            cut = fitted.recut(epsilon=epsilon)
            assert cut.labels.tobytes() == np.asarray(cold).tobytes(), (
                f"method={method} threads={threads} epsilon={epsilon}"
            )

    def test_eom_recut_matches_fitted_labels(self, points, state):
        model = HDBSCAN(
            min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        ).fit(points)
        cut = state.recut()
        assert cut.labels.tobytes() == model.labels_.tobytes()
        assert cut.probabilities.tobytes() == model.probabilities_.tobytes()

    def test_min_cluster_size_recut_matches_cold_fit(self, points, state):
        for mcs in (3, 12):
            cold = HDBSCAN(min_pts=MIN_PTS, min_cluster_size=mcs).fit(points)
            cut = state.recut(min_cluster_size=mcs)
            assert cut.labels.tobytes() == cold.labels_.tobytes()

    def test_n_clusters_cut(self, points, state):
        cut = state.recut(n_clusters=4)
        assert cut.num_clusters == 4
        assert cut.labels.min() >= 0  # single-linkage cut has no noise

    def test_cut_arrays_are_frozen(self, state):
        cut = state.recut(epsilon=0.3)
        with pytest.raises((ValueError, RuntimeError)):
            cut.labels[0] = 99

    def test_invalid_cut_parameters(self, state):
        with pytest.raises(InvalidParameterError):
            state.recut(epsilon=0.5, n_clusters=3)
        with pytest.raises(InvalidParameterError):
            state.recut(n_clusters=0)
        with pytest.raises(InvalidParameterError):
            state.recut(n_clusters=state.num_points + 1)
        with pytest.raises(InvalidParameterError):
            state.recut(min_cluster_size=0)


class TestCutCache:
    def test_repeated_cut_hits_cache(self, points):
        fitted = fit_state(points, min_pts=MIN_PTS)
        first, cached_first = fitted.recut_with_info(epsilon=0.2)
        second, cached_second = fitted.recut_with_info(epsilon=0.2)
        assert not cached_first and cached_second
        assert second is first
        info = fitted.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_equivalent_keys_share_an_entry(self, state):
        assert cut_key(state, epsilon=0.25) == cut_key(state, epsilon=0.25)
        assert cut_key(state, epsilon=0.25) != cut_key(state, epsilon=0.3)
        # The fitted min_cluster_size is the default, spelled or implied.
        assert cut_key(state, min_cluster_size=MIN_CLUSTER_SIZE) == cut_key(state)

    def test_negative_zero_epsilon_shares_an_entry(self, state):
        plus = cut_key(state, epsilon=0.0)
        minus = cut_key(state, epsilon=-0.0)
        assert plus == minus
        # Not just ==: the stored float must be the canonical +0.0.
        assert math.copysign(1.0, minus[1]) == 1.0

    def test_non_finite_epsilon_is_rejected(self, state):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                cut_key(state, epsilon=bad)
            with pytest.raises(InvalidParameterError, match="finite"):
                state.recut(epsilon=bad)

    def test_lru_evicts_oldest(self, points):
        fitted = fit_state(points, min_pts=MIN_PTS, cut_cache_size=2)
        fitted.recut(epsilon=0.1)
        fitted.recut(epsilon=0.2)
        fitted.recut(epsilon=0.3)  # evicts the 0.1 entry
        _, cached = fitted.recut_with_info(epsilon=0.1)
        assert not cached

    def test_compute_cut_bypasses_cache(self, state):
        direct = compute_cut(state, epsilon=0.2)
        via_cache = state.recut(epsilon=0.2)
        assert direct.labels.tobytes() == via_cache.labels.tobytes()


class TestSaveLoad:
    def test_round_trip_is_byte_identical(self, state, tmp_path):
        path = tmp_path / "state.npz"
        state.save(path)
        loaded = load_state(path)
        assert loaded.points.tobytes() == state.points.tobytes()
        assert loaded.core_distances.tobytes() == state.core_distances.tobytes()
        for kwargs in ({}, {"epsilon": 0.2}, {"n_clusters": 3}):
            original = state.recut(**kwargs)
            restored = loaded.recut(**kwargs)
            assert original.labels.tobytes() == restored.labels.tobytes()
            assert (
                original.probabilities.tobytes()
                == restored.probabilities.tobytes()
            )

    def test_predict_survives_round_trip(self, points, state, tmp_path):
        path = tmp_path / "state.npz"
        state.save(path)
        loaded = load_state(path)
        queries = points[:40] + 1e-4
        expected = approximate_predict(state, queries)
        restored = approximate_predict(loaded, queries)
        assert expected[0].tobytes() == restored[0].tobytes()
        assert expected[1].tobytes() == restored[1].tobytes()

    def test_truncated_file_is_refused(self, state, tmp_path):
        path = tmp_path / "state.npz"
        state.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FitStateError):
            load_state(path)

    def test_flipped_payload_byte_is_refused(self, state, tmp_path):
        path = tmp_path / "state.npz"
        state.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FitStateError):
            load_state(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(FitStateError):
            load_state(tmp_path / "absent.npz")

    def test_mismatched_metric_request_is_refused(self, state, tmp_path):
        path = tmp_path / "state.npz"
        state.save(path)
        with pytest.raises(FitStateError):
            load_state(path, metric="manhattan")
        # An explicit matching request is fine.
        load_state(path, metric="euclidean")

    def test_state_from_the_previous_engine_is_refused(self, points, tmp_path):
        # Engine 8 numbered dendrogram nodes differently, so its saved
        # states must be refitted, never served.
        path = tmp_path / "state.npz"
        with mock.patch("repro.serve.state.ENGINE_VERSION", "repro-engine-8"):
            fit_state(points[:60], min_pts=MIN_PTS).save(path)
        with pytest.raises(FitStateError, match="repro-engine-8"):
            load_state(path)

    def test_non_state_npz_is_refused(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(FitStateError):
            load_state(path)


class TestApproximatePredict:
    def test_training_points_reproduce_fitted_labels(self, points, state):
        fitted = state.recut().labels
        labels, probabilities = approximate_predict(state, points)
        assert np.array_equal(labels, fitted)
        assert (probabilities >= 0).all() and (probabilities <= 1).all()

    def test_far_outlier_is_noise(self, state):
        labels, probabilities = approximate_predict(
            state, np.full((1, state.dimension), 1e6)
        )
        assert labels[0] == -1 and probabilities[0] == 0.0

    def test_empty_query_batch(self, state):
        labels, probabilities = approximate_predict(
            state, np.empty((0, state.dimension))
        )
        assert labels.shape == (0,) and probabilities.shape == (0,)

    def test_dimension_mismatch_is_rejected(self, state):
        with pytest.raises(InvalidParameterError):
            approximate_predict(state, np.zeros((3, state.dimension + 1)))

    def test_thread_count_does_not_change_predictions(self, points, state):
        queries = points[::3] + 5e-4
        one = approximate_predict(state, queries, num_threads=1)
        two = approximate_predict(state, queries, num_threads=2)
        assert one[0].tobytes() == two[0].tobytes()
        assert one[1].tobytes() == two[1].tobytes()

    def test_duplicate_queries_are_byte_deterministic(self, points):
        # Exact-duplicate fitted points make the k-NN neighbour lists pure
        # ties; the lexsort tie-break must pin predictions regardless of the
        # traversal order a thread count or backend happens to produce.
        doubled = np.concatenate([points, points[:60]])
        fitted = {
            backend: fit_state(doubled, min_pts=MIN_PTS, backend=backend)
            for backend in ("numpy", "numpy-f32")
        }
        queries = np.concatenate([points[:60], points[:60]])
        label_blobs = set()
        for backend, fit in fitted.items():
            reference = None
            for threads in (1, 2, 4):
                got = approximate_predict(fit, queries, num_threads=threads)
                blob = got[0].tobytes() + got[1].tobytes()
                if reference is None:
                    reference = blob
                    label_blobs.add(got[0].tobytes())
                assert blob == reference, f"{backend} threads={threads}"
        # Across backends only the labels are comparable byte-for-byte: a
        # lowered backend's *fit* is held to bounded agreement, so its
        # probabilities may sit an ulp away from the exact engine's.
        assert len(label_blobs) == 1
        # Identical queries get identical predictions within one batch too.
        labels, probabilities = approximate_predict(fitted["numpy"], queries)
        assert np.array_equal(labels[:60], labels[60:])
        assert np.array_equal(probabilities[:60], probabilities[60:])


class TestServingEngine:
    def test_recut_and_predict_requests(self, points, state):
        engine = ServingEngine(state)
        recut = engine.handle({"op": "recut", "epsilon": 0.3})
        assert recut["ok"] and recut["kind"] == "epsilon"
        assert recut["labels"] == state.recut(epsilon=0.3).labels.tolist()
        predict = engine.handle({"op": "predict", "points": points[:5].tolist()})
        assert predict["ok"] and len(predict["labels"]) == 5

    def test_info_and_stats(self, state):
        engine = ServingEngine(state)
        info = engine.handle({"op": "info"})
        assert info["ok"] and info["num_points"] == state.num_points
        engine.handle({"op": "recut", "epsilon": 0.2})
        stats = engine.handle({"op": "stats"})
        assert stats["ok"] and stats["requests_served"] >= 2

    def test_bad_requests_do_not_raise(self, state):
        engine = ServingEngine(state)
        for request in (
            {"op": "bogus"},
            {"op": "recut", "epsilon": 0.1, "n_clusters": 2},
            {"op": "predict"},
            {"op": "predict", "points": [[1.0]]},
        ):
            response = engine.handle(request)
            assert response["ok"] is False and "error" in response
            assert response["kind"] == "bad_request", response
        assert engine.requests_failed == 4
        assert engine.requests_internal == 0

    def test_engine_faults_are_internal_errors(self, state, capsys):
        engine = ServingEngine(state)
        with mock.patch.object(
            type(state), "recut_with_info",
            side_effect=AttributeError("broken cut cache"),
        ):
            response = engine.handle({"op": "recut", "epsilon": 0.1})
        assert response["ok"] is False and response["kind"] == "internal"
        assert "broken cut cache" in response["error"]
        assert "Traceback" in capsys.readouterr().err
        assert (engine.requests_failed, engine.requests_internal) == (1, 1)
        stats = engine.handle({"op": "stats"})
        assert stats["requests_internal"] == 1

    def test_ill_typed_fields_are_bad_requests(self, state):
        engine = ServingEngine(state)
        for request in (
            [],
            {"op": "recut", "epsilon": "wide"},
            {"op": "predict", "points": [[1.0, "x"]]},
            {"op": "update", "delete": [[0], [1, 2]]},
        ):
            response = engine.handle(request)
            assert response["kind"] == "bad_request", (request, response)
        assert engine.requests_internal == 0

    def test_batch_keeps_request_order(self, state):
        engine = ServingEngine(state)
        requests = [{"op": "recut", "epsilon": 0.1 + 0.05 * i} for i in range(6)]
        responses = engine.handle_batch(requests, num_threads=2)
        assert [r["ok"] for r in responses] == [True] * 6
        for request, response in zip(requests, responses):
            expected = state.recut(epsilon=request["epsilon"])
            assert response["labels"] == expected.labels.tolist()

    def test_serve_stream(self, state):
        engine = ServingEngine(state)
        lines = "\n".join(
            [json.dumps({"op": "recut", "epsilon": 0.2}), "", "not json",
             json.dumps({"op": "stats"})]
        )
        output = io.StringIO()
        answered = engine.serve_stream(io.StringIO(lines), output)
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert answered == 3  # the blank line is skipped
        assert [r["ok"] for r in responses] == [True, False, True]


class TestPostFitBufferRelease:
    """After a fit returns, only live data survives (issue satellite)."""

    def test_edge_buffers_are_shrunk_post_fit(self, points):
        result = hdbscan(points, min_pts=MIN_PTS)
        assert result.mst.edges.capacity == len(result.mst.edges)
        tree = emst(points, method="gfk")
        assert tree.edges.capacity == len(tree.edges)

    def test_no_live_spilled_bytes_post_fit(self, points):
        budget = MemoryBudget("2M")
        with use_context(memory_budget=budget):
            result = hdbscan(points, min_pts=MIN_PTS, method="memogfk")
        assert result is not None
        assert budget.live_spilled_bytes == 0

    def test_fit_state_under_bounded_budget(self, points):
        budget = MemoryBudget("2M")
        fitted = fit_state(points, min_pts=MIN_PTS, memory_budget=budget)
        assert budget.live_spilled_bytes == 0
        cut = fitted.recut(epsilon=0.3)
        unbudgeted = fit_state(points, min_pts=MIN_PTS).recut(epsilon=0.3)
        assert cut.labels.tobytes() == unbudgeted.labels.tobytes()


class TestValidationBeforeWork:
    """Bad serving parameters are refused before any fitting, never clamped."""

    def test_min_cluster_size_is_checked_before_the_fit(self, points):
        with mock.patch(
            "repro.serve.state.hdbscan",
            side_effect=AssertionError("fitted before validating"),
        ):
            with pytest.raises(InvalidParameterError, match="min_cluster_size"):
                fit_state(points, min_pts=MIN_PTS, min_cluster_size=0)

    @pytest.mark.parametrize("size", [0, -5])
    def test_cut_cache_size_is_not_clamped(self, points, state, tmp_path, size):
        from repro.dynamic import fit_dynamic

        with mock.patch(
            "repro.serve.state.hdbscan",
            side_effect=AssertionError("fitted before validating"),
        ):
            with pytest.raises(InvalidParameterError, match="cut_cache_size"):
                fit_state(points, min_pts=MIN_PTS, cut_cache_size=size)
            with pytest.raises(InvalidParameterError, match="cut_cache_size"):
                fit_dynamic(points, min_pts=MIN_PTS, cut_cache_size=size)
        path = state.save(tmp_path / "fit.npz")
        with pytest.raises(InvalidParameterError, match="cut_cache_size"):
            load_state(path, cut_cache_size=size)

    def test_loaded_min_cluster_size_below_one_is_refused(self, state, tmp_path):
        path = state.save(tmp_path / "fit.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("__meta__")[()]))
        meta["fingerprint"]["min_cluster_size"] = 0
        np.savez(path, __meta__=json.dumps(meta), **arrays)
        with pytest.raises(FitStateError, match="min_cluster_size"):
            load_state(path)

    def test_min_pts_above_n_is_rejected(self, points):
        with pytest.raises(InvalidParameterError, match="minPts"):
            fit_state(points[:4], min_pts=5)
