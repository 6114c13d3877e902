"""Unit tests for the kernel-backend registry and the float32 lowering.

The cross-method/-backend agreement contracts live in the conformance matrix
(``tests/test_conformance.py``); this module covers the registry mechanics —
resolution, fallback, scoping, the environment default — and the kernel-level
properties of the lowered float32 path that the matrix only exercises
end to end.
"""

from __future__ import annotations

import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core.backend import (
    BACKEND_NAMES,
    BACKENDS,
    HAVE_NUMBA,
    BackendFallbackWarning,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from repro.core.context import current_context, use_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import EUCLIDEAN, resolve_metric
from repro.emst.api import emst
from repro.estimators import EMST, HDBSCAN
from repro.spatial.kdtree import KDTree
from repro.spatial.knn import knn, knn_bruteforce


@pytest.fixture
def points():
    return np.random.default_rng(7).random((200, 3))


class TestRegistry:
    def test_registered_names(self):
        assert BACKEND_NAMES == ("numpy", "numpy-f32", "numba", "numba-f32")

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert "numpy-f32" in available_backends()

    def test_resolve_by_name_and_instance(self):
        backend = resolve_backend("numpy")
        assert backend is BACKENDS["numpy"]
        assert resolve_backend(backend) is backend
        assert resolve_backend("  NumPy ") is backend  # normalized

    def test_resolve_none_is_ambient_default(self):
        assert resolve_backend(None) is current_context().backend

    def test_unknown_name_lists_available(self):
        with pytest.raises(InvalidParameterError, match="available backends"):
            resolve_backend("cuda")

    def test_non_string_non_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_backend(42)

    def test_exact_vs_lowered_flags(self):
        assert BACKENDS["numpy"].exact and not BACKENDS["numpy"].lowered
        assert BACKENDS["numpy-f32"].lowered and not BACKENDS["numpy-f32"].exact
        assert BACKENDS["numba"].scoring_dtype == np.float64
        assert BACKENDS["numba-f32"].scoring_dtype == np.float32

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed; no fallback")
    def test_unavailable_backend_falls_back_with_warning(self):
        with pytest.warns(BackendFallbackWarning, match="falling back"):
            assert resolve_backend("numba") is BACKENDS["numpy"]
        with pytest.warns(BackendFallbackWarning):
            assert resolve_backend("numba-f32") is BACKENDS["numpy-f32"]

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numba_resolves_when_available(self):
        assert resolve_backend("numba") is BACKENDS["numba"]


class TestDefaultScoping:
    def test_use_context_scopes_and_restores_backend(self):
        before = current_context().backend
        with use_context(backend="numpy-f32") as active:
            assert active.backend is BACKENDS["numpy-f32"]
            assert resolve_backend(None) is active.backend
        assert current_context().backend is before

    def test_use_context_backend_reaches_new_trees(self):
        backend = BACKENDS["numpy-f32"]
        with use_context(backend=backend):
            # Trees built inside the scope snapshot its backend.
            tree = KDTree(np.zeros((4, 2)) + np.arange(4)[:, None])
        assert tree.backend is backend
        assert KDTree(np.arange(8.0).reshape(4, 2)).backend is current_context().backend

    def test_use_context_none_keeps_current_backend(self):
        before = current_context().backend
        with use_context(backend=None) as active:
            assert active.backend is before

    def test_env_var_initializes_default(self):
        code = (
            "from repro.core.context import current_context;"
            "print(current_context().backend.name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_BACKEND": "numpy-f32"},
        )
        assert out.stdout.strip() == "numpy-f32"

    def test_env_var_bad_name_warns_and_keeps_numpy(self):
        code = (
            "import warnings; warnings.simplefilter('ignore');"
            "from repro.core.context import current_context;"
            "print(current_context().backend.name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_BACKEND": "not-a-backend"},
        )
        assert out.stdout.strip() == "numpy"


class TestLowering:
    def test_lower_points_exact_is_alias(self, points):
        assert BACKENDS["numpy"].lower_points(points) is points

    def test_lower_points_f32_copies_once(self, points):
        lowered = BACKENDS["numpy-f32"].lower_points(points)
        assert lowered.dtype == np.float32
        # Already-lowered input passes through without another copy.
        assert BACKENDS["numpy-f32"].lower_points(lowered) is lowered

    def test_tree_scoring_points(self, points):
        exact_tree = KDTree(points, backend="numpy")
        assert exact_tree.flat.scoring_points is exact_tree.flat.points
        lowered_tree = KDTree(points, backend="numpy-f32")
        assert lowered_tree.flat.scoring_points.dtype == np.float32
        assert lowered_tree.flat.points.dtype == np.float64
        # Node arrays follow the scoring dtype.
        assert lowered_tree.flat.node_lower.dtype == np.float32
        assert exact_tree.flat.node_lower.dtype == np.float64

    def test_lowered_knn_distances_are_exact_float64(self, points):
        idx64, dist64 = knn_bruteforce(points, 5, backend="numpy")
        idx32, dist32 = knn_bruteforce(points, 5, backend="numpy-f32")
        assert dist32.dtype == np.float64
        np.testing.assert_allclose(dist32, dist64, rtol=1e-6, atol=1e-7)

    def test_lowered_tree_knn_matches(self, points):
        tree64 = KDTree(points, leaf_size=8, backend="numpy")
        tree32 = KDTree(points, leaf_size=8, backend="numpy-f32")
        idx64, dist64 = knn(tree64, 5)
        idx32, dist32 = knn(tree32, 5)
        assert dist32.dtype == np.float64
        np.testing.assert_allclose(dist32, dist64, rtol=1e-6, atol=1e-7)

    def test_lowered_emst_weights_are_refined_float64(self, points):
        exact = emst(points, backend="numpy")
        lowered = emst(points, backend="numpy-f32")
        weights = lowered.edges.as_arrays()[2]
        assert weights.dtype == np.float64
        # Selections may swap near-ties; the weight profile stays put.
        np.testing.assert_allclose(
            np.sort(weights),
            np.sort(exact.edges.as_arrays()[2]),
            rtol=1e-5,
            atol=1e-7,
        )

    def test_float32_input_rides_without_upcast(self, points):
        lowered = BACKENDS["numpy-f32"]
        f32 = np.ascontiguousarray(points, dtype=np.float32)
        assert lowered.lower_points(f32) is f32


class TestKernelParity:
    """Backend kernels against the metric's own reference kernels."""

    @pytest.mark.parametrize("name", ("euclidean", "manhattan", "minkowski:3"))
    def test_cross_distances_delegates(self, name, points):
        metric = resolve_metric(name)
        a, b = points[:40], points[40:90]
        expected = metric.cross_distances(a, b)
        for backend_name in available_backends():
            got = BACKENDS[backend_name].cross_distances(metric, a, b)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_knn_chunk_matches_bruteforce(self, points):
        idx, dist = BACKENDS["numpy"].knn_chunk(EUCLIDEAN, points, points, 4)
        full = EUCLIDEAN.cross_distances(points, points)
        expected = np.sort(full, axis=1)[:, :4]
        np.testing.assert_allclose(dist, expected, rtol=1e-12)


class TestEstimatorBackendParam:
    def test_get_set_params_roundtrip(self):
        model = EMST(backend="numpy-f32")
        params = model.get_params()
        assert params["backend"] == "numpy-f32"
        model.set_params(backend="numpy")
        assert model.backend == "numpy"
        hdb = HDBSCAN()
        assert "backend" in hdb.get_params()
        hdb.set_params(backend="numpy-f32")
        assert hdb.get_params()["backend"] == "numpy-f32"

    def test_bad_backend_fails_fast(self, points):
        with pytest.raises(InvalidParameterError, match="available backends"):
            EMST(backend="nope").fit(points)
        with pytest.raises(InvalidParameterError, match="available backends"):
            HDBSCAN(backend="nope").fit(points)

    def test_lowered_fit_produces_float64(self, points):
        model = EMST(backend="numpy-f32").fit(points)
        assert model.weights_.dtype == np.float64
        reference = EMST(backend="numpy").fit(points)
        assert model.total_weight_ == pytest.approx(
            reference.total_weight_, rel=1e-5
        )


class TestEntryPointFallback:
    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed; no fallback")
    def test_emst_numba_falls_back(self, points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = emst(points[:50], backend="numba")
        assert any(
            issubclass(w.category, BackendFallbackWarning) for w in caught
        )
        assert result.num_edges == 49

    def test_custom_backend_instance(self, points):
        backend = KernelBackend("numpy", np.float64)
        result = emst(points[:50], backend=backend)
        assert result.num_edges == 49
