"""Compiled-kernel backend registry with float32 lowering.

The Metric refactor made distance computation a seam; this module makes the
*implementation* of the hot kernels behind that seam pluggable.  A
:class:`KernelBackend` bundles the three kernels the profile says dominate —
the pairwise-distance block, the BCCP argmin inner loop, and the brute-force
k-NN selection — together with a **scoring dtype**:

* ``numpy`` — the default backend.  Pure delegation to the metric's own
  vectorized kernels; bit-for-bit the engine the byte-identity guarantees
  are stated against.
* ``numba`` — the same kernels JIT-compiled by numba (``cache=True``,
  ``nogil=True`` so they run truly concurrently inside the existing
  :class:`~repro.parallel.pool.WorkerPool` shards).  Optional: when numba is
  not installed the backend reports unavailable and resolution falls back to
  ``numpy`` with a :class:`BackendFallbackWarning` — selecting it never
  breaks an import or a run.
* ``numpy-f32`` / ``numba-f32`` — the *lowered* variants: candidate scoring
  (tree build, WSPD frontier masks, BCCP tensors, k-NN folds) runs on a
  float32 copy of the points, halving the memory traffic of the
  bandwidth-bound kernels, and only the surviving winners (MST edge
  endpoints, selected neighbours) are re-evaluated in exact float64.

Contract: backends whose scoring dtype is float64 are **exact** — they must
select the same trees the default backend selects (pinned by the conformance
matrix; only exact ties at the level of kernel rounding could differ, and the
reported edge weights always come from the shared exact float64 kernel
either way).  Lowered (float32-scoring) backends are contractually
*approximate*: selections may differ within float32 resolution, and the
conformance matrix gates them with bounded weight/edge agreement instead of
byte-identity — the same shape of guarantee the (1+eps) subsystem uses.

Selection order: per-call ``backend=`` argument > the ambient execution
context (:func:`repro.core.context.use_context`) > the ``REPRO_BACKEND``
environment variable read once at import > ``numpy``.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.metric import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
)

try:  # The compiled kernels are optional; everything degrades to numpy.
    from repro.core import _numba_kernels

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised by the no-numba CI leg
    _numba_kernels = None
    HAVE_NUMBA = False

BackendLike = Union[None, str, "KernelBackend"]


class BackendFallbackWarning(RuntimeWarning):
    """Warned when a requested backend is unavailable and numpy substitutes."""


def metric_mode(metric: Metric) -> Optional[Tuple[int, float]]:
    """Map a metric onto the compiled kernels' ``(mode, p)`` codes.

    Returns ``None`` for metrics the compiled kernels cannot express (custom
    :class:`Metric` subclasses); the numba backend then falls back to the
    metric's own NumPy kernels for that call.
    """
    if _numba_kernels is None:
        return None
    if type(metric) is EuclideanMetric:
        return _numba_kernels.MODE_EUCLIDEAN, 2.0
    if type(metric) is ManhattanMetric:
        return _numba_kernels.MODE_MANHATTAN, 1.0
    if type(metric) is ChebyshevMetric:
        return _numba_kernels.MODE_CHEBYSHEV, float("inf")
    if type(metric) is MinkowskiMetric:
        return _numba_kernels.MODE_MINKOWSKI, float(metric.p)
    return None


class KernelBackend:
    """The numpy backend: delegation to the metric's vectorized kernels.

    Subclasses override individual kernels; everything they do not override
    keeps the default NumPy path, so a backend only has to accelerate what it
    can and correctness never depends on coverage.

    Parameters
    ----------
    name:
        Registry name (``"numpy"``, ``"numpy-f32"``, …).
    scoring_dtype:
        dtype the *candidate-scoring* kernels run in.  float64 backends are
        exact; float32 backends are the lowered fast path (winners are still
        re-evaluated in float64 by the callers' exact-weight kernels).
    """

    def __init__(self, name: str, scoring_dtype=np.float64) -> None:
        self.name = name
        self.scoring_dtype = np.dtype(scoring_dtype)

    # -- identity ------------------------------------------------------------

    @property
    def lowered(self) -> bool:
        """Whether candidate scoring runs in float32 (approximate contract)."""
        return self.scoring_dtype == np.float32

    @property
    def exact(self) -> bool:
        """Whether the backend honours the byte-identity contract."""
        return not self.lowered

    def available(self) -> bool:
        """Whether the backend can run in this process (numpy always can)."""
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    # -- dtype lowering ------------------------------------------------------

    def lower_points(self, points: np.ndarray) -> np.ndarray:
        """The scoring-precision view of a point array.

        Exact backends return the input unchanged (no copy); lowered backends
        return a C-contiguous float32 copy (also no copy when the input is
        already float32, which is what the dtype-preserving
        :func:`~repro.core.points.as_points` boundary enables for embedding
        workloads).
        """
        if points.dtype == self.scoring_dtype and points.flags["C_CONTIGUOUS"]:
            return points
        return np.ascontiguousarray(points, dtype=self.scoring_dtype)

    # -- hot kernels ---------------------------------------------------------

    def cross_distances(
        self, metric: Metric, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Dense pairwise-distance block between two point arrays."""
        return metric.cross_distances(a, b)

    def bccp_class(
        self,
        metric: Metric,
        points: np.ndarray,
        perm: np.ndarray,
        core_distances: Optional[np.ndarray],
        start_a: np.ndarray,
        size_a: np.ndarray,
        start_b: np.ndarray,
        size_b: np.ndarray,
        p_a: int,
        p_b: int,
        rows: np.ndarray,
        out_pa: np.ndarray,
        out_pb: np.ndarray,
        workspace,
    ) -> None:
        """Resolve one padded size class of BCCP node pairs.

        ``points`` is the tree's *scoring* array (float32 under a lowered
        backend); winners land in ``out_pa`` / ``out_pb`` at ``rows`` and the
        caller re-evaluates their weights exactly in float64.  The NumPy
        implementation is the padded-tensor argmin the engine has always
        used: padded slots repeat the node's first point and are masked to
        ``+inf``, so the row-major argmin matches a dense per-pair
        ``cross_distances`` matrix's tie-breaking bit for bit.
        """
        g = rows.size
        cols_a = np.arange(p_a, dtype=np.int64)
        cols_b = np.arange(p_b, dtype=np.int64)
        mask_a = cols_a[None, :] >= size_a[:, None]
        mask_b = cols_b[None, :] >= size_b[:, None]
        idx_a = perm[start_a[:, None] + np.where(mask_a, 0, cols_a[None, :])]
        idx_b = perm[start_b[:, None] + np.where(mask_b, 0, cols_b[None, :])]

        pts_a = points[idx_a]  # (g, p_a, d)
        pts_b = points[idx_b]  # (g, p_b, d)
        # The metric's block kernel applies the same expansion, summation
        # kernels and rounding as its scalar ``cross_distances`` (for
        # Euclidean: einsum row norms, BLAS matmul cross terms, clamp, sqrt),
        # so the minimized values — and therefore the argmin tie-breaking —
        # agree with the dense per-pair matrix bit-for-bit.  The distance tensor —
        # the largest temporary — lives in the calling thread's reusable
        # workspace, so each pool worker allocates it once across all its
        # class chunks.
        dist = metric.block_cross_distances(pts_a, pts_b, workspace)
        if core_distances is not None:
            np.maximum(dist, core_distances[idx_a][:, :, None], out=dist)
            np.maximum(dist, core_distances[idx_b][:, None, :], out=dist)
        dist[np.broadcast_to(mask_a[:, :, None], dist.shape)] = np.inf
        dist[np.broadcast_to(mask_b[:, None, :], dist.shape)] = np.inf

        winners = np.argmin(dist.reshape(g, p_a * p_b), axis=1)
        win_i, win_j = np.divmod(winners, p_b)
        arange_g = np.arange(g, dtype=np.int64)
        out_pa[rows] = idx_a[arange_g, win_i]
        out_pb[rows] = idx_b[arange_g, win_j]

    def knn_chunk(
        self, metric: Metric, queries: np.ndarray, data: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """k smallest distances from each query row to every data row.

        Returns ``(indices, distances)`` of shape ``(len(queries), k)``,
        sorted by increasing distance.  One chunk materializes a
        ``(len(queries), len(data))`` distance block; ``argpartition``
        selects the k smallest before a final stable sort of only those k.
        """
        dists = self.cross_distances(metric, queries, data)
        part = np.argpartition(dists, k - 1, axis=1)[:, :k]
        rows = np.arange(queries.shape[0])[:, None]
        part_d = dists[rows, part]
        order = np.argsort(part_d, axis=1, kind="stable")
        return part[rows, order], part_d[rows, order]


class NumbaKernelBackend(KernelBackend):
    """Numba-jitted kernels; metric-general via the ``(mode, p)`` codes.

    Metrics the codes cannot express (custom subclasses) transparently fall
    back to the NumPy kernels call by call.  All jitted kernels run with
    ``nogil=True``, so WorkerPool shards execute them concurrently exactly
    like the NumPy C kernels they replace.
    """

    def available(self) -> bool:
        # The "no-numba" fault simulates numba import failure mid-session:
        # while armed, the compiled backend reports itself unavailable, so
        # resolution takes the documented numpy-fallback path (with its
        # BackendFallbackWarning) — the chaos suite pins that down.
        from repro.resilience.faults import fault_enabled

        if fault_enabled("no-numba"):
            return False
        return HAVE_NUMBA

    def warmup(self) -> None:
        """Pre-compile (or load the on-disk cache of) every kernel."""
        _numba_kernels.warmup(self.scoring_dtype)

    def cross_distances(
        self, metric: Metric, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        mode = metric_mode(metric)
        if mode is None:
            return super().cross_distances(metric, a, b)
        a = np.ascontiguousarray(a)
        b = np.ascontiguousarray(b)
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(a, b))
        _numba_kernels.cross_distances_kernel(a, b, mode[0], mode[1], out)
        return out

    def bccp_class(
        self,
        metric: Metric,
        points: np.ndarray,
        perm: np.ndarray,
        core_distances: Optional[np.ndarray],
        start_a: np.ndarray,
        size_a: np.ndarray,
        start_b: np.ndarray,
        size_b: np.ndarray,
        p_a: int,
        p_b: int,
        rows: np.ndarray,
        out_pa: np.ndarray,
        out_pb: np.ndarray,
        workspace,
    ) -> None:
        mode = metric_mode(metric)
        if mode is None:
            super().bccp_class(
                metric, points, perm, core_distances, start_a, size_a,
                start_b, size_b, p_a, p_b, rows, out_pa, out_pb, workspace,
            )
            return
        # The compiled loop scans candidates directly: no padding, no
        # distance tensor, same strict row-major first-minimum tie-breaking
        # as the padded argmin.
        use_cd = core_distances is not None
        if use_cd:
            cd = np.ascontiguousarray(core_distances, dtype=points.dtype)
        else:
            cd = np.zeros(1, dtype=points.dtype)
        chunk_pa = np.empty(rows.size, dtype=np.int64)
        chunk_pb = np.empty(rows.size, dtype=np.int64)
        _numba_kernels.bccp_pairs_kernel(
            points, perm, start_a, size_a, start_b, size_b,
            cd, use_cd, mode[0], mode[1], chunk_pa, chunk_pb,
        )
        out_pa[rows] = chunk_pa
        out_pb[rows] = chunk_pb

    def knn_chunk(
        self, metric: Metric, queries: np.ndarray, data: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        mode = metric_mode(metric)
        if mode is None:
            return super().knn_chunk(metric, queries, data, k)
        queries = np.ascontiguousarray(queries)
        data = np.ascontiguousarray(data)
        out_idx = np.empty((queries.shape[0], k), dtype=np.int64)
        out_dist = np.empty(
            (queries.shape[0], k), dtype=np.result_type(queries, data)
        )
        _numba_kernels.knn_chunk_kernel(
            queries, data, k, mode[0], mode[1], out_idx, out_dist
        )
        return out_idx, out_dist


#: The registry.  Order matters only for documentation; lookups are by name.
BACKENDS = {
    "numpy": KernelBackend("numpy", np.float64),
    "numpy-f32": KernelBackend("numpy-f32", np.float32),
    "numba": NumbaKernelBackend("numba", np.float64),
    "numba-f32": NumbaKernelBackend("numba-f32", np.float32),
}

#: Backend names accepted by CLIs / estimators.
BACKEND_NAMES = tuple(BACKENDS)

#: Substitution table for unavailable compiled backends (same contract,
#: interpreted kernels).
_FALLBACKS = {"numba": "numpy", "numba-f32": "numpy-f32"}


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can actually run in this process."""
    return tuple(
        name for name, backend in BACKENDS.items() if backend.available()
    )


def resolve_backend(backend: BackendLike = None) -> KernelBackend:
    """Normalize a backend argument into a usable :class:`KernelBackend`.

    ``None`` means the backend of the current execution context (see
    :func:`repro.core.context.use_context`; initialized from
    ``REPRO_BACKEND`` at import).  An unknown name raises listing the
    available backends; a known-but-unavailable backend (numba not installed) falls back to its numpy
    equivalent with a :class:`BackendFallbackWarning` — never an error, so
    environments without numba run everything, just slower.
    """
    if backend is None:
        from repro.core.context import current_context

        return current_context().backend
    if isinstance(backend, KernelBackend):
        resolved = backend
    elif isinstance(backend, str):
        resolved = BACKENDS.get(backend.strip().lower())
        if resolved is None:
            raise InvalidParameterError(
                f"unknown backend {backend!r}; available backends: "
                f"{sorted(available_backends())} "
                f"(registered: {sorted(BACKEND_NAMES)})"
            )
    else:
        raise InvalidParameterError(
            f"backend must be a name, a KernelBackend instance or None, "
            f"got {backend!r}"
        )
    if not resolved.available():
        substitute = BACKENDS[_FALLBACKS.get(resolved.name, "numpy")]
        warnings.warn(
            f"backend {resolved.name!r} is not available in this environment "
            f"(numba is not installed); falling back to {substitute.name!r}",
            BackendFallbackWarning,
            stacklevel=2,
        )
        return substitute
    return resolved
