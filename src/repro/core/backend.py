"""Compiled-kernel backend registry with float32 lowering.

The Metric refactor made distance computation a seam; this module makes the
*implementation* of the hot kernels behind that seam pluggable.  A
:class:`KernelBackend` bundles the three kernels the profile says dominate —
the pairwise-distance block, the BCCP inner loop, and the brute-force
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

Contract: backends whose scoring dtype is float64 are **exact** — every
BCCP winner is the row-major first candidate attaining the pair's exact
minimum (see :mod:`repro.wspd.bccp`), so they select the trees the default
backend selects, winner identity included, and the reported edge weights
come from the shared exact float64 kernel.  Lowered (float32-scoring)
backends are contractually *approximate*: selections may differ within
float32 resolution, and the conformance matrix gates them with bounded
weight/edge agreement instead of byte-identity — the same shape of
guarantee the (1+eps) subsystem uses.

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


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def _window_ids(index, start, size, width) -> Tuple[np.ndarray, np.ndarray]:
    """``(g, width)`` ids of index windows padded to ``width`` (overhang
    slots repeat the window's last member) and their validity mask."""
    col = np.arange(width, dtype=np.int64)[None, :]
    pos = np.minimum(col, size[:, None] - 1)
    pos += start[:, None]
    return np.take(index, pos), col < size[:, None]


def _certified_band(metric: Metric, dim: int, pts_a=None, pts_b=None):
    """``(factor, offset)`` bounding a scoring kernel against the exact one.

    A candidate's score ``s`` and the score ``t`` of its exact
    :meth:`Metric.diff_norms` value satisfy ``t <= s * factor + offset``
    and ``s <= t * factor + offset``.

    Given the padded ``(g, p, d)`` blocks, the band covers
    :meth:`Metric.block_cross_scores` over them, in the domain of
    :meth:`Metric.scores_of`.  For Euclidean that is the squared domain,
    where the expansion's error bound already lives: ``-2 a.b + |a|^2 +
    |b|^2`` lies within ``(2d + 8) eps (|a|^2 + |b|^2)`` of the real
    ``|a - b|^2``, and so does the rounded square ``t`` of the exact value
    ``x`` (a rounded root of ``d`` rounded squares).  ``c = 16d + 64``
    covers both with margin, ``|a|^2 + |b|^2`` is bounded through the
    blocks' largest coordinate, and the offset carries no relative part.
    The per-axis kernels score distances themselves: the same rounded terms
    summed in another order, a relative error.  Without blocks the band
    covers the compiled difference-and-norm scan, which works in the
    distance domain (relative too).  The offset floor bounds subnormal
    rounding, which a root of order ``p`` amplifies.

    Core distances enter both sides through the same nondecreasing map:
    a mutual-reachability score ``max(s, scores_of(cd_u), scores_of(cd_v))``
    lies in the band of the exact one's score, since ``max`` with a common
    term keeps the bound.  Rounding ``scores_of(cd)`` (a square) can merge
    two different values into one score but never reverse them, so it only
    adds ties, and ties only send a pair to the exact step.
    """
    c = 16.0 * dim + 64.0
    euclidean = isinstance(metric, EuclideanMetric)
    if pts_a is not None and euclidean:
        scale = float(max(pts_a.max(), -pts_a.min(), pts_b.max(), -pts_b.min()))
        norms = 2.0 * dim * scale * scale  # bounds |a|^2 + |b|^2
        return 1.0, c * (_EPS * norms + _TINY)
    order = 2.0 if euclidean else getattr(metric, "p", 1.0)
    offset = 0.0 if order == 1.0 else 2.0 * (c * _TINY) ** (1.0 / order)
    return 1.0 + c * _EPS, offset


def _exact_first_minimum(
    metric, points, core_distances, score, value, limit, pairs, idx_a, idx_b,
    factor, offset,
) -> np.ndarray:
    """Flat row-major position of the exact-minimum winner of each of the
    class pairs ``pairs``.

    A candidate whose mutual-reachability score lies within its pair's
    ``limit`` can attain, or tie, its pair's exact minimum.  One whose core
    distance's score exceeds its certified bound ``score * factor +
    offset`` is exact already: its value *is* ``max(cd_u, cd_v)``.  The
    others are evaluated with :meth:`Metric.exact_edge_weights`.
    """
    pair, pos_a, pos_b = np.nonzero(value[pairs] <= limit[pairs, None, None])
    row = pairs[pair]
    u, v = idx_a[row, pos_a], idx_b[row, pos_b]
    if core_distances is None:
        exact = metric.exact_edge_weights(points, u, v)
    else:
        exact = np.maximum(core_distances[u], core_distances[v])
        open_ = score[row, pos_a, pos_b] * factor + offset >= metric.scores_of(exact)
        exact[open_] = metric.exact_edge_weights(
            points, u[open_], v[open_], core_distances
        )
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    counts = np.diff(np.append(starts, pair.size))
    at_min = exact == np.repeat(np.minimum.reduceat(exact, starts), counts)
    first = np.minimum.reduceat(
        np.where(at_min, np.arange(pair.size), pair.size), starts
    )
    return pos_a[first] * score.shape[2] + pos_b[first]


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
        index: np.ndarray,
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
        """Resolve one padded size class of BCCP pairs.

        Pair ``r`` is the cross product of the index windows
        ``index[start_a[r] : start_a[r] + size_a[r]]`` and likewise for
        ``b``, scanned in row-major order.  ``points`` is the *scoring* array
        (float32 under a lowered backend); winners land in ``out_pa`` /
        ``out_pb`` at ``rows`` and the caller re-evaluates their weights
        exactly in float64.

        The NumPy implementation scores every padded block with
        :meth:`Metric.block_cross_scores` in the calling thread's workspace
        (squared distances for Euclidean, never rooted); padded slots, which
        repeat the window's last member, score ``+inf``.  Under core
        distances a second workspace tensor takes the maximum with their
        :meth:`Metric.scores_of`, leaving the raw scores for the exact step.
        On an exact backend every exact value's score lies within the
        certified band of :func:`_certified_band` around the candidate's
        score, so the row-major argmin is the winner when its pair's second
        minimum (the argmin masked) lies outside the band of it; the few
        pairs where it does not go to :func:`_exact_first_minimum`.  Either
        way the winner is the row-major first candidate attaining the pair's
        exact minimum.  A lowered backend keeps the plain argmin of its
        float32 scores.
        """
        g = rows.size
        idx_a, valid_a = _window_ids(index, start_a, size_a, p_a)
        idx_b, valid_b = _window_ids(index, start_b, size_b, p_b)
        # ``np.take`` gathers whole rows several times faster than fancy
        # indexing does.
        pts_a = np.take(points, idx_a, axis=0)  # (g, p_a, d)
        pts_b = np.take(points, idx_b, axis=0)  # (g, p_b, d)
        score = metric.block_cross_scores(pts_a, pts_b, workspace, valid_a, valid_b)
        value = score
        if core_distances is not None:
            value = workspace.take("bccp.value", score.shape, dtype=score.dtype)
            cd_a = metric.scores_of(core_distances[idx_a])
            cd_b = metric.scores_of(core_distances[idx_b])
            np.maximum(score, cd_a[:, :, None], out=value)
            np.maximum(value, cd_b[:, None, :], out=value)

        flat = value.reshape(g, p_a * p_b)
        winners = flat.argmin(axis=1)
        arange_g = np.arange(g, dtype=np.int64)
        if self.exact:
            # Only candidates within the band of the pair's minimum can
            # attain (or tie) the exact minimum; alone in the band, the
            # argmin is the winner.
            factor, offset = _certified_band(
                metric, points.shape[1], pts_a, pts_b
            )
            best = flat[arange_g, winners]
            limit = (best * factor + offset) * factor + offset
            flat[arange_g, winners] = np.inf
            second = flat.min(axis=1)
            flat[arange_g, winners] = best
            ambiguous = np.flatnonzero(second <= limit)
            if ambiguous.size:
                winners[ambiguous] = _exact_first_minimum(
                    metric, points, core_distances, score, value, limit,
                    ambiguous, idx_a, idx_b, factor, offset,
                )
        win_i, win_j = np.divmod(winners, p_b)
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
        index: np.ndarray,
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
                metric, points, index, core_distances, start_a, size_a,
                start_b, size_b, p_a, p_b, rows, out_pa, out_pb, workspace,
            )
            return
        # The compiled loop scans candidates directly: no padding, no
        # distance tensor.  On an exact backend it flags every pair whose
        # certified minimum has a rival within the band, and the NumPy class
        # kernel resolves those exactly.
        use_cd = core_distances is not None
        if use_cd:
            cd = np.ascontiguousarray(core_distances, dtype=points.dtype)
        else:
            cd = np.zeros(1, dtype=points.dtype)
        factor, offset = _certified_band(metric, points.shape[1])
        if not self.exact:
            factor, offset = 1.0, 0.0
        chunk_pa = np.empty(rows.size, dtype=np.int64)
        chunk_pb = np.empty(rows.size, dtype=np.int64)
        flagged = np.zeros(rows.size, dtype=np.bool_)
        _numba_kernels.bccp_pairs_kernel(
            points, index, start_a, size_a, start_b, size_b,
            cd, use_cd, mode[0], mode[1], factor, offset,
            chunk_pa, chunk_pb, flagged,
        )
        out_pa[rows] = chunk_pa
        out_pb[rows] = chunk_pb
        if self.exact and flagged.any():
            sub = np.flatnonzero(flagged)
            super().bccp_class(
                metric, points, index, core_distances, start_a[sub],
                size_a[sub], start_b[sub], size_b[sub], p_a, p_b, rows[sub],
                out_pa, out_pb, workspace,
            )

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
