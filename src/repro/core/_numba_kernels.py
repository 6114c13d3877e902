"""Numba-jitted hot kernels for the compiled backend (import-gated).

This module compiles the three kernels the profile says dominate — the
pairwise-distance block, the BCCP inner loop and the brute-force k-NN
selection — as ``@njit(cache=True, nogil=True)`` functions.  ``nogil`` makes
them parallel-safe inside the existing :class:`~repro.parallel.pool.WorkerPool`
shards (the pool's threads run them truly concurrently, like NumPy's own
GIL-releasing C kernels), and ``cache=True`` persists the compiled machine
code next to the source so only the first process ever pays the JIT cost.

The metric is passed *by code*, not by object: ``MODE_EUCLIDEAN`` /
``MODE_MANHATTAN`` / ``MODE_CHEBYSHEV`` / ``MODE_MINKOWSKI`` plus a float
order ``p`` (ignored except for Minkowski).  A metric the codes cannot
express makes :func:`repro.core.backend.metric_mode` return ``None`` and the
backend falls back to the metric's own NumPy kernels, so custom
:class:`~repro.core.metric.Metric` subclasses keep working on every backend.

Precision notes: the jitted Euclidean kernel accumulates squared coordinate
differences directly (difference-and-norm), which is *more* accurate than the
BLAS expansion trick the NumPy kernels use but not bit-identical to either
it or the exact :meth:`Metric.diff_norms` kernel.  So the BCCP scan works
with a certified relative band around each distance: it flags every pair
whose first minimum it cannot certify to be the exact-rule winner, the
shared NumPy exact step resolves those, and the reported weights come from
the exact float64 kernel.  Exact float64 results therefore always agree
with the NumPy backend, winner identity included.  k-NN neighbour sets are
selected here without such a band.

Importing this module raises ``ImportError`` when numba is absent; only
:mod:`repro.core.backend` imports it, inside a guard.
"""

from __future__ import annotations

import numpy as np
from numba import njit

#: Metric codes understood by the kernels (must stay in sync with
#: :func:`repro.core.backend.metric_mode`).
MODE_EUCLIDEAN = 0
MODE_MANHATTAN = 1
MODE_CHEBYSHEV = 2
MODE_MINKOWSKI = 3

_JIT = dict(cache=True, nogil=True)


@njit(inline="always", **_JIT)
def _point_distance(points_a, ia, points_b, ib, mode, p):
    """Distance between row ``ia`` of ``points_a`` and row ``ib`` of ``points_b``."""
    d = points_a.shape[1]
    if mode == MODE_EUCLIDEAN:
        acc = 0.0
        for axis in range(d):
            diff = points_a[ia, axis] - points_b[ib, axis]
            acc += diff * diff
        return np.sqrt(acc)
    if mode == MODE_MANHATTAN:
        acc = 0.0
        for axis in range(d):
            acc += abs(points_a[ia, axis] - points_b[ib, axis])
        return acc
    if mode == MODE_CHEBYSHEV:
        acc = 0.0
        for axis in range(d):
            diff = abs(points_a[ia, axis] - points_b[ib, axis])
            if diff > acc:
                acc = diff
        return acc
    acc = 0.0
    for axis in range(d):
        acc += abs(points_a[ia, axis] - points_b[ib, axis]) ** p
    return acc ** (1.0 / p)


@njit(**_JIT)
def cross_distances_kernel(a, b, mode, p, out):
    """Dense ``(len(a), len(b))`` distance matrix into the preallocated ``out``."""
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = _point_distance(a, i, b, j, mode, p)


@njit(**_JIT)
def bccp_pairs_kernel(
    points,
    index,
    start_a,
    size_a,
    start_b,
    size_b,
    core_distances,
    use_cd,
    mode,
    p,
    factor,
    offset,
    out_pa,
    out_pb,
    flagged,
):
    """BCCP (or BCCP* when ``use_cd``) winners of a chunk of window pairs.

    Pair ``r`` is the cross product of ``index[start_a[r] : + size_a[r]]``
    and the ``b`` window, scanned row-major without ever materializing the
    distance tensor.  Each candidate's value is the certified upper bound
    ``max(dist * factor + offset, cd_u, cd_v)`` on its exact weight; when
    the core-distance term reaches it, the bound *is* the exact weight.
    The scan keeps the strict row-major first minimum and sets
    ``flagged[r]`` when another candidate's lower bound reaches it (only
    candidates not exact already count once the minimum itself is exact):
    exactly the pairs whose winner the scan cannot certify.  With
    ``factor = 1, offset = 0`` it is the plain first-minimum scan.
    ``core_distances`` must be a length-1 dummy when ``use_cd`` is false.
    """
    for r in range(start_a.shape[0]):
        best = np.inf
        best_exact = False
        rival = np.inf
        rival_open = np.inf
        best_u = np.int64(-1)
        best_v = np.int64(-1)
        for ii in range(size_a[r]):
            u = index[start_a[r] + ii]
            cd_u = core_distances[u] if use_cd else 0.0
            for jj in range(size_b[r]):
                v = index[start_b[r] + jj]
                bound = (
                    _point_distance(points, u, points, v, mode, p) * factor
                    + offset
                )
                cd = cd_u
                if use_cd and core_distances[v] > cd:
                    cd = core_distances[v]
                exact = cd >= bound
                if exact:
                    bound = cd
                if bound < best:
                    if best < rival:
                        rival = best
                    if not best_exact and best < rival_open:
                        rival_open = best
                    best = bound
                    best_exact = exact
                    best_u = u
                    best_v = v
                else:
                    if bound < rival:
                        rival = bound
                    if not exact and bound < rival_open:
                        rival_open = bound
        out_pa[r] = best_u
        out_pb[r] = best_v
        limit = (best * factor + offset) * factor + offset
        flagged[r] = (rival_open if best_exact else rival) <= limit


@njit(**_JIT)
def knn_chunk_kernel(queries, data, k, mode, p, out_idx, out_dist):
    """Exact k smallest distances from each query row to every data row.

    Per query, a bounded insertion list (sorted ascending) replaces the
    NumPy ``argpartition`` + sort; neighbours come out already ordered by
    increasing distance.  O(n log k)-ish with small constants — and no
    ``(rows, n)`` distance matrix is ever materialized.
    """
    n = data.shape[0]
    for qi in range(queries.shape[0]):
        count = 0
        worst = np.inf
        for j in range(n):
            dist = _point_distance(queries, qi, data, j, mode, p)
            if count < k:
                # Insertion into the not-yet-full list.
                pos = count
                while pos > 0 and out_dist[qi, pos - 1] > dist:
                    out_dist[qi, pos] = out_dist[qi, pos - 1]
                    out_idx[qi, pos] = out_idx[qi, pos - 1]
                    pos -= 1
                out_dist[qi, pos] = dist
                out_idx[qi, pos] = j
                count += 1
                worst = out_dist[qi, count - 1]
            elif dist < worst:
                pos = k - 1
                while pos > 0 and out_dist[qi, pos - 1] > dist:
                    out_dist[qi, pos] = out_dist[qi, pos - 1]
                    out_idx[qi, pos] = out_idx[qi, pos - 1]
                    pos -= 1
                out_dist[qi, pos] = dist
                out_idx[qi, pos] = j
                worst = out_dist[qi, k - 1]


def warmup(dtype=np.float64) -> None:
    """Compile (or load from cache) every kernel for ``dtype`` points.

    Benchmarks call this before timing so the first measured iteration is not
    a JIT compilation.
    """
    pts = np.zeros((2, 2), dtype=dtype)
    out = np.zeros((2, 2), dtype=dtype)
    cross_distances_kernel(pts, pts, MODE_EUCLIDEAN, 2.0, out)
    perm = np.arange(2, dtype=np.int64)
    one = np.zeros(1, dtype=np.int64)
    two = np.full(1, 2, dtype=np.int64)
    pa = np.empty(1, dtype=np.int64)
    pb = np.empty(1, dtype=np.int64)
    flagged = np.zeros(1, dtype=np.bool_)
    cd = np.zeros(2, dtype=dtype)
    bccp_pairs_kernel(
        pts, perm, one, two, one, two, cd, True, MODE_EUCLIDEAN, 2.0,
        1.0, 0.0, pa, pb, flagged,
    )
    oidx = np.empty((2, 1), dtype=np.int64)
    odist = np.empty((2, 1), dtype=dtype)
    knn_chunk_kernel(pts, pts, 1, MODE_EUCLIDEAN, 2.0, oidx, odist)
