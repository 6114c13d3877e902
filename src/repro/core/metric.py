"""Pluggable distance metrics: the geometry core every layer dispatches on.

A :class:`Metric` bundles the vectorized distance kernels (point-point,
point-block, pairwise, exact edge weights, batched BCCP block tensors)
together with the geometric bounds the upper layers need (point-to-box gaps,
bounding-"sphere" radii derived from box extents).  The kd-tree stores its
per-node radii under the metric it was built with, so the WSPD separation
predicates, the MemoGFK window bounds, the BCCP kernels and the k-NN
traversals all stay metric-correct without any per-call plumbing: the metric
rides the tree.

**One exact kernel per metric.**  :meth:`Metric.diff_norms` is the only
kernel that produces an *exact* pair distance: the k-NN fold (and so every
core distance), :meth:`Metric.exact_edge_weights` (every MST and mutual
reachability weight), :meth:`Metric.vector_norm` / :meth:`point_distance`
and the kd-tree's point-to-box and box-to-box gaps all derive from it, on
C-contiguous rows, so one pair ``(u, v)`` has one float64 value wherever it
is read.  The expansion kernels (:meth:`cross_distances`,
:meth:`block_cross_distances`) only *score* candidates; every winner they
pick is re-evaluated through :meth:`diff_norms`.

Every metric here is induced by a norm (``d(x, y) = ||x - y||``), so the
bounding-volume reasoning the paper does with Euclidean spheres carries over
unchanged: the circumscribing "sphere" of a box with extent ``e`` has radius
``||e|| / 2`` around the box center, sphere-to-sphere gaps lower-bound and
center-distance-plus-radii upper-bound the point distances (triangle
inequality only), and the point-to-box minimum distance is the norm of the
per-axis gap vector.

Supported metrics:

* ``euclidean`` (L2) — the scoring kernels compare in squared space (the
  ``|x|^2 + |y|^2 - 2 x.y`` BLAS expansion); the BCCP kernel ranks those
  squared scores directly and only the distance kernels take the
  clamp-and-sqrt;
* ``manhattan`` (L1, a.k.a. cityblock/taxicab);
* ``chebyshev`` (L∞, a.k.a. maximum/chessboard);
* ``minkowski`` with a general order ``p >= 1`` (``p`` of 1, 2 or ``inf``
  canonicalize to the dedicated classes above).

The non-Euclidean batch kernels never materialize an ``(…, d)``-times-larger
difference tensor: they accumulate ``|a_j - b_j|^p`` one coordinate axis at a
time into a distance-shaped accumulator plus one same-shaped axis scratch, so
a BCCP chunk holds two distance-shaped tensors under them against one under
the Euclidean expansion (:attr:`Metric.score_tensors`), and the BCCP chunk
sizing counts that.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.core.errors import InvalidParameterError

MetricLike = Union[None, str, "Metric"]


def _as_float(array: np.ndarray) -> np.ndarray:
    """Coerce to a floating dtype, *preserving* float32.

    The dense kernels are dtype-polymorphic so the lowered (float32-scoring)
    backends can run them at half the memory traffic; every other input dtype
    is promoted to float64 exactly as before.
    """
    array = np.asarray(array)
    if array.dtype == np.float32:
        return array
    return np.asarray(array, dtype=np.float64)


class Metric:
    """A norm-induced distance metric and its batched kernels.

    Subclasses implement the row-norm primitive :meth:`_row_norms` (exposed
    as :meth:`diff_norms`, the one exact pair-distance kernel) plus the dense
    scoring kernels that have metric-specific fast paths.  The dense kernels
    are dtype-polymorphic over float64 and float32 (float32 inputs score in
    float32 — the lowered-backend fast path; every other dtype promotes to
    float64); the scalar kernels and :meth:`exact_edge_weights` always
    compute in float64.  Inputs are assumed validated by the callers (the
    public entry points coerce through :func:`repro.core.points.as_points`).
    """

    #: Canonical metric name (``"euclidean"``, ``"manhattan"``, …).
    name: str = "metric"

    #: Chunk-shaped workspace tensors :meth:`block_cross_scores` holds at once.
    score_tensors: int = 1

    # -- identity ------------------------------------------------------------

    def spec(self) -> str:
        """Canonical string form, parseable by :func:`resolve_metric`."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Metric) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())

    # -- scalar kernels ------------------------------------------------------

    def vector_norm(self, vector) -> float:
        """Norm of a single 1-d coordinate vector: one row of :meth:`diff_norms`."""
        row = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        return float(self.diff_norms(row)[0])

    def point_distance(self, p, q) -> float:
        """Distance between two points given as 1-d coordinate arrays."""
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64):
            p = np.asarray(p, dtype=np.float64)
        if not (isinstance(q, np.ndarray) and q.dtype == np.float64):
            q = np.asarray(q, dtype=np.float64)
        return self.vector_norm(p - q)

    # -- batched row kernels -------------------------------------------------

    def diff_norms(self, diff: np.ndarray) -> np.ndarray:
        """Row norms of an ``(m, d)`` array of difference (or gap) vectors.

        The one exact pair-distance kernel.  Rows are reduced in C-contiguous
        layout: a row's value then depends only on its own coordinates, not
        on the batch size, its position or the caller's memory order (numpy
        sums an F-ordered or strided row in a different order).
        """
        return self._row_norms(np.ascontiguousarray(diff))

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        """Row norms of a C-contiguous ``(m, d)`` array."""
        raise NotImplementedError

    def distances_to_point(self, points: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Distances from every row of ``points`` to a single ``query`` point."""
        return self.diff_norms(points - query)

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(len(a), len(b))`` matrix of distances between two point sets."""
        raise NotImplementedError

    def pairwise_distances(self, points: np.ndarray) -> np.ndarray:
        """Full ``(n, n)`` distance matrix of a point set."""
        points = _as_float(points)
        return self.cross_distances(points, points)

    def exact_edge_weights(
        self,
        points: np.ndarray,
        index_a: np.ndarray,
        index_b: np.ndarray,
        core_distances: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact edge weights for parallel arrays of point indices.

        The scoring kernels may trade a few digits for batching (the Euclidean
        expansion loses them to cancellation); MST edge weights must be exact,
        so winning pairs are re-evaluated through :meth:`diff_norms` — the
        same kernel the k-NN fold reads core distances from, so a weight
        that ties a core distance ties it bit for bit.  With
        ``core_distances`` the returned weight is the mutual reachability
        distance ``max(cd(u), cd(v), d(u, v))``.
        """
        index_a = np.asarray(index_a, dtype=np.int64)
        index_b = np.asarray(index_b, dtype=np.int64)
        weights = self.diff_norms(points[index_a] - points[index_b])
        if core_distances is not None:
            np.maximum(weights, core_distances[index_a], out=weights)
            np.maximum(weights, core_distances[index_b], out=weights)
        return weights

    def scores_of(self, distances: np.ndarray) -> np.ndarray:
        """The scoring domain of :meth:`block_cross_scores`: a nondecreasing
        map of distances (identity here).  The BCCP kernel compares core
        distances in it; being monotone, its rounding can merge two values
        into a tie but never reverse their order."""
        return distances

    def block_cross_scores(
        self,
        pts_a: np.ndarray,
        pts_b: np.ndarray,
        workspace,
        valid_a: Optional[np.ndarray] = None,
        valid_b: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched BCCP score tensor: ``(g, p_a, d) × (g, p_b, d) → (g, p_a, p_b)``.

        Entry ``[r, i, j]`` scores the pair ``(pts_a[r, i], pts_b[r, j])``
        in the domain of :meth:`scores_of`, within the certified band of
        :func:`repro.core.backend._certified_band`.  Slots whose ``(g, p)``
        validity mask is false score ``+inf``.  ``workspace`` is the
        calling thread's reusable buffer pool
        (:func:`repro.parallel.pool.current_workspace`); the tensor aliases
        its ``"bccp.cross"`` buffer and is valid until that key is taken
        again, which matches how the BCCP size-class kernel consumes it.
        """
        raise NotImplementedError

    def block_cross_distances(
        self, pts_a: np.ndarray, pts_b: np.ndarray, workspace
    ) -> np.ndarray:
        """Batched distance tensor: :meth:`block_cross_scores` mapped back to
        distances in place (the identity here)."""
        return self.block_cross_scores(pts_a, pts_b, workspace)

    # -- geometric bounds ----------------------------------------------------

    def box_radii(self, extent: np.ndarray) -> np.ndarray:
        """Circumscribing-sphere radius of boxes given their ``(m, d)`` extents.

        The farthest point of a box from its center is a corner, at distance
        ``||extent|| / 2`` under any norm-induced metric.
        """
        return 0.5 * self.diff_norms(extent)


class EuclideanMetric(Metric):
    """L2 metric.

    The dense scoring kernels compare in *squared* space (the
    ``|x|^2 + |y|^2 - 2 x.y`` BLAS expansion — the internal "sqeuclidean"
    fast path); exact distances are the einsum row sums of
    :meth:`diff_norms`.
    """

    name = "euclidean"

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def squared_distances_to_point(
        self, points: np.ndarray, query: np.ndarray
    ) -> np.ndarray:
        """Squared distances — the internal comparison-space fast path."""
        diff = points - query
        return np.einsum("ij,ij->i", diff, diff)

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = _as_float(a)
        b = _as_float(b)
        a_sq = np.einsum("ij,ij->i", a, a)
        b_sq = np.einsum("ij,ij->i", b, b)
        sq = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)

    def scores_of(self, distances: np.ndarray) -> np.ndarray:
        return np.square(distances)

    def block_cross_distances(self, pts_a, pts_b, workspace) -> np.ndarray:
        sq = self.block_cross_scores(pts_a, pts_b, workspace)
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq, out=sq)

    def block_cross_scores(
        self, pts_a, pts_b, workspace, valid_a=None, valid_b=None
    ) -> np.ndarray:
        g, p_a, _ = pts_a.shape
        p_b = pts_b.shape[1]
        # Squared distances, unclamped, in the one workspace tensor: the
        # cross terms of ``-2 a`` (scaling by -2 is exact) plus the row and
        # column norms, added in place.  Padded slots get an infinite norm,
        # so they score +inf with no pass of their own.
        score = workspace.take("bccp.cross", (g, p_a, p_b), dtype=pts_a.dtype)
        np.matmul(pts_a * -2.0, pts_b.transpose(0, 2, 1), out=score)
        sq_a = np.einsum("gpd,gpd->gp", pts_a, pts_a)
        sq_b = np.einsum("gqd,gqd->gq", pts_b, pts_b)
        if valid_a is not None:
            sq_a[~valid_a] = np.inf
            sq_b[~valid_b] = np.inf
        score += sq_a[:, :, None]
        score += sq_b[:, None, :]
        return score


class _AxisAccumulatingMetric(Metric):
    """Shared machinery for metrics computed as per-axis reductions.

    The dense kernels accumulate one coordinate axis at a time into a
    distance-shaped output, so peak memory stays at the size of the result
    (plus one same-shaped scratch buffer) regardless of dimensionality.
    Scores are the distances themselves.
    """

    score_tensors = 2

    def _accumulate(self, acc: np.ndarray, axis_abs_diff: np.ndarray) -> None:
        """Fold one axis's ``|a_j - b_j|`` into the running accumulator."""
        raise NotImplementedError

    def _finalize(self, acc: np.ndarray) -> np.ndarray:
        """Turn the accumulated per-axis folds into distances (in place)."""
        return acc

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = _as_float(a)
        b = _as_float(b)
        acc = np.zeros((a.shape[0], b.shape[0]), dtype=np.result_type(a, b))
        for axis in range(a.shape[1]):
            diff = a[:, axis, None] - b[None, :, axis]
            np.abs(diff, out=diff)
            self._accumulate(acc, diff)
        return self._finalize(acc)

    def block_cross_scores(
        self, pts_a, pts_b, workspace, valid_a=None, valid_b=None
    ) -> np.ndarray:
        g, p_a, d = pts_a.shape
        p_b = pts_b.shape[1]
        acc = workspace.take("bccp.cross", (g, p_a, p_b), dtype=pts_a.dtype)
        acc.fill(0.0)
        # The axis scratch shares its key with the BCCP kernel's
        # mutual-reachability tensor, which is only taken once scoring is
        # done: a chunk holds two tensors either way.
        diff = workspace.take("bccp.value", (g, p_a, p_b), dtype=pts_a.dtype)
        for axis in range(d):
            np.subtract(
                pts_a[:, :, None, axis], pts_b[:, None, :, axis], out=diff
            )
            np.abs(diff, out=diff)
            self._accumulate(acc, diff)
        acc = self._finalize(acc)
        if valid_a is not None:
            acc[~valid_a] = np.inf
            acc.transpose(0, 2, 1)[~valid_b] = np.inf
        return acc


class ManhattanMetric(_AxisAccumulatingMetric):
    """L1 metric (cityblock / taxicab)."""

    name = "manhattan"

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        return np.abs(diff).sum(axis=-1)

    def _accumulate(self, acc: np.ndarray, axis_abs_diff: np.ndarray) -> None:
        acc += axis_abs_diff


class ChebyshevMetric(_AxisAccumulatingMetric):
    """L∞ metric (maximum / chessboard)."""

    name = "chebyshev"

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        return np.abs(diff).max(axis=-1)

    def _accumulate(self, acc: np.ndarray, axis_abs_diff: np.ndarray) -> None:
        np.maximum(acc, axis_abs_diff, out=acc)


class MinkowskiMetric(_AxisAccumulatingMetric):
    """General Lp metric for a finite order ``p > 1`` (``p != 2``).

    Orders 1, 2 and ``inf`` canonicalize to the dedicated classes via
    :func:`resolve_metric`, which keeps their faster kernels in play.
    """

    name = "minkowski"

    def __init__(self, p: float) -> None:
        p = float(p)
        if not p >= 1.0 or math.isinf(p) or math.isnan(p):
            raise InvalidParameterError(
                f"minkowski order p must be a finite number >= 1, got {p!r}"
            )
        self.p = p

    def spec(self) -> str:
        p = self.p
        return f"minkowski:{int(p)}" if p == int(p) else f"minkowski:{p!r}"

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p!r})"

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        return (np.abs(diff) ** self.p).sum(axis=-1) ** (1.0 / self.p)

    def _accumulate(self, acc: np.ndarray, axis_abs_diff: np.ndarray) -> None:
        axis_abs_diff **= self.p
        acc += axis_abs_diff

    def _finalize(self, acc: np.ndarray) -> np.ndarray:
        acc **= 1.0 / self.p
        return acc


#: The process-wide Euclidean metric — the default everywhere, and the one
#: the byte-identity guarantees are stated against.
EUCLIDEAN = EuclideanMetric()
MANHATTAN = ManhattanMetric()
CHEBYSHEV = ChebyshevMetric()

_NAMED_METRICS = {
    "euclidean": EUCLIDEAN,
    "l2": EUCLIDEAN,
    "manhattan": MANHATTAN,
    "l1": MANHATTAN,
    "cityblock": MANHATTAN,
    "taxicab": MANHATTAN,
    "chebyshev": CHEBYSHEV,
    "linf": CHEBYSHEV,
    "chessboard": CHEBYSHEV,
    "maximum": CHEBYSHEV,
}

#: Metric names accepted by CLIs / estimators (``minkowski`` additionally
#: takes an order, e.g. ``minkowski:3``).
METRIC_NAMES = ("euclidean", "manhattan", "chebyshev", "minkowski")


def resolve_metric(metric: MetricLike = None, *, p: Optional[float] = None) -> Metric:
    """Normalize a metric argument into a :class:`Metric` instance.

    Accepts ``None`` (Euclidean, the default), a :class:`Metric` instance
    (returned as-is), or a string: a metric name (``"euclidean"``/"l2"``,
    ``"manhattan"``/"l1"``/"cityblock"``, ``"chebyshev"``/"linf"``,
    ``"minkowski"``) optionally carrying the Minkowski order inline as
    ``"minkowski:p"``.  ``p`` may also be given as a keyword for the
    ``"minkowski"`` name.  Orders 1, 2 and ``inf`` canonicalize to the
    dedicated L1 / L2 / L∞ metrics.
    """
    if metric is None:
        metric = EUCLIDEAN
    if isinstance(metric, Metric):
        if p is not None and getattr(metric, "p", p) != p:
            raise InvalidParameterError(
                f"metric {metric.spec()!r} conflicts with explicit p={p!r}"
            )
        return metric
    if not isinstance(metric, str):
        raise InvalidParameterError(
            f"metric must be a name, a Metric instance or None, got {metric!r}"
        )
    name = metric.strip().lower()
    if ":" in name:
        name, _, inline_p = name.partition(":")
        name = name.strip()
        try:
            inline_value = float(inline_p.strip())
        except ValueError:
            raise InvalidParameterError(
                f"could not parse minkowski order from {metric!r}"
            ) from None
        if p is not None and p != inline_value:
            raise InvalidParameterError(
                f"metric {metric!r} conflicts with explicit p={p!r}"
            )
        p = inline_value
    if name == "minkowski":
        if p is None:
            raise InvalidParameterError(
                "minkowski metric needs an order: pass 'minkowski:p' or p=..."
            )
        if p == 1.0:
            return MANHATTAN
        if p == 2.0:
            return EUCLIDEAN
        if math.isinf(p) and p > 0:
            return CHEBYSHEV
        return MinkowskiMetric(p)
    resolved = _NAMED_METRICS.get(name)
    if resolved is None:
        raise InvalidParameterError(
            f"unknown metric {metric!r}; choose from {sorted(set(METRIC_NAMES))} "
            "(minkowski takes an order, e.g. 'minkowski:3')"
        )
    implicit_order = {
        "manhattan": 1.0,
        "euclidean": 2.0,
        "chebyshev": math.inf,
    }[resolved.name]
    if p is not None and p != implicit_order:
        raise InvalidParameterError(
            f"metric {metric!r} conflicts with order p={p!r} "
            f"(it is fixed at p={implicit_order!r})"
        )
    return resolved
