"""Scikit-learn-style estimator facade over the functional pipelines.

The functional API (:func:`repro.emst.api.emst`,
:func:`repro.hdbscan.api.hdbscan`) is what the benchmarks and the paper
reproduction drive; production callers usually want the estimator shape that
scikit-learn established — construct with hyperparameters, ``fit`` on data,
read ``labels_``-style attributes, round-trip parameters through
``get_params`` / ``set_params``.  This module provides exactly that facade:
:class:`EMST` and :class:`HDBSCAN` validate and coerce inputs once at the
boundary (contiguous float64, clear errors for NaN/inf/empty), thread the
``metric``, ``backend`` and ``num_threads`` knobs through the engine, and
expose the fitted artifacts as plain NumPy attributes.

>>> from repro.estimators import HDBSCAN
>>> model = HDBSCAN(min_pts=10, metric="manhattan")
>>> labels = model.fit_predict(points)
>>> model.probabilities_  # per-point cluster membership strengths
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.approx import resolve_approx_method
from repro.core.backend import BackendLike, resolve_backend
from repro.core.budget import BudgetLike, resolve_memory_budget
from repro.core.errors import InvalidParameterError, NotComputedError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.dendrogram.condensed import hdbscan_labels_and_probabilities
from repro.dendrogram.extract import cut_num_clusters
from repro.dendrogram.sequential import dendrogram_sequential
from repro.emst.api import EMST_METHODS, emst
from repro.hdbscan.api import HDBSCAN_METHODS, hdbscan


class _ReproEstimator:
    """Minimal scikit-learn estimator protocol (params + fitted-state checks).

    Subclasses declare their constructor parameters in ``_parameter_names``;
    ``get_params`` / ``set_params`` operate on exactly that set, matching the
    sklearn contract (``set_params`` rejects unknown keys, returns ``self``
    so calls chain, and takes effect on the next ``fit``).
    """

    _parameter_names: tuple = ()

    def get_params(self, deep: bool = True) -> dict:
        """Constructor parameters as a dict (``deep`` accepted for sklearn
        compatibility; there are no nested estimators)."""
        return {name: getattr(self, name) for name in self._parameter_names}

    def set_params(self, **params) -> "_ReproEstimator":
        """Update constructor parameters; unknown names raise."""
        for name, value in params.items():
            if name not in self._parameter_names:
                raise InvalidParameterError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(self._parameter_names)}"
                )
            setattr(self, name, value)
        return self

    def __getattr__(self, name: str):
        # Only reached when normal attribute lookup fails: a trailing
        # underscore marks a fitted artifact, so accessing one before fit()
        # raises the library's "not computed" error instead of a bare
        # AttributeError.  A fitted estimator can still lack an artifact that
        # depends on configuration (e.g. EMST ``labels_`` without
        # ``n_clusters``); distinguish that so the user is not told to
        # re-call fit() in a loop.
        if name.endswith("_") and not name.startswith("_"):
            if self.__dict__.get("_fit_complete"):
                raise NotComputedError(
                    f"{name!r} is not available on this fitted "
                    f"{type(self).__name__}; it requires different "
                    "parameters (for example, EMST labels_ requires "
                    "n_clusters to be set)"
                )
            raise NotComputedError(
                f"this {type(self).__name__} instance is not fitted yet; "
                f"call fit() before accessing {name!r}"
            )
        raise AttributeError(name)

    @classmethod
    def _parameter_defaults(cls) -> dict:
        """Constructor defaults, read off the signature (cached per class)."""
        defaults = cls.__dict__.get("_parameter_defaults_cache")
        if defaults is None:
            defaults = {
                name: parameter.default
                for name, parameter in inspect.signature(
                    cls.__init__
                ).parameters.items()
                if parameter.default is not inspect.Parameter.empty
            }
            cls._parameter_defaults_cache = defaults
        return defaults

    def __repr__(self) -> str:
        # sklearn-style: print only the parameters that differ from their
        # constructor defaults, so HDBSCAN(min_pts=20) reads as exactly that
        # instead of a fourteen-knob wall.
        defaults = self._parameter_defaults()
        shown = []
        for name in self._parameter_names:
            value = getattr(self, name)
            if name in defaults and value == defaults[name]:
                continue
            shown.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(shown)})"


class EMST(_ReproEstimator):
    """Minimum-spanning-tree estimator (optionally with flat cluster labels).

    Parameters
    ----------
    method:
        MST construction method (see :data:`repro.emst.api.EMST_METHODS`).
    metric:
        Distance metric: a name (``"euclidean"``, ``"manhattan"``,
        ``"chebyshev"``, ``"minkowski:p"``), a Metric instance, or ``None``
        for Euclidean.
    epsilon:
        Accuracy knob: ``0.0`` (default) computes the exact tree with the
        configured ``method``; a positive value computes the
        (1+ε)-approximate tree (``total_weight_`` is at most ``1 + epsilon``
        times the exact MST weight, and never below it) via the
        ``"wspd-approx"`` engine — ``method`` must then be left at its
        default or set to ``"wspd-approx"`` explicitly.
    n_clusters:
        When set, :meth:`fit` also derives single-linkage flat cluster labels
        by cutting the tree's dendrogram into ``n_clusters`` clusters, and
        :meth:`fit_predict` returns them.
    backend:
        Kernel backend: a name (``"numpy"``, ``"numba"``, ``"numpy-f32"``,
        ``"numba-f32"``), a :class:`~repro.core.backend.KernelBackend`
        instance, or ``None`` for the ambient default.  Exact (float64)
        backends return byte-identical trees; ``-f32`` backends score
        candidates in float32 with every surviving edge re-evaluated in
        exact float64.
    num_threads:
        Worker threads for the batched kernels (results are byte-identical
        at any setting).
    memory_budget:
        Bytes ceiling for the tiled kernels and growable buffers: an int, a
        size string (``"512M"``, ``"2G"``), a
        :class:`~repro.core.budget.MemoryBudget`, or ``None`` for the
        ambient default.  Only tile/chunk sizes (and spill-to-disk) change,
        so the fitted tree is byte-identical at any budget.
    checkpoint_dir:
        Directory for phase-level checkpoint/resume (see
        :mod:`repro.resilience`): a fit killed mid-computation resumes from
        its last committed phase on the next ``fit`` with identical data and
        parameters, byte-identically.  ``None`` (default) disables
        checkpointing.
    resume:
        With ``False`` an existing checkpoint in ``checkpoint_dir`` is
        discarded on ``fit`` instead of resumed.
    max_retries:
        Worker-death events one pooled batch absorbs by respawn-and-retry
        before degrading to the serial fallback (``None``: ambient default).
    task_timeout:
        Seconds a pooled batch may stall with no completed task before the
        fit fails with ``WorkerFailedError`` (``None``: no time limit).

    Attributes (after ``fit``)
    --------------------------
    edges_:
        ``(n - 1, 2)`` int64 array of tree edges (point-index endpoints).
    weights_:
        ``(n - 1,)`` float64 array of edge weights under the metric.
    total_weight_:
        Sum of the edge weights.
    labels_:
        Single-linkage labels (only when ``n_clusters`` is set).
    n_features_in_:
        Input dimensionality.
    result_:
        The full :class:`~repro.emst.result.EMSTResult`.
    """

    _parameter_names = (
        "method",
        "metric",
        "backend",
        "epsilon",
        "n_clusters",
        "num_threads",
        "memory_budget",
        "checkpoint_dir",
        "resume",
        "max_retries",
        "task_timeout",
    )

    def __init__(
        self,
        *,
        method: str = "memogfk",
        metric: MetricLike = "euclidean",
        backend: BackendLike = None,
        epsilon: float = 0.0,
        n_clusters: Optional[int] = None,
        num_threads: Optional[int] = None,
        memory_budget: BudgetLike = None,
        checkpoint_dir=None,
        resume: bool = True,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.method = method
        self.metric = metric
        self.backend = backend
        self.epsilon = epsilon
        self.n_clusters = n_clusters
        self.num_threads = num_threads
        self.memory_budget = memory_budget
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.max_retries = max_retries
        self.task_timeout = task_timeout

    def fit(self, X, y=None) -> "EMST":
        """Compute the MST of ``X`` under the configured metric."""
        if self.method not in EMST_METHODS:
            raise InvalidParameterError(
                f"unknown EMST method {self.method!r}; "
                f"choose from {sorted(EMST_METHODS)}"
            )
        method, method_kwargs = resolve_approx_method(self.method, self.epsilon)
        resolve_metric(self.metric)  # fail fast on bad metric specs
        resolve_backend(self.backend)  # fail fast on bad backend names
        resolve_memory_budget(self.memory_budget)  # fail fast on bad budgets
        data = as_points(X, min_points=1)
        # Validate everything parameter-shaped before the (potentially
        # expensive) MST computation runs.
        if self.n_clusters is not None and not (
            1 <= int(self.n_clusters) <= data.shape[0]
        ):
            raise InvalidParameterError(
                f"n_clusters must be in [1, {data.shape[0]}], "
                f"got {self.n_clusters}"
            )
        result = emst(
            data,
            method=method,
            metric=self.metric,
            backend=self.backend,
            memory_budget=self.memory_budget,
            checkpoint_dir=self.checkpoint_dir,
            resume=bool(self.resume),
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
            num_threads=self.num_threads,
            **method_kwargs,
        )
        u, v, w = result.edges.as_arrays()
        self.n_features_in_ = int(data.shape[1])
        self.edges_ = np.column_stack([u, v]).astype(np.int64, copy=False)
        self.weights_ = np.array(w, dtype=np.float64, copy=True)
        self.total_weight_ = float(self.weights_.sum())
        self.result_ = result
        # labels_ exists only when n_clusters is configured; drop any value
        # left over from a previous fit with different parameters.
        self.__dict__.pop("labels_", None)
        if self.n_clusters is not None:
            if data.shape[0] == 1:
                self.labels_ = np.zeros(1, dtype=np.int64)
            else:
                dendrogram = dendrogram_sequential(result.edges, data.shape[0])
                self.labels_ = cut_num_clusters(dendrogram, int(self.n_clusters))
        self._fit_complete = True
        return self

    def fit_predict(self, X, y=None) -> np.ndarray:
        """Fit and return single-linkage labels (requires ``n_clusters``)."""
        if self.n_clusters is None:
            raise InvalidParameterError(
                "EMST.fit_predict requires n_clusters to be set; "
                "use fit() alone to compute the tree"
            )
        self.fit(X)
        return self.labels_


class HDBSCAN(_ReproEstimator):
    """HDBSCAN* clustering estimator over the parallel MST engine.

    Parameters
    ----------
    min_pts:
        The HDBSCAN* ``minPts`` density parameter.
    min_cluster_size:
        Minimum flat-cluster size for the condensed-tree extraction.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean).
    method:
        Mutual-reachability MST construction (see
        :data:`repro.hdbscan.api.HDBSCAN_METHODS`).
    epsilon:
        When set, flat labels come from the DBSCAN* cut at this density
        level instead of excess-of-mass selection.  (This is the cut level
        of the hierarchy — the *accuracy* knob is ``approx_epsilon``.)
    approx_epsilon:
        Accuracy knob: ``0.0`` (default) computes the exact
        mutual-reachability MST with the configured ``method``; a positive
        value computes the (1+ε)-approximate MST (total weight within
        ``1 + approx_epsilon`` of exact, never below it) via the
        ``"wspd-approx"`` engine — ``method`` must then be left at its
        default or set to ``"wspd-approx"`` explicitly.
    allow_single_cluster:
        Whether EOM selection may return the root as a single cluster.
    backend:
        Kernel backend (name, :class:`~repro.core.backend.KernelBackend`
        instance, or ``None`` for the ambient default); see
        :class:`EMST`.
    num_threads:
        Worker threads for the batched kernels.
    memory_budget:
        Bytes ceiling for the tiled kernels and growable buffers (int, size
        string like ``"512M"``, a MemoryBudget, or ``None`` for the ambient
        default); labels and the MST are byte-identical at any budget.
    checkpoint_dir / resume / max_retries / task_timeout:
        Fault-tolerance knobs, identical to :class:`EMST`: phase-level
        checkpoint/resume under ``checkpoint_dir`` (byte-identical resumed
        fits) and worker-death retry / stall-timeout policy for the pooled
        kernels.

    Attributes (after ``fit``)
    --------------------------
    labels_:
        Flat cluster labels (noise points get ``-1``).
    probabilities_:
        Per-point cluster membership strengths in ``[0, 1]`` (0 for noise).
    core_distances_:
        Core distance of every point under the metric.
    mst_edges_ / mst_weights_:
        The mutual-reachability MST as arrays.
    n_features_in_:
        Input dimensionality.
    result_:
        The full :class:`~repro.hdbscan.result.HDBSCANResult`.
    """

    _parameter_names = (
        "min_pts",
        "min_cluster_size",
        "metric",
        "method",
        "epsilon",
        "approx_epsilon",
        "allow_single_cluster",
        "backend",
        "num_threads",
        "memory_budget",
        "checkpoint_dir",
        "resume",
        "max_retries",
        "task_timeout",
    )

    def __init__(
        self,
        *,
        min_pts: int = 10,
        min_cluster_size: int = 5,
        metric: MetricLike = "euclidean",
        method: str = "memogfk",
        epsilon: Optional[float] = None,
        approx_epsilon: float = 0.0,
        allow_single_cluster: bool = False,
        backend: BackendLike = None,
        num_threads: Optional[int] = None,
        memory_budget: BudgetLike = None,
        checkpoint_dir=None,
        resume: bool = True,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.min_pts = min_pts
        self.min_cluster_size = min_cluster_size
        self.metric = metric
        self.method = method
        self.epsilon = epsilon
        self.approx_epsilon = approx_epsilon
        self.allow_single_cluster = allow_single_cluster
        self.backend = backend
        self.num_threads = num_threads
        self.memory_budget = memory_budget
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.max_retries = max_retries
        self.task_timeout = task_timeout

    def fit(self, X, y=None) -> "HDBSCAN":
        """Run the HDBSCAN* pipeline on ``X`` and derive flat labels."""
        if self.method not in HDBSCAN_METHODS:
            raise InvalidParameterError(
                f"unknown HDBSCAN* method {self.method!r}; "
                f"choose from {sorted(HDBSCAN_METHODS)}"
            )
        method, method_kwargs = resolve_approx_method(
            self.method, self.approx_epsilon, knob="approx_epsilon"
        )
        resolve_metric(self.metric)
        resolve_backend(self.backend)  # fail fast on bad backend names
        resolve_memory_budget(self.memory_budget)  # fail fast on bad budgets
        data = as_points(X, min_points=1)
        n = data.shape[0]
        self.n_features_in_ = int(data.shape[1])
        if n == 1:
            # A lone point has no density structure: it is noise (whatever
            # min_pts says — no distance is ever computed).
            self.labels_ = np.full(1, -1, dtype=np.int64)
            self.probabilities_ = np.zeros(1, dtype=np.float64)
            self.core_distances_ = np.zeros(1, dtype=np.float64)
            self.mst_edges_ = np.empty((0, 2), dtype=np.int64)
            self.mst_weights_ = np.empty(0, dtype=np.float64)
            self.result_ = None
            self._fit_complete = True
            return self
        if not 1 <= int(self.min_pts) <= n:
            # Same contract as the functional hdbscan(): a min_pts outside
            # [1, n] is an error, never silently clamped.
            raise InvalidParameterError(
                f"min_pts must be in [1, {n}], got {self.min_pts}"
            )
        result = hdbscan(
            data,
            min_pts=int(self.min_pts),
            method=method,
            metric=self.metric,
            backend=self.backend,
            memory_budget=self.memory_budget,
            checkpoint_dir=self.checkpoint_dir,
            resume=bool(self.resume),
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
            num_threads=self.num_threads,
            **method_kwargs,
        )
        if self.epsilon is not None:
            labels = result.dbscan_labels(
                float(self.epsilon), min_cluster_size=int(self.min_cluster_size)
            )
            probabilities = (labels >= 0).astype(np.float64)
        else:
            labels, probabilities = hdbscan_labels_and_probabilities(
                result.dendrogram,
                min_cluster_size=int(self.min_cluster_size),
                allow_single_cluster=bool(self.allow_single_cluster),
            )
        u, v, w = result.mst.edges.as_arrays()
        self.labels_ = labels
        self.probabilities_ = probabilities
        self.core_distances_ = np.array(result.core_distances, copy=True)
        self.mst_edges_ = np.column_stack([u, v]).astype(np.int64, copy=False)
        self.mst_weights_ = np.array(w, dtype=np.float64, copy=True)
        self.result_ = result
        self._fit_complete = True
        return self

    def fit_predict(self, X, y=None) -> np.ndarray:
        """Fit and return the flat cluster labels."""
        self.fit(X)
        return self.labels_
