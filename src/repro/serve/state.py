"""Immutable fit-state: the expensive artifacts of one fit, split out.

The paper's cost model is lopsided: computing the EMST / mutual-reachability
MST and its dendrogram is the expensive part, while everything users actually
query — labels at another ``epsilon``, a different cluster count, membership
of a new point — is derivable from those artifacts in micro- to milliseconds.
:class:`FitState` is that split made explicit.  It freezes the products of
one :func:`repro.hdbscan.api.hdbscan` run into read-only structure-of-arrays
storage:

* the validated point set and its streamed SHA-256 (the PR-8 fingerprint);
* the built :class:`~repro.spatial.flat.FlatKDTree` arrays, re-used for
  ``approximate_predict`` k-NN without rebuilding;
* per-point core distances and the mutual-reachability MST columns;
* the SoA :class:`~repro.dendrogram.structure.Dendrogram` and the columnar
  :class:`~repro.dendrogram.condensed.CondensedTree` at the fitted
  ``min_cluster_size``.

Every read-side operation (:meth:`FitState.recut`,
:func:`repro.serve.predict.approximate_predict`) runs off these arrays with
zero refitting; repeated cuts hit a small thread-safe LRU keyed on the cut
parameters, so a warm re-cut is O(1).  :meth:`FitState.save` /
:func:`load_state` persist everything to a single ``.npz`` with per-array
SHA-256 checksums and the run fingerprint, and loading refuses corrupt or
incompatible files with :class:`~repro.core.errors.FitStateError` — a stale
state must never silently serve wrong answers.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.backend import BackendLike, resolve_backend
from repro.core.budget import BudgetLike
from repro.core.errors import FitStateError, InvalidParameterError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.dendrogram.condensed import CondensedTree, condense_dendrogram
from repro.dendrogram.structure import Dendrogram
from repro.dendrogram.sequential import dendrogram_sequential
from repro.hdbscan.api import hdbscan
from repro.mst.canonical import canonical_mst_arrays
from repro.resilience.checkpoint import (
    ENGINE_VERSION,
    build_fingerprint,
    fingerprint_points,
)
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree

#: Layout version of the ``.npz`` state file (bumped on incompatible change).
STATE_FORMAT = 1

#: Default leaf size of the serving tree.  The fit builds WSPD trees with
#: tiny leaves; ``approximate_predict`` is a plain k-NN workload, which is
#: faster with slightly larger leaves.
SERVING_LEAF_SIZE = 8

#: Default capacity of the per-state cut cache.
DEFAULT_CUT_CACHE = 128

#: Fingerprint fields that must match for a loaded state to be usable.
#: ``num_threads`` and ``memory_budget`` are deliberately absent: the engine
#: is byte-identical across both, so a state fitted on an 8-thread box loads
#: fine on a 2-thread one.
_COMPARED_FIELDS = (
    "engine",
    "algorithm",
    "method",
    "metric",
    "backend",
    "dtype",
    "shape",
    "points_sha256",
    "min_pts",
    "min_cluster_size",
    "allow_single_cluster",
    "leaf_size",
)


class FitState:
    """Read-only artifacts of one HDBSCAN* fit plus the zero-refit read side.

    Construct via :func:`fit_state` (run a fit), :func:`load_state` (restore
    a saved one) or the dynamic engine (:func:`repro.dynamic.fit_dynamic`,
    :func:`repro.dynamic.update_batch`); the constructor itself only wires
    already-built parts together.  All array attributes are treated as
    immutable — the read side never writes to them, which is what makes one
    state safe to share across the concurrent request handlers of
    :class:`repro.serve.server.ServingEngine`.

    Every state of an exact backend is updatable.  The dynamic engine's
    repair support is not part of the state: it is built from the points
    and core distances on the first update, or on the first read of
    :data:`repro.dynamic.SUPPORT_ATTR`.
    """

    def __init__(
        self,
        *,
        points: np.ndarray,
        tree: KDTree,
        core_distances: np.ndarray,
        mst_u: np.ndarray,
        mst_v: np.ndarray,
        mst_w: np.ndarray,
        dendrogram: Dendrogram,
        condensed: CondensedTree,
        min_pts: int,
        min_cluster_size: int,
        allow_single_cluster: bool,
        method: str,
        fingerprint: Dict[str, object],
        cut_cache_size: int = DEFAULT_CUT_CACHE,
        metric: MetricLike = None,
        backend: BackendLike = None,
    ) -> None:
        self.points = points
        self.tree = tree
        self.core_distances = core_distances
        self.mst_u = mst_u
        self.mst_v = mst_v
        self.mst_w = mst_w
        self.dendrogram = dendrogram
        self.condensed = condensed
        self.min_pts = int(min_pts)
        self.min_cluster_size = int(min_cluster_size)
        self.allow_single_cluster = bool(allow_single_cluster)
        self.method = str(method)
        self.fingerprint = dict(fingerprint)
        # The empty state (n == 0, produced by the dynamic engine when every
        # point has been deleted) has no tree to borrow the resolved metric
        # and backend from, so they are carried explicitly.
        self._metric = resolve_metric(metric) if tree is None else None
        self._backend = resolve_backend(backend) if tree is None else None
        self._lock = threading.Lock()
        self._cuts: "OrderedDict[tuple, object]" = OrderedDict()
        self._cut_capacity = int(cut_cache_size)
        self._cut_hits = 0
        self._cut_misses = 0
        self._predict_tables = None

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks.  The dynamic
        # engine's repair support is the one built on first read; the import
        # is lazy so read-only deployments never load the engine.
        from repro.dynamic.engine import SUPPORT_ATTR, _build_support

        if name != SUPPORT_ATTR:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        support = _build_support(self)
        setattr(self, name, support)
        return support

    # -- basic accessors -----------------------------------------------------

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    @property
    def metric(self):
        return self.tree.metric if self.tree is not None else self._metric

    @property
    def backend(self):
        return self.tree.backend if self.tree is not None else self._backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FitState(n={self.num_points}, d={self.dimension}, "
            f"min_pts={self.min_pts}, min_cluster_size={self.min_cluster_size}, "
            f"method={self.method!r}, metric={self.metric.spec()!r})"
        )

    # -- zero-refit cuts -----------------------------------------------------

    def recut(
        self,
        *,
        epsilon: Optional[float] = None,
        n_clusters: Optional[int] = None,
        min_cluster_size: Optional[int] = None,
        allow_single_cluster: Optional[bool] = None,
    ):
        """Flat labels for new cut parameters without refitting.

        See :func:`repro.serve.recut.compute_cut` for the parameter
        semantics.  Results are cached in a thread-safe LRU keyed on the
        canonicalized parameters, so a repeated cut is O(1).
        """
        cut, _ = self.recut_with_info(
            epsilon=epsilon,
            n_clusters=n_clusters,
            min_cluster_size=min_cluster_size,
            allow_single_cluster=allow_single_cluster,
        )
        return cut

    def recut_with_info(
        self,
        *,
        epsilon: Optional[float] = None,
        n_clusters: Optional[int] = None,
        min_cluster_size: Optional[int] = None,
        allow_single_cluster: Optional[bool] = None,
    ):
        """Like :meth:`recut` but also reports whether the LRU answered.

        Returns ``(cut, cached)``; the serving engine surfaces ``cached`` in
        its responses so clients (and the benchmark) can tell a warm cut from
        a cold one.
        """
        from repro.serve.recut import compute_cut, cut_key

        key = cut_key(
            self,
            epsilon=epsilon,
            n_clusters=n_clusters,
            min_cluster_size=min_cluster_size,
            allow_single_cluster=allow_single_cluster,
        )
        with self._lock:
            cut = self._cuts.get(key)
            if cut is not None:
                self._cuts.move_to_end(key)
                self._cut_hits += 1
                return cut, True
        # Compute outside the lock: cuts are deterministic, so two threads
        # racing on the same key just do the work twice and store equal
        # results — better than serializing every cold cut.
        cut = compute_cut(
            self,
            epsilon=epsilon,
            n_clusters=n_clusters,
            min_cluster_size=min_cluster_size,
            allow_single_cluster=allow_single_cluster,
        )
        with self._lock:
            self._cut_misses += 1
            self._cuts[key] = cut
            self._cuts.move_to_end(key)
            while len(self._cuts) > self._cut_capacity:
                self._cuts.popitem(last=False)
        return cut, False

    def cache_info(self) -> Dict[str, int]:
        """Hits / misses / current size of the cut LRU."""
        with self._lock:
            return {
                "hits": self._cut_hits,
                "misses": self._cut_misses,
                "size": len(self._cuts),
                "capacity": self._cut_capacity,
            }

    # -- predict support -----------------------------------------------------

    def predict_tables(self):
        """Lazily built per-cluster tables for ``approximate_predict``."""
        from repro.serve.predict import build_predict_tables

        with self._lock:
            tables = self._predict_tables
        if tables is not None:
            return tables
        tables = build_predict_tables(self)
        with self._lock:
            if self._predict_tables is None:
                self._predict_tables = tables
            tables = self._predict_tables
        return tables

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Every array of the state under a flat, prefixed naming scheme."""
        arrays: Dict[str, np.ndarray] = {
            "points": self.points,
            "core_distances": np.asarray(self.core_distances, dtype=np.float64),
            "mst_u": np.asarray(self.mst_u, dtype=np.int64),
            "mst_v": np.asarray(self.mst_v, dtype=np.int64),
            "mst_w": np.asarray(self.mst_w, dtype=np.float64),
        }
        if self.dendrogram is not None:
            for name, value in self.dendrogram.state_arrays().items():
                arrays[f"dendrogram_{name}"] = value
        if self.condensed is not None:
            for name, value in self.condensed.state_arrays().items():
                arrays[f"condensed_{name}"] = value
        if self.tree is not None:
            for name, value in self.tree.flat.state_arrays().items():
                arrays[f"tree_{name}"] = value
        return arrays

    def save(self, path) -> Path:
        """Persist the state to one checksummed ``.npz`` file, atomically.

        The file carries every array of :meth:`state_arrays`, a JSON metadata
        record with the run fingerprint (including the engine version) and a
        SHA-256 per array.  The write goes to a temporary file that is
        fsynced and renamed into place, so a reader can never observe a
        half-written state under the final name.
        """
        path = Path(path)
        if self.tree is None:
            raise FitStateError(
                "an empty state (0 points) cannot be saved; insert points "
                "first"
            )
        arrays = self.state_arrays()
        meta = {
            "format": STATE_FORMAT,
            "fingerprint": self.fingerprint,
            "checksums": {
                name: fingerprint_points(value) for name, value in arrays.items()
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, __meta__=json.dumps(meta, sort_keys=True), **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


def _state_fingerprint(
    data: np.ndarray,
    *,
    method: str,
    metric: MetricLike,
    backend: BackendLike,
    memory_budget: BudgetLike,
    num_threads: Optional[int],
    min_pts: int,
    min_cluster_size: int,
    allow_single_cluster: bool,
    leaf_size: int,
) -> Dict[str, object]:
    return build_fingerprint(
        data,
        algorithm="serve",
        method=method,
        metric=metric,
        backend=backend,
        memory_budget=memory_budget,
        num_threads=num_threads,
        engine=ENGINE_VERSION,
        min_pts=int(min_pts),
        min_cluster_size=int(min_cluster_size),
        allow_single_cluster=bool(allow_single_cluster),
        leaf_size=int(leaf_size),
    )


def fit_state(
    points,
    *,
    min_pts: int = 10,
    min_cluster_size: int = 5,
    allow_single_cluster: bool = False,
    method: str = "memogfk",
    metric: MetricLike = None,
    backend: BackendLike = None,
    num_threads: Optional[int] = None,
    memory_budget: BudgetLike = None,
    checkpoint_dir=None,
    resume: bool = True,
    max_retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    leaf_size: int = SERVING_LEAF_SIZE,
    cut_cache_size: int = DEFAULT_CUT_CACHE,
    **method_kwargs,
) -> FitState:
    """Run one HDBSCAN* fit and freeze its artifacts into a :class:`FitState`.

    This is the expensive call; everything afterwards
    (:meth:`FitState.recut`, ``approximate_predict``, save/load) is read-only
    and refit-free.  The fit itself goes through the full
    :func:`repro.hdbscan.api.hdbscan` pipeline, so every engine knob
    (``metric``/``backend``/``memory_budget``/checkpointing/fault policy)
    behaves exactly as it does there.  The MST is stored in the canonical
    normal form of :func:`repro.mst.canonical_mst_arrays`, so for the exact
    methods the state is byte-identical to
    :func:`repro.dynamic.fit_dynamic`'s and can be updated directly.
    Requires at least two points and ``min_pts <= n`` — a serving state for
    a single point has no hierarchy to cut.
    """
    data = as_points(points, min_points=2)
    n = int(data.shape[0])
    if not 1 <= int(min_pts) <= n:
        raise InvalidParameterError(f"minPts must be in [1, {n}], got {min_pts}")
    return _fit(
        data,
        min_pts=int(min_pts),
        min_cluster_size=min_cluster_size,
        allow_single_cluster=allow_single_cluster,
        method=method,
        metric=metric,
        backend=backend,
        num_threads=num_threads,
        memory_budget=memory_budget,
        leaf_size=leaf_size,
        cut_cache_size=cut_cache_size,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        max_retries=max_retries,
        task_timeout=task_timeout,
        **method_kwargs,
    )


def _fit(
    data: np.ndarray,
    *,
    min_pts: int,
    min_cluster_size: int,
    allow_single_cluster: bool,
    method: str,
    metric: MetricLike,
    backend: BackendLike,
    num_threads: Optional[int],
    memory_budget: BudgetLike,
    leaf_size: int,
    cut_cache_size: int,
    **hdbscan_kwargs,
) -> FitState:
    """The one cold fit behind :func:`fit_state` and the dynamic engine.

    Validates the parameters before any work, runs :func:`hdbscan` without
    its dendrogram, puts the MST into canonical form and builds the
    dendrogram (bottom-up sweep), the condensed tree and the serving tree
    from it.  Accepts any ``n >= 0``, clamping ``minPts`` to
    ``min(min_pts, n)`` like the HDBSCAN* MST functions do; the state
    records the requested ``min_pts``.
    """
    if int(min_pts) < 1:
        raise InvalidParameterError("min_pts must be >= 1")
    if int(min_cluster_size) < 1:
        raise InvalidParameterError("min_cluster_size must be >= 1")
    if int(cut_cache_size) < 1:
        raise InvalidParameterError("cut_cache_size must be >= 1")
    n = int(data.shape[0])
    if n >= 2:
        result = hdbscan(
            data,
            min_pts=min(int(min_pts), n),
            method=method,
            compute_dendrogram=False,
            metric=metric,
            backend=backend,
            memory_budget=memory_budget,
            num_threads=num_threads,
            **hdbscan_kwargs,
        )
        core_distances = np.asarray(result.core_distances, dtype=np.float64)
        mst_u, mst_v, mst_w = canonical_mst_arrays(
            *result.mst.edges.as_arrays(), n, num_threads=num_threads
        )
    else:
        # No edges, and minPts clamps to n <= 1, whose k-th neighbour is
        # the point itself at distance zero.
        core_distances = np.zeros(n, dtype=np.float64)
        mst_u, mst_v = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        mst_w = np.empty(0, dtype=np.float64)
    tree = dendrogram = condensed = None
    if n:
        # The serving tree is rebuilt at a k-NN-friendly leaf size and
        # annotated with the fitted core distances, so approximate_predict
        # queries prune with the same bounds the fit used.
        tree = KDTree(data, leaf_size=int(leaf_size), metric=metric, backend=backend)
        tree.annotate_core_distances(core_distances)
        dendrogram = dendrogram_sequential((mst_u, mst_v, mst_w), n)
        condensed = condense_dendrogram(dendrogram, int(min_cluster_size))
    return FitState(
        points=data,
        tree=tree,
        core_distances=core_distances,
        mst_u=mst_u,
        mst_v=mst_v,
        mst_w=mst_w,
        dendrogram=dendrogram,
        condensed=condensed,
        min_pts=int(min_pts),
        min_cluster_size=int(min_cluster_size),
        allow_single_cluster=bool(allow_single_cluster),
        method=str(method),
        fingerprint=_state_fingerprint(
            data,
            method=method,
            metric=metric,
            backend=backend,
            memory_budget=memory_budget,
            num_threads=num_threads,
            min_pts=min_pts,
            min_cluster_size=min_cluster_size,
            allow_single_cluster=allow_single_cluster,
            leaf_size=leaf_size,
        ),
        cut_cache_size=cut_cache_size,
        metric=metric,
        backend=backend,
    )


def _corrupt(path, detail: str) -> FitStateError:
    return FitStateError(
        f"fit-state file {os.fspath(path)!r} is corrupt or not a fit-state "
        f"file: {detail}; refit and re-save it"
    )


def _load_arrays(path) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" not in data.files:
                raise _corrupt(path, "missing the __meta__ record")
            try:
                meta = json.loads(str(data["__meta__"][()]))
            except (json.JSONDecodeError, ValueError) as error:
                raise _corrupt(path, f"unreadable metadata ({error})") from error
            arrays = {
                name: data[name] for name in data.files if name != "__meta__"
            }
    except FitStateError:
        raise
    except (OSError, zipfile.BadZipFile, ValueError, EOFError) as error:
        raise _corrupt(path, str(error)) from error
    if not isinstance(meta, dict):
        raise _corrupt(path, "metadata is not a JSON object")
    return meta, arrays


def load_state(
    path,
    *,
    metric: MetricLike = None,
    backend: BackendLike = None,
    cut_cache_size: int = DEFAULT_CUT_CACHE,
) -> FitState:
    """Restore a :class:`FitState` saved by :meth:`FitState.save`.

    Verification happens before anything is trusted: the metadata must parse
    and carry a compatible format and engine version, every array must match
    its recorded SHA-256, and the point set must re-hash to the fingerprint's
    ``points_sha256``.  Passing ``metric`` / ``backend`` asserts that the
    saved state was fitted under them — a mismatch raises
    :class:`~repro.core.errors.FitStateError` rather than serving answers
    computed under different geometry.  (The CLI maps this error to exit
    code 2.)
    """
    if int(cut_cache_size) < 1:
        raise InvalidParameterError("cut_cache_size must be >= 1")
    meta, arrays = _load_arrays(path)
    if meta.get("format") != STATE_FORMAT:
        raise FitStateError(
            f"fit-state file {os.fspath(path)!r} has layout version "
            f"{meta.get('format')!r}; this engine reads version {STATE_FORMAT}"
        )
    fingerprint = meta.get("fingerprint")
    checksums = meta.get("checksums")
    if not isinstance(fingerprint, dict) or not isinstance(checksums, dict):
        raise _corrupt(path, "metadata is missing the fingerprint or checksums")
    if fingerprint.get("engine") != ENGINE_VERSION:
        raise FitStateError(
            f"fit-state file {os.fspath(path)!r} was written by engine "
            f"{fingerprint.get('engine')!r} but this is {ENGINE_VERSION!r}; "
            "refit and re-save it"
        )

    missing = sorted(set(checksums) - set(arrays))
    if missing:
        raise _corrupt(path, f"missing arrays {missing}")
    for name in sorted(checksums):
        actual = fingerprint_points(arrays[name])
        if actual != checksums[name]:
            raise _corrupt(path, f"array {name!r} fails its checksum")

    if metric is not None:
        requested = resolve_metric(metric).spec()
        if requested != fingerprint.get("metric"):
            raise FitStateError(
                f"fit-state was saved under metric "
                f"{fingerprint.get('metric')!r} but {requested!r} was "
                "requested; refit under the requested metric instead"
            )
    if backend is not None:
        requested_backend = resolve_backend(backend).name
        if requested_backend != fingerprint.get("backend"):
            raise FitStateError(
                f"fit-state was saved under backend "
                f"{fingerprint.get('backend')!r} but {requested_backend!r} "
                "was requested; refit under the requested backend instead"
            )

    try:
        saved_metric = resolve_metric(fingerprint.get("metric"))
        saved_backend = resolve_backend(fingerprint.get("backend"))
    except Exception as error:
        raise FitStateError(
            f"fit-state file {os.fspath(path)!r} needs metric "
            f"{fingerprint.get('metric')!r} and backend "
            f"{fingerprint.get('backend')!r}, which this installation "
            f"cannot provide: {error}"
        ) from error

    try:
        points = np.ascontiguousarray(arrays["points"], dtype=np.float64)
        core_distances = np.asarray(arrays["core_distances"], dtype=np.float64)
        leaf_size = int(fingerprint["leaf_size"])
        min_pts = int(fingerprint["min_pts"])
        min_cluster_size = int(fingerprint["min_cluster_size"])
        if min_cluster_size < 1:
            raise ValueError(f"min_cluster_size {min_cluster_size} < 1")
        allow_single_cluster = bool(fingerprint["allow_single_cluster"])
        dendrogram = Dendrogram.from_state_arrays(
            {
                name[len("dendrogram_"):]: value
                for name, value in arrays.items()
                if name.startswith("dendrogram_")
            }
        )
        condensed = CondensedTree.from_state_arrays(
            {
                name[len("condensed_"):]: value
                for name, value in arrays.items()
                if name.startswith("condensed_")
            }
        )
        flat = FlatKDTree.from_state_arrays(
            points,
            {
                name[len("tree_"):]: value
                for name, value in arrays.items()
                if name.startswith("tree_")
            },
            leaf_size=leaf_size,
            metric=saved_metric,
            backend=saved_backend,
        )
    except (KeyError, ValueError, TypeError, IndexError) as error:
        raise _corrupt(path, f"state arrays do not reconstruct ({error})") from error

    if fingerprint_points(points) != fingerprint.get("points_sha256"):
        raise _corrupt(path, "point set does not match the fingerprint hash")

    tree = KDTree.from_flat(flat)
    tree.annotate_core_distances(core_distances)
    return FitState(
        points=points,
        tree=tree,
        core_distances=core_distances,
        mst_u=np.asarray(arrays["mst_u"], dtype=np.int64),
        mst_v=np.asarray(arrays["mst_v"], dtype=np.int64),
        mst_w=np.asarray(arrays["mst_w"], dtype=np.float64),
        dendrogram=dendrogram,
        condensed=condensed,
        min_pts=min_pts,
        min_cluster_size=min_cluster_size,
        allow_single_cluster=allow_single_cluster,
        method=str(fingerprint.get("method", "memogfk")),
        fingerprint=fingerprint,
        cut_cache_size=cut_cache_size,
    )
