"""Public HDBSCAN* entry point.

``hdbscan(points, min_pts=10)`` runs the full pipeline the paper's experiments
time: core distances, MST of the mutual reachability graph, and the ordered
dendrogram (from which the reachability plot and flat DBSCAN* clusterings are
derived).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.backend import BackendLike
from repro.core.budget import BudgetLike
from repro.core.context import use_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.dendrogram.sequential import dendrogram_sequential
from repro.hdbscan.bruteforce import hdbscan_mst_bruteforce
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.hdbscan.gantao import hdbscan_mst_gantao
from repro.hdbscan.memogfk import hdbscan_mst_memogfk
from repro.hdbscan.optics_approx import optics_approx_mst
from repro.hdbscan.result import HDBSCANResult
from repro.dendrogram.structure import Dendrogram
from repro.emst.api import check_method_options
from repro.emst.memogfk import ROUND_PHASE
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.resilience.checkpoint import CheckpointManager, build_fingerprint


#: Parameters :func:`hdbscan` passes to every MST implementation itself.
_HDBSCAN_RESERVED = (
    "points",
    "min_pts",
    "core_dists",
    "num_threads",
    "metric",
    "checkpoint",
)


def _hdbscan_mst_wspd_approx(points, min_pts: int = 10, **kwargs):
    """(1+ε)-approximate mutual-reachability MST (``epsilon=`` kwarg).

    Imported lazily: :mod:`repro.approx` consumes the whole exact engine, so
    a module-level import here would cycle through the package inits.
    """
    from repro.approx.hdbscan import approx_hdbscan_mst

    options = {k: v for k, v in kwargs.items() if k not in _HDBSCAN_RESERVED}
    check_method_options(
        approx_hdbscan_mst,
        options,
        "HDBSCAN* method 'wspd-approx'",
        reserved=_HDBSCAN_RESERVED,
    )
    return approx_hdbscan_mst(points, min_pts, **kwargs)


HDBSCAN_METHODS: Dict[str, Callable] = {
    "memogfk": hdbscan_mst_memogfk,
    "gantao": hdbscan_mst_gantao,
    "optics-approx": optics_approx_mst,
    "wspd-approx": _hdbscan_mst_wspd_approx,
    "bruteforce": hdbscan_mst_bruteforce,
}


def hdbscan(
    points,
    min_pts: int = 10,
    *,
    method: str = "memogfk",
    compute_dendrogram: bool = True,
    start: int = 0,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    backend: BackendLike = None,
    memory_budget: BudgetLike = None,
    checkpoint_dir=None,
    resume: bool = True,
    max_retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    **method_kwargs,
) -> HDBSCANResult:
    """Compute the HDBSCAN* hierarchy of a point set.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    min_pts:
        The ``minPts`` density parameter (the paper's default is 10).
    method:
        MST construction: ``"memogfk"`` (default, the paper's space-efficient
        algorithm), ``"gantao"`` (exact baseline), ``"optics-approx"``
        (Appendix C approximation; accepts ``rho``), ``"wspd-approx"`` (the
        batched (1+ε)-approximate tree of
        :func:`repro.approx.hdbscan.approx_hdbscan_mst`; accepts
        ``epsilon``) or ``"bruteforce"``.
    compute_dendrogram:
        Whether to build the ordered dendrogram (needed for the reachability
        plot; the MST alone suffices for :meth:`HDBSCANResult.dbscan_labels`).
    start:
        Starting vertex for the ordered dendrogram / reachability plot.
    num_threads:
        Worker threads for every batched stage of the pipeline: the
        core-distance k-NN blocks, the WSPD/MemoGFK traversal sweeps, the
        BCCP* size-class kernels and the Kruskal weight sorts all shard onto
        the persistent worker pool (:mod:`repro.parallel.pool`) with fixed
        chunk boundaries, so the MST, dendrogram and labels are
        byte-identical at any thread count.
    metric:
        Distance metric the core distances and mutual reachability are taken
        under: a name (``"euclidean"``, ``"manhattan"``, ``"chebyshev"``,
        ``"minkowski:p"``), a :class:`~repro.core.metric.Metric` instance, or
        ``None`` for Euclidean.  Core distances come from the kd-tree k-NN
        and every edge weight from the metric's one exact pair kernel, so a
        weight that ties a core distance ties it bit for bit.
    backend:
        Kernel backend for every batched stage (name,
        :class:`~repro.core.backend.KernelBackend` instance, or ``None`` for
        the execution context's).  Exact backends return byte-identical results;
        lowered (``-f32``) backends score candidates in float32 with every
        surviving edge weight re-evaluated in exact float64.
    memory_budget:
        Bytes ceiling for the tiled kernels and growable buffers (int, size
        string like ``"512M"``, a :class:`~repro.core.budget.MemoryBudget`,
        or ``None`` for the execution context's — see
        :func:`repro.core.context.use_context`).  Changes only
        tile/chunk sizes and enables spill-to-disk past its threshold, so
        the MST, dendrogram and labels are byte-identical to the unbudgeted
        engine at any budget admitting at least one tile.
    checkpoint_dir:
        Directory for phase-level checkpoint/resume (see
        :mod:`repro.resilience`).  When given, each finished pipeline phase —
        core distances, the MST (plus, for MemoGFK, every completed filter
        round) and the dendrogram — is committed atomically with a checksum,
        and a rerun over the same directory with the same fingerprint (same
        points, parameters, metric, backend, dtype, thread count and budget)
        skips the completed phases and returns **byte-identical** results.
        A mismatching fingerprint raises ``CheckpointMismatchError``;
        corrupt or truncated state raises ``CheckpointCorruptError``.
    resume:
        With ``False`` an existing checkpoint in ``checkpoint_dir`` is
        discarded and the run starts fresh (default ``True``: reuse it).
    max_retries:
        Worker-death events one pooled batch absorbs by respawn-and-retry
        before degrading to the serial fallback (``None`` keeps the execution
        context's, 2 by default).
    task_timeout:
        Seconds a pooled batch may go with no task completing before the run
        fails with ``WorkerFailedError`` (``None``: no time limit; worker
        *deaths* are still detected and retried immediately either way).
    method_kwargs:
        Per-method options forwarded to the MST implementation (``rho`` for
        ``"optics-approx"``, ``epsilon`` for ``"wspd-approx"``).  An option
        the selected implementation does not take raises
        ``InvalidParameterError`` naming the ones it does.

    Returns
    -------
    HDBSCANResult
    """
    # One scope covers the whole pipeline, input coercion included: the
    # budget governs the streamed finiteness check and spilled buffers, every
    # tree built inside snapshots the backend, and every pooled stage
    # inherits the fault-tolerance knobs.
    with use_context(
        backend=backend,
        memory_budget=memory_budget,
        max_retries=max_retries,
        task_timeout=task_timeout,
    ):
        data = as_points(points, min_points=1)
        n = data.shape[0]
        if not 1 <= min_pts <= n:
            raise InvalidParameterError(f"minPts must be in [1, {n}], got {min_pts}")
        try:
            mst_function = HDBSCAN_METHODS[method]
        except KeyError:
            raise InvalidParameterError(
                f"unknown HDBSCAN* method {method!r}; "
                f"choose from {sorted(HDBSCAN_METHODS)}"
            ) from None
        check_method_options(
            mst_function,
            method_kwargs,
            f"HDBSCAN* method {method!r}",
            reserved=_HDBSCAN_RESERVED,
        )

        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = CheckpointManager(
                checkpoint_dir,
                build_fingerprint(
                    data,
                    algorithm="hdbscan",
                    method=method,
                    metric=metric,
                    backend=backend,
                    memory_budget=memory_budget,
                    num_threads=num_threads,
                    min_pts=int(min_pts),
                    start=int(start),
                    compute_dendrogram=bool(compute_dendrogram),
                    options=repr(sorted(method_kwargs.items())),
                ),
                resume=resume,
            )

        timings = {}
        start_time = time.perf_counter()
        if checkpoint is not None and checkpoint.has_phase("core-distances"):
            arrays, _ = checkpoint.load_phase("core-distances")
            core_dists = arrays["core_distances"]
        else:
            core_dists = compute_core_distances(
                data, min_pts, num_threads=num_threads, metric=metric
            )
            if checkpoint is not None:
                checkpoint.save_phase("core-distances", {"core_distances": core_dists})
        timings["core-dist"] = time.perf_counter() - start_time

        start_time = time.perf_counter()
        if checkpoint is not None and checkpoint.has_phase("mst"):
            arrays, meta = checkpoint.load_phase("mst")
            edges = EdgeList()
            edges.extend_arrays(arrays["u"], arrays["v"], arrays["w"])
            mst = EMSTResult(
                edges,
                n,
                str(meta.get("method", method)),
                stats=dict(meta.get("stats", {})),
            )
        else:
            if method == "bruteforce":
                mst = mst_function(data, min_pts, core_dists=core_dists, metric=metric)
            else:
                if method == "memogfk" and checkpoint is not None:
                    # MemoGFK checkpoints every filter round, so even a kill
                    # mid-MST resumes at the last finished round.
                    method_kwargs = dict(method_kwargs, checkpoint=checkpoint)
                mst = mst_function(
                    data,
                    min_pts,
                    core_dists=core_dists,
                    num_threads=num_threads,
                    metric=metric,
                    **method_kwargs,
                )
            if checkpoint is not None:
                u, v, w = mst.edges.as_arrays()
                checkpoint.save_phase(
                    "mst",
                    {"u": u, "v": v, "w": w},
                    {"stats": mst.stats, "method": mst.method},
                )
                checkpoint.remove_phase(ROUND_PHASE)
        timings["mst"] = time.perf_counter() - start_time

        dendrogram = None
        if compute_dendrogram and n > 1:
            start_time = time.perf_counter()
            if checkpoint is not None and checkpoint.has_phase("dendrogram"):
                arrays, _ = checkpoint.load_phase("dendrogram")
                dendrogram = Dendrogram.from_state_arrays(arrays)
            else:
                dendrogram = dendrogram_sequential(mst.edges, n, start=start)
                if checkpoint is not None:
                    checkpoint.save_phase("dendrogram", dendrogram.state_arrays())
            timings["dendrogram"] = time.perf_counter() - start_time

    # The fit is over: drop the edge buffers' doubling over-allocation so a
    # long-lived holder of the result (the serving layer) pins only live data.
    mst.edges.shrink_to_fit()
    stats = dict(mst.stats)
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return HDBSCANResult(
        mst=mst,
        core_distances=core_dists,
        min_pts=min_pts,
        dendrogram=dendrogram,
        method=method,
        stats=stats,
    )
