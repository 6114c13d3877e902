"""Public EMST entry point.

``emst(points, method=...)`` dispatches to one of the implementations; the
default is MemoGFK, the paper's fastest method.  Input validation and
coercion happen once, here at the boundary: lists, float32 arrays and
:class:`~repro.core.points.PointSet` instances are normalized to one
contiguous float64 array (with a clear error for NaN/inf/empty inputs)
before any implementation runs, so every method sees identical inputs.
"""

from __future__ import annotations

import inspect
from typing import Callable, Collection, Dict, Mapping, Optional

from repro.core.backend import BackendLike
from repro.core.budget import BudgetLike
from repro.core.context import use_context
from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.brute import emst_bruteforce
from repro.emst.delaunay_emst import emst_delaunay
from repro.emst.dualtree_boruvka import emst_dualtree_boruvka
from repro.emst.gfk import emst_gfk
from repro.emst.memogfk import ROUND_PHASE, emst_memogfk
from repro.emst.naive import emst_naive
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.resilience.checkpoint import CheckpointManager, build_fingerprint


def _shrunk(result: EMSTResult) -> EMSTResult:
    """Drop the edge buffers' doubling over-allocation before returning.

    The fit is over when a result crosses this boundary; long-lived holders
    (the serving layer) should pin only live edge data.
    """
    result.edges.shrink_to_fit()
    return result


def check_method_options(
    function: Callable,
    options: Mapping,
    label: str,
    *,
    reserved: Collection[str] = (),
) -> None:
    """Reject options the selected implementation does not take.

    ``options`` are the per-method keyword arguments a caller passed through
    an entry point; ``reserved`` names the parameters the entry point fills
    in itself.  An unknown option raises :class:`InvalidParameterError`
    naming the accepted ones, instead of being dropped or surfacing as a
    ``TypeError`` from deep inside the call.  A function taking ``**kwargs``
    forwards them and validates them itself.
    """
    parameters = inspect.signature(function).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return
    accepted = sorted(
        p.name
        for p in parameters
        if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.name not in reserved
    )
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise InvalidParameterError(
            f"{label} does not accept option(s) {unknown}; "
            f"its options are {accepted}"
        )


#: Parameters :func:`emst` passes to every implementation itself.
_EMST_RESERVED = ("points", "metric", "checkpoint")


def _emst_wspd_approx(points, **kwargs) -> EMSTResult:
    """(1+ε)-approximate EMST (``epsilon=``, ``representative=`` kwargs).

    Imported lazily: :mod:`repro.approx` consumes the whole exact engine, so
    a module-level import here would cycle through the package inits.
    """
    from repro.approx.emst import emst_wspd_approx

    options = {k: v for k, v in kwargs.items() if k not in _EMST_RESERVED}
    check_method_options(
        emst_wspd_approx, options, "EMST method 'wspd-approx'", reserved=_EMST_RESERVED
    )
    return emst_wspd_approx(points, **kwargs)


EMST_METHODS: Dict[str, Callable[..., EMSTResult]] = {
    "memogfk": emst_memogfk,
    "gfk": emst_gfk,
    "naive": emst_naive,
    "delaunay": emst_delaunay,
    "dualtree-boruvka": emst_dualtree_boruvka,
    "bruteforce": emst_bruteforce,
    "wspd-approx": _emst_wspd_approx,
}


def emst(
    points,
    *,
    method: str = "memogfk",
    metric: MetricLike = None,
    backend: BackendLike = None,
    memory_budget: BudgetLike = None,
    checkpoint_dir=None,
    resume: bool = True,
    max_retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    **kwargs,
) -> EMSTResult:
    """Compute the minimum spanning tree of a point set under a metric.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points (coerced to contiguous float64 once,
        here; NaN/inf/empty inputs raise ``InvalidPointSetError``).
    method:
        One of ``"memogfk"`` (default, Algorithm 3), ``"gfk"`` (Algorithm 2),
        ``"naive"``, ``"delaunay"`` (2D Euclidean only),
        ``"dualtree-boruvka"``, ``"bruteforce"``, or ``"wspd-approx"`` (the
        (1+ε)-approximate tree of :func:`repro.approx.emst.approx_emst`;
        takes ``epsilon=`` and ``representative=``).
    metric:
        Distance metric: a name (``"euclidean"``, ``"manhattan"``,
        ``"chebyshev"``, ``"minkowski:p"``), a
        :class:`~repro.core.metric.Metric` instance, or ``None`` for
        Euclidean.  Every exact method reads its edge weights from the
        metric's one exact pair kernel, so they report the same bits.
    backend:
        Kernel backend: a name (``"numpy"``, ``"numba"``, ``"numpy-f32"``,
        ``"numba-f32"``), a :class:`~repro.core.backend.KernelBackend`
        instance, or ``None`` for the execution context's (see
        :func:`repro.core.context.use_context`; initialized from the
        ``REPRO_BACKEND`` environment variable).  Exact (float64-scoring)
        backends return byte-identical trees; lowered (``-f32``) backends
        score candidates in float32 and re-evaluate every surviving edge in
        exact float64.  Selecting an uninstalled compiled backend falls back
        to its numpy equivalent with a ``BackendFallbackWarning``.
    memory_budget:
        Bytes ceiling for the engine's tiled kernels and growable buffers:
        an int, a size string (``"512M"``, ``"2G"``), a
        :class:`~repro.core.budget.MemoryBudget` instance, or ``None`` for
        the execution context's (see :func:`repro.core.context.use_context`;
        initialized from the ``REPRO_MEMORY_BUDGET`` environment variable,
        unbounded otherwise).
        The budget changes only tile/chunk sizes and enables spill-to-disk
        for edge buffers past its threshold, so the returned tree is
        **byte-identical** to the unbudgeted engine at any budget that
        admits at least one tile (smaller budgets clamp, they never error).
    checkpoint_dir:
        Directory for phase-level checkpoint/resume (see
        :mod:`repro.resilience`).  When given, the finished MST (and, for
        MemoGFK, every completed filter round) is committed atomically with
        a checksum, and a rerun over the same directory with the same
        fingerprint — same points, method, metric, backend, dtype, thread
        count and budget — skips the completed work and returns a
        **byte-identical** tree.  A mismatching fingerprint raises
        ``CheckpointMismatchError``; corrupt or truncated state raises
        ``CheckpointCorruptError``.
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
    kwargs:
        Forwarded to the selected implementation.  Every method accepts
        ``num_threads``: the number of worker threads the batched kernels
        (WSPD traversals, BCCP size-class tensors, k-NN blocks, Kruskal
        weight sorts) shard onto via the persistent pool of
        :mod:`repro.parallel.pool`.  Sharding uses fixed chunk boundaries
        and stable reduction order, so the returned tree is byte-identical
        at any thread count.  Other per-method options (``beta_growth``,
        ``epsilon``, ...) are checked against the selected implementation's
        signature: an option it does not take raises
        ``InvalidParameterError`` naming the ones it does.

    Returns
    -------
    EMSTResult
        The spanning tree edges plus per-method statistics.
    """
    try:
        implementation = EMST_METHODS[method]
    except KeyError:
        raise InvalidParameterError(
            f"unknown EMST method {method!r}; choose from {sorted(EMST_METHODS)}"
        ) from None
    check_method_options(
        implementation, kwargs, f"EMST method {method!r}", reserved=_EMST_RESERVED
    )
    # One scope covers the whole pipeline, input coercion included: the
    # streamed finiteness check and any spilled buffers run under the budget,
    # every tree the implementation builds snapshots the backend, and every
    # pooled stage inherits the fault-tolerance knobs.
    with use_context(
        backend=backend,
        memory_budget=memory_budget,
        max_retries=max_retries,
        task_timeout=task_timeout,
    ):
        data = as_points(points, min_points=1)
        if checkpoint_dir is None:
            return _shrunk(implementation(data, metric=metric, **kwargs))
        checkpoint = CheckpointManager(
            checkpoint_dir,
            build_fingerprint(
                data,
                algorithm="emst",
                method=method,
                metric=metric,
                backend=backend,
                memory_budget=memory_budget,
                num_threads=kwargs.get("num_threads"),
                options=repr(
                    sorted(
                        (key, value)
                        for key, value in kwargs.items()
                        if key != "num_threads"
                    )
                ),
            ),
            resume=resume,
        )
        if checkpoint.has_phase("mst"):
            arrays, meta = checkpoint.load_phase("mst")
            edges = EdgeList()
            edges.extend_arrays(arrays["u"], arrays["v"], arrays["w"])
            return _shrunk(
                EMSTResult(
                    edges, data.shape[0], method, stats=dict(meta.get("stats", {}))
                )
            )
        if method == "memogfk":
            # MemoGFK checkpoints every filter round, so even a kill
            # mid-MST resumes at the last finished round.
            kwargs = dict(kwargs, checkpoint=checkpoint)
        result = implementation(data, metric=metric, **kwargs)
        u, v, w = result.edges.as_arrays()
        checkpoint.save_phase("mst", {"u": u, "v": v, "w": w}, {"stats": result.stats})
        checkpoint.remove_phase(ROUND_PHASE)
        return _shrunk(result)
