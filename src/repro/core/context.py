"""The ambient execution context: the one place run settings live.

Every setting a pipeline reads without it being passed down explicitly —
the kernel backend, the memory budget, the worker pool's retry/timeout
policy and the work–depth tracker — is a field of one frozen
:class:`ExecutionContext`, held in a single :class:`contextvars.ContextVar`.

* :func:`current_context` reads it (``resolve_backend(None)`` and
  ``resolve_memory_budget(None)`` go through it too).
* :func:`use_context` scopes overrides for a block and restores the previous
  context on exit with a token reset; ``None`` keeps a field's current value,
  so the public entry points open one scope from their keyword arguments
  unconditionally::

      with use_context(backend=backend, memory_budget=memory_budget):
          ... build trees, run kernels ...

Because the value lives in a ``ContextVar`` rather than in process globals,
a scope is visible only to the code running inside it: another thread never
sees it.  The worker pool copies the submitting thread's context into every
task it runs, so pooled kernels see their caller's settings and charge their
caller's tracker.  The *default* value — what a thread sees before any scope
is opened, including threads started by users — is built once at import
from ``REPRO_BACKEND`` and ``REPRO_MEMORY_BUDGET``; a bad value there warns
and keeps the built-in default (``numpy``, unbounded) rather than making the
package unimportable.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.backend import (
    BACKENDS,
    BackendFallbackWarning,
    BackendLike,
    KernelBackend,
    resolve_backend,
)
from repro.core.budget import (
    UNBOUNDED,
    BudgetLike,
    MemoryBudget,
    parse_memory_size,
    resolve_memory_budget,
)
from repro.core.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - the tracker lives above repro.core
    from repro.parallel.scheduler import WorkDepthTracker


@dataclass(frozen=True)
class ExecutionContext:
    """The settings one run executes under.

    ``backend`` and ``memory_budget`` are the resolved kernel backend and
    bytes ceiling.  ``max_retries`` bounds how many worker-death events one
    pooled batch absorbs by respawn-and-re-execute before the serial
    fallback; ``task_timeout`` (seconds) bounds how long a batch may go with
    no task completing (``None`` waits forever, but deaths are detected by
    liveness, not time).  ``tracker`` receives the work–depth charges
    (``None`` discards them).
    """

    backend: KernelBackend
    memory_budget: MemoryBudget
    max_retries: int = 2
    task_timeout: Optional[float] = None
    tracker: Optional["WorkDepthTracker"] = None

    def override(
        self,
        *,
        backend: BackendLike = None,
        memory_budget: BudgetLike = None,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
        tracker: Optional["WorkDepthTracker"] = None,
    ) -> "ExecutionContext":
        """This context with the given fields replaced (``None`` keeps one).

        Backends and budgets are resolved (names and sizes accepted); bad
        values raise :class:`~repro.core.errors.InvalidParameterError`.
        """
        changes = {}
        if backend is not None:
            changes["backend"] = resolve_backend(backend)
        if memory_budget is not None:
            changes["memory_budget"] = resolve_memory_budget(memory_budget)
        if max_retries is not None:
            if int(max_retries) < 0:
                raise InvalidParameterError(
                    f"max_retries must be >= 0, got {max_retries!r}"
                )
            changes["max_retries"] = int(max_retries)
        if task_timeout is not None:
            if not float(task_timeout) > 0:
                raise InvalidParameterError(
                    f"task_timeout must be a positive number of seconds, "
                    f"got {task_timeout!r}"
                )
            changes["task_timeout"] = float(task_timeout)
        if tracker is not None:
            changes["tracker"] = tracker
        return replace(self, **changes) if changes else self


def _environment_context() -> ExecutionContext:
    """The default context, from ``REPRO_BACKEND`` / ``REPRO_MEMORY_BUDGET``."""
    backend = BACKENDS["numpy"]
    spec = os.environ.get("REPRO_BACKEND", "").strip()
    if spec:
        try:
            backend = resolve_backend(spec)
        except InvalidParameterError as error:
            warnings.warn(
                f"ignoring REPRO_BACKEND: {error}", BackendFallbackWarning,
                stacklevel=2,
            )
    budget = UNBOUNDED
    spec = os.environ.get("REPRO_MEMORY_BUDGET", "").strip()
    if spec:
        try:
            budget = MemoryBudget(parse_memory_size(spec))
        except InvalidParameterError as error:
            warnings.warn(
                f"ignoring REPRO_MEMORY_BUDGET: {error}", RuntimeWarning,
                stacklevel=2,
            )
    return ExecutionContext(backend=backend, memory_budget=budget)


# The environment-derived context is the variable's *default*, not a value
# set at import: threads start with an empty context, and only a default is
# visible there.
_CONTEXT: ContextVar[ExecutionContext] = ContextVar(
    "repro_execution_context", default=_environment_context()
)


def current_context() -> ExecutionContext:
    """The execution context of the calling code."""
    return _CONTEXT.get()


@contextmanager
def use_context(
    *,
    backend: BackendLike = None,
    memory_budget: BudgetLike = None,
    max_retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    tracker: Optional["WorkDepthTracker"] = None,
) -> Iterator[ExecutionContext]:
    """Scope overrides of the current context (``None`` keeps a field).

    Yields the context in force inside the block; the previous one is
    restored on exit, however the block ends.
    """
    context = _CONTEXT.get().override(
        backend=backend,
        memory_budget=memory_budget,
        max_retries=max_retries,
        task_timeout=task_timeout,
        tracker=tracker,
    )
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)
