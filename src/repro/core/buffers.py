"""Growable NumPy buffer support shared by the array-backed containers.

:class:`~repro.mst.edges.EdgeList` and
:class:`~repro.dendrogram.structure.Dendrogram` both store their contents as
parallel flat arrays that grow by capacity doubling; this module holds the one
copy of that growth routine.

Growth policy (documented contract, pinned by ``tests/test_memory_budget.py``):

* capacity starts at the container's initial size and **doubles** until it
  covers the requested count — amortized O(1) appends, at most 2x
  over-allocation at any instant;
* growth never shrinks a buffer; ``as_arrays``-style accessors return
  zero-copy views over the live prefix of the (possibly oversized) buffers,
  and containers expose an explicit ``shrink_to_fit()`` for callers that want
  the over-allocation back;
* allocation is routed through the ambient
  :class:`~repro.core.budget.MemoryBudget`: under a bounded budget, buffers
  whose byte size crosses the budget's spill threshold are transparently
  backed by unlinked temporary-file memmaps (spill-to-disk) instead of RAM.
  Views handed out before a growth step remain valid either way — growth
  allocates a new buffer and copies the live prefix, it never resizes in
  place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.context import current_context


def ensure_capacity(obj, names: Sequence[str], count: int, needed: int) -> None:
    """Grow the named parallel buffer attributes of ``obj`` to ``needed`` slots.

    ``count`` is the number of live entries to preserve.  Buffers grow by
    doubling, so amortized append cost stays constant.  New storage comes from
    the ambient memory budget's allocator, which spills oversized buffers to
    disk under a bounded budget.
    """
    capacity = int(getattr(obj, names[0]).shape[0])
    if needed <= capacity:
        return
    while capacity < needed:
        capacity *= 2
    budget = current_context().memory_budget
    for name in names:
        old = getattr(obj, name)
        grown = budget.allocate(capacity, old.dtype)
        grown[:count] = old[:count]
        setattr(obj, name, grown)


def shrink_buffers(obj, names: Sequence[str], count: int, minimum: int) -> None:
    """Trim the named parallel buffers of ``obj`` to their live prefix.

    The inverse of :func:`ensure_capacity`: re-allocates each buffer at
    ``max(count, minimum)`` slots and copies the live entries, releasing the
    doubling over-allocation (and any spill file backing it).  Existing views
    into the old buffers stay valid — they keep the old storage alive.
    """
    capacity = int(getattr(obj, names[0]).shape[0])
    target = max(int(count), int(minimum))
    if capacity <= target:
        return
    budget = current_context().memory_budget
    for name in names:
        old = getattr(obj, name)
        trimmed = budget.allocate(target, old.dtype)
        trimmed[:count] = old[:count]
        setattr(obj, name, trimmed)


def buffers_nbytes(obj, names: Sequence[str]) -> int:
    """Total allocated bytes of the named buffers (capacity, not live count)."""
    return int(sum(getattr(obj, name).nbytes for name in names))


def readonly_view(array: np.ndarray, count: int) -> np.ndarray:
    """A non-writeable length-``count`` view of a live buffer.

    Containers hand out zero-copy views of their storage; marking them
    read-only turns accidental caller mutation into an error instead of
    silent corruption of the container's contents.
    """
    view = array[:count]
    view.flags.writeable = False
    return view
