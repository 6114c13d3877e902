"""Classic parallel primitives (Section 2.2 of the paper).

Each primitive executes sequentially (NumPy-vectorized where it matters) but
charges its textbook work/depth cost to the ambient
:class:`~repro.parallel.scheduler.WorkDepthTracker`:

=============  =========  ==============
primitive      work       depth
=============  =========  ==============
prefix sum     O(n)       O(log n)
filter         O(n)       O(log n)
split          O(n)       O(log n)
WRITE_MIN      O(n)       O(1)
min/max index  O(n)       O(log n)
=============  =========  ==============
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.parallel.scheduler import current_tracker


def _log2(n: int) -> float:
    return math.log2(n) if n > 1 else 1.0


def prefix_sum(values, *, phase: str = "primitive"):
    """Exclusive prefix sum; returns ``(prefix_array, total)``.

    Matches the paper's definition: element ``i`` of the result is the sum of
    ``values[:i]`` and the overall total is returned separately.
    """
    array = np.asarray(values)
    n = array.shape[0]
    current_tracker().add(n, _log2(n), phase=phase)
    if n == 0:
        return np.zeros(0, dtype=array.dtype if array.size else np.int64), array.dtype.type(0)
    cumulative = np.cumsum(array)
    prefix = np.empty_like(cumulative)
    prefix[0] = 0
    prefix[1:] = cumulative[:-1]
    return prefix, cumulative[-1]


def segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``.

    The segmented-iota primitive: one ``np.repeat``-based pass in place of a
    Python loop over segments.  Shared by the flat kd-tree build and the
    dendrogram leaf-span scatters.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(offsets, counts)
    out += np.repeat(starts, counts)
    return out


def pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Flatten a forest given as a parent array (roots point at themselves).

    Every round replaces each parent by its grandparent, so a chain of
    depth ``d`` is flat after ``log2(d)`` vectorized rounds.
    """
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def parallel_filter(items: Sequence, predicate: Callable, *, phase: str = "primitive") -> list:
    """Keep the items for which ``predicate`` is true, preserving order."""
    items = list(items)
    n = len(items)
    current_tracker().add(max(n, 1), _log2(n), phase=phase)
    return [item for item in items if predicate(item)]


def parallel_split(items: Sequence, predicate: Callable, *, phase: str = "primitive") -> Tuple[list, list]:
    """Partition items into ``(true_items, false_items)``, order-preserving.

    The paper's SPLIT moves "true" elements before "false" elements; returning
    the two groups separately is equivalent and more convenient for callers.
    """
    items = list(items)
    n = len(items)
    current_tracker().add(max(n, 1), _log2(n), phase=phase)
    true_items, false_items = [], []
    for item in items:
        if predicate(item):
            true_items.append(item)
        else:
            false_items.append(item)
    return true_items, false_items


class WriteMinCell:
    """A priority-concurrent-write cell: keeps the smallest value written.

    ``write(value, payload)`` corresponds to the paper's WRITE_MIN: on
    concurrent writes the smallest value survives.  Sequential execution makes
    the "concurrent" part trivial, but keeping the same interface lets the
    algorithms read exactly like their parallel pseudocode.
    """

    __slots__ = ("value", "payload")

    def __init__(self, initial: float = math.inf, payload=None) -> None:
        self.value = initial
        self.payload = payload

    def write(self, value: float, payload=None) -> bool:
        """Write ``value`` if smaller than the current value; report success."""
        current_tracker().add(1, 1)
        if value < self.value:
            self.value = value
            self.payload = payload
            return True
        return False


def write_min(cells, index: int, value: float) -> bool:
    """WRITE_MIN into ``cells[index]`` for an array-of-floats representation."""
    current_tracker().add(1, 1)
    if value < cells[index]:
        cells[index] = value
        return True
    return False


def parallel_min_index(values, *, phase: str = "primitive") -> int:
    """Index of the minimum value (O(n) work, O(log n) depth reduction)."""
    array = np.asarray(values)
    n = array.shape[0]
    if n == 0:
        raise ValueError("cannot reduce an empty sequence")
    current_tracker().add(n, _log2(n), phase=phase)
    return int(np.argmin(array))


def parallel_max_index(values, *, phase: str = "primitive") -> int:
    """Index of the maximum value (O(n) work, O(log n) depth reduction)."""
    array = np.asarray(values)
    n = array.shape[0]
    if n == 0:
        raise ValueError("cannot reduce an empty sequence")
    current_tracker().add(n, _log2(n), phase=phase)
    return int(np.argmax(array))
