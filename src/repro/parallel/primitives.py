"""Vectorized array primitives shared across the engine.

* :func:`segment_ranges` — the segmented iota (concatenated ``arange``
  spans), used by the flat kd-tree, dual-tree Borůvka, the dendrogram
  scatters and the dynamic engine's member gathers;
* :func:`pointer_jump` — pointer doubling over a parent-array forest, used
  by Borůvka's component labelling and the dendrogram condense.

Both are NumPy passes with no work–depth charges: their callers charge the
modelled cost of the algorithm step they belong to.
"""

from __future__ import annotations

import numpy as np


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
