"""Incremental insert/delete engine with cold-refit byte-conformance.

Every :class:`~repro.serve.state.FitState` is updatable.  ``update_batch``
applies a batch of deletes and inserts in one repair pass and one rebuild
(``delete_batch`` / ``insert_batch`` are its one-sided forms), returning a
state byte-identical to a cold ``fit_dynamic`` of the surviving points;
``fit_dynamic`` is ``fit_state``'s MemoGFK fit on exact backends, for any
``n >= 0``.  The repair support (:class:`DynamicSupport`, stored under
``SUPPORT_ATTR``) is built on a state's first update.  See
:mod:`repro.dynamic.engine` for the repair model.
"""

from repro.dynamic.engine import (
    SUPPORT_ATTR,
    DynamicSupport,
    delete_batch,
    fit_dynamic,
    insert_batch,
    update_batch,
)
from repro.mst.canonical import canonical_mst_arrays

__all__ = [
    "SUPPORT_ATTR",
    "DynamicSupport",
    "canonical_mst_arrays",
    "delete_batch",
    "fit_dynamic",
    "insert_batch",
    "update_batch",
]
