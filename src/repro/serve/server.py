"""Long-lived query engine over one immutable fit-state.

:class:`ServingEngine` is the read side the CLI ``serve`` mode (and the
serving benchmark) drive: construct it around a :class:`~repro.serve.state.
FitState`, then answer any number of re-cut / label / predict requests off
the read-only arrays.  Requests are plain dicts (JSON objects on the wire)
with an ``op`` field:

``{"op": "recut", "epsilon": 0.25}``
    Flat labels at new cut parameters (``epsilon`` | ``n_clusters`` |
    ``min_cluster_size`` [+ ``allow_single_cluster``]); repeated cuts hit
    the state's LRU and report ``"cached": true``.
``{"op": "labels"}``
    The clustering at the fitted parameters (an EOM recut with defaults).
``{"op": "predict", "points": [[...], ...]}``
    Approximate membership of new points (see
    :func:`repro.serve.predict.approximate_predict`).
``{"op": "update", "insert": [[...], ...], "delete": [i, ...]}``
    Mutate the served point set in place: deletions (current row indices)
    drop rows and insertions append, both in one
    :func:`repro.dynamic.update_batch` call — one repair pass and one state
    rebuild, no cold refit.  Both halves are validated before anything is
    touched, so a rejected update leaves the served state (and its repair
    support) as it was.  The resulting state is byte-identical to a
    dynamic fit of the surviving points; the cut cache restarts empty and
    core distances of perturbed neighbourhoods are refreshed.  The swap is
    atomic: reads served concurrently see either the old state or the new
    one, never a partial update.
``{"op": "info"}`` / ``{"op": "stats"}``
    Model card / request counters and cache statistics.

Every response carries ``"ok"``; failures come back as
``{"ok": false, "kind": ..., "error": ...}`` instead of taking the server
down.  ``"kind": "bad_request"`` marks a request the engine rejects (an
unknown op, a missing or ill-typed field, invalid parameters or points);
``"kind": "internal"`` marks an engine fault, whose traceback goes to
stderr and which is counted in ``requests_internal`` as well as in
``requests_failed``.  Batches dispatch onto the persistent
:mod:`repro.parallel.pool` worker pool — read handlers only read the shared
state (cut-cache inserts are lock-guarded), so one FitState serves
concurrent requests without copies;
``update`` ops serialize behind a per-engine lock so concurrent updates in
one batch compose instead of overwriting each other.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from typing import Dict, List, Optional

import numpy as np

from repro.core.errors import InvalidParameterError, InvalidPointSetError
from repro.parallel.pool import parallel_map
from repro.serve.predict import approximate_predict
from repro.serve.state import FitState


class ServingEngine:
    """Answer re-cut / label / predict requests off one fitted state."""

    def __init__(
        self, state: FitState, *, num_threads: Optional[int] = None
    ) -> None:
        self.state = state
        self.num_threads = num_threads
        self.requests_served = 0
        self.requests_failed = 0
        self.requests_internal = 0
        # handle_batch runs handlers concurrently and ``+= 1`` is a
        # read-modify-write, so the counters are bumped under a lock.
        self._counter_lock = threading.Lock()
        # Updates are read-modify-write on self.state; the lock serializes
        # them so two updates in one concurrent batch cannot both start from
        # the same snapshot and silently drop one another's work.  Readers
        # never take it — they see whichever state reference is current.
        self._update_lock = threading.Lock()

    # -- request handling ----------------------------------------------------

    def handle(self, request: Dict) -> Dict:
        """Answer one request dict; never raises."""
        try:
            response = self._dispatch(request)
            response["ok"] = True
        except (InvalidParameterError, InvalidPointSetError) as error:
            self._count(failed=True)
            return _failure("bad_request", error)
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            self._count(failed=True, internal=True)
            return _failure("internal", error)
        self._count(failed=False)
        return response

    def _count(self, *, failed: bool, internal: bool = False) -> None:
        with self._counter_lock:
            if failed:
                self.requests_failed += 1
                self.requests_internal += internal
            else:
                self.requests_served += 1

    def handle_batch(
        self, requests: List[Dict], *, num_threads: Optional[int] = None
    ) -> List[Dict]:
        """Answer a batch concurrently on the shared worker pool.

        Handlers run with inline (single-thread) kernels — the concurrency
        axis is across requests, so one slow predict cannot serialize the
        whole batch behind nested pool submissions.  Responses keep request
        order.
        """
        threads = self.num_threads if num_threads is None else num_threads
        return parallel_map(self.handle, requests, num_threads=threads)

    def _dispatch(self, request: Dict) -> Dict:
        if not isinstance(request, dict):
            raise InvalidParameterError("request must be a JSON object")
        op = request.get("op", "recut")
        if op in ("recut", "labels"):
            cut, cached = self.state.recut_with_info(
                epsilon=_maybe(request, "epsilon", float),
                n_clusters=_maybe(request, "n_clusters", int),
                min_cluster_size=_maybe(request, "min_cluster_size", int),
                allow_single_cluster=_maybe(
                    request, "allow_single_cluster", bool
                ),
            )
            return {
                "op": op,
                "kind": cut.kind,
                "cached": cached,
                "num_clusters": cut.num_clusters,
                "num_noise": cut.num_noise,
                "labels": cut.labels.tolist(),
                "probabilities": cut.probabilities.tolist(),
            }
        if op == "predict":
            points = _array(request, "points", np.float64)
            labels, probabilities = approximate_predict(self.state, points)
            return {
                "op": op,
                "labels": labels.tolist(),
                "probabilities": probabilities.tolist(),
            }
        if op == "update":
            return self._update(request)
        if op == "info":
            state = self.state
            return {
                "op": op,
                "num_points": state.num_points,
                "dimension": state.dimension,
                "min_pts": state.min_pts,
                "min_cluster_size": state.min_cluster_size,
                "allow_single_cluster": state.allow_single_cluster,
                "method": state.method,
                "metric": state.metric.spec(),
                "backend": state.backend.name,
                "points_sha256": state.fingerprint.get("points_sha256"),
            }
        if op == "stats":
            return {
                "op": op,
                "requests_served": self.requests_served,
                "requests_failed": self.requests_failed,
                "requests_internal": self.requests_internal,
                "cut_cache": self.state.cache_info(),
            }
        raise InvalidParameterError(
            f"unknown op {op!r}; expected recut, labels, predict, update, "
            f"info or stats"
        )

    def _update(self, request: Dict) -> Dict:
        # Lazy import: read-only deployments never pay for the dynamic
        # engine, and the circular serve <-> dynamic dependency stays soft.
        from repro.dynamic import update_batch

        delete = request.get("delete")
        insert = request.get("insert")
        if delete is None and insert is None:
            raise InvalidParameterError(
                "update requires at least one of insert, delete"
            )
        # No dtype coercion: update_batch rejects non-integer indices, and
        # casting here would silently truncate 0.9 -> 0.
        indices = np.asarray([]) if delete is None else _array(request, "delete")
        batch = None
        if insert is not None:
            batch = _array(request, "insert", np.float64)
            if batch.ndim == 1 and batch.size:
                batch = batch.reshape(1, -1)  # one point
        with self._update_lock:
            state = update_batch(
                self.state, indices, batch, num_threads=self.num_threads
            )
            # Single reference assignment — concurrent readers observe
            # either the old fully-consistent state or the new one.
            self.state = state
        return {
            "op": "update",
            "deleted": int(indices.size),
            "inserted": 0 if batch is None else int(batch.shape[0]),
            "num_points": state.num_points,
        }

    # -- stream serving (the CLI loop) ---------------------------------------

    def serve_stream(self, input_stream, output_stream) -> int:
        """Answer JSON-lines requests until EOF; returns requests answered.

        One request object per input line, one response object per output
        line, in order.  Blank lines are skipped; a line that does not parse
        as JSON produces an ``ok: false`` response rather than stopping the
        stream.
        """
        answered = 0
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response = {
                    "ok": False,
                    "kind": "bad_request",
                    "error": f"invalid JSON: {error}",
                }
                self._count(failed=True)
            else:
                response = self.handle(request)
            output_stream.write(json.dumps(response) + "\n")
            output_stream.flush()
            answered += 1
        return answered


def _failure(kind: str, error: Exception) -> Dict:
    return {"ok": False, "kind": kind, "error": f"{type(error).__name__}: {error}"}


def _maybe(request: Dict, key: str, convert):
    value = request.get(key)
    if value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(f"field {key!r}: {error}") from error


def _array(request: Dict, key: str, dtype=None) -> np.ndarray:
    """The request's ``key`` field as an array."""
    if key not in request:
        raise InvalidParameterError(f"missing field {key!r}")
    try:
        return np.asarray(request[key], dtype=dtype)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(f"field {key!r}: {error}") from error
