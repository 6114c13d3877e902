"""Phase-level checkpoint/resume for the long-running pipelines.

A fit at out-of-core scale runs for minutes to hours; a crash near the end
must not lose the finished phases.  :class:`CheckpointManager` persists each
completed pipeline phase — the SoA arrays it produced plus a small metadata
dict — under one checkpoint directory, guarded by a *manifest*:

``manifest.json``
    The run fingerprint (streamed SHA-256 of the input points, method,
    metric, backend, dtype, ``num_threads``, memory-budget spec, engine
    version) plus, per completed phase, the phase file name, its SHA-256 and
    its metadata.
``phase-<name>.npz``
    The phase's arrays, written with ``np.savez`` to a temporary file that is
    fsynced and atomically renamed into place — a reader can never observe a
    half-written phase file under its final name.

Resume semantics: reopening a checkpoint directory with the *same*
fingerprint skips every phase already recorded in the manifest; because each
phase's arrays are restored bit-for-bit and everything downstream of a phase
is deterministic, a resumed run produces **byte-identical** output to an
uninterrupted one.  A fingerprint mismatch raises
:class:`~repro.core.errors.CheckpointMismatchError` (fail fast — resuming
someone else's state could silently produce wrong results), and a corrupt or
truncated phase file is always detected by checksum before any array is
trusted (:class:`~repro.core.errors.CheckpointCorruptError`).

The ``truncate-checkpoint`` and ``crash-after-phase`` faults of
:mod:`repro.resilience.faults` hook the commit path so the chaos suite can
simulate torn writes and phase-boundary process deaths deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    InvalidParameterError,
)
from repro.resilience.faults import InjectedCrashError, fault_check

#: Version stamp of the checkpoint layout *and* of the engine's deterministic
#: pipeline.  Part of every fingerprint: a checkpoint written by an engine
#: whose phase semantics changed must not be resumed byte-identically.
ENGINE_VERSION = "repro-engine-9"

_MANIFEST_NAME = "manifest.json"
_PHASE_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")
_HASH_CHUNK_BYTES = 16 << 20


def fingerprint_points(points: np.ndarray) -> str:
    """Streamed SHA-256 of a point array's dtype, shape and contents.

    Chunked over rows so memory-mapped out-of-core inputs hash without being
    pulled into RAM; the dtype/shape header makes reinterpretations of the
    same bytes distinct.
    """
    points = np.asarray(points)
    digest = hashlib.sha256()
    digest.update(f"{points.dtype.str}|{points.shape}".encode())
    if points.size:
        contiguous = points if points.flags.c_contiguous else np.ascontiguousarray(points)
        rows_per_chunk = max(1, _HASH_CHUNK_BYTES // max(contiguous[:1].nbytes, 1))
        for start in range(0, contiguous.shape[0], rows_per_chunk):
            digest.update(memoryview(contiguous[start : start + rows_per_chunk]).cast("B"))
    return digest.hexdigest()


def build_fingerprint(
    points: np.ndarray,
    *,
    algorithm: str,
    method: str,
    metric=None,
    backend=None,
    memory_budget=None,
    num_threads=None,
    **extra,
) -> Dict[str, object]:
    """The run-identity dict the api layers hand to :class:`CheckpointManager`.

    Every knob that can change the engine's *bytes* is canonicalized here —
    the input array (streamed hash + dtype + shape), the algorithm and method,
    the metric/backend/budget specs, the resolved thread count and any
    method-specific extras — so two runs share a checkpoint directory exactly
    when resuming one from the other is byte-identical by construction.
    (Imports are local: this module sits below the metric/backend/budget
    modules in the layering and must stay importable from any of them.)
    """
    from repro.core.backend import resolve_backend
    from repro.core.budget import resolve_memory_budget
    from repro.core.metric import resolve_metric
    from repro.parallel.pool import resolve_num_threads

    points = np.asarray(points)
    fingerprint: Dict[str, object] = {
        "algorithm": str(algorithm),
        "method": str(method),
        "metric": resolve_metric(metric).spec(),
        "backend": resolve_backend(backend).name,
        "dtype": points.dtype.str,
        "shape": list(points.shape),
        "points_sha256": fingerprint_points(points),
        "num_threads": resolve_num_threads(num_threads),
        "memory_budget": resolve_memory_budget(memory_budget).spec(),
    }
    fingerprint.update(extra)
    return fingerprint


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_HASH_CHUNK_BYTES)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry after a rename (best effort off POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


class CheckpointManager:
    """Atomic, checksummed phase storage under one checkpoint directory.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).  One directory holds one
        run's state; concurrent runs need distinct directories.
    fingerprint:
        Flat JSON-serializable dict identifying the run (see
        :data:`ENGINE_VERSION` and the api layers' fingerprint builders).
    resume:
        With ``True`` (default) an existing manifest with a matching
        fingerprint is reused and its completed phases are served; with
        ``False`` any existing state is discarded and the run starts fresh.
        A *mismatching* manifest always raises — pass ``resume=False`` (or
        delete the directory) to overwrite it deliberately.
    """

    def __init__(
        self,
        directory,
        fingerprint: Dict[str, object],
        *,
        resume: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = dict(fingerprint)
        self.fingerprint.setdefault("engine", ENGINE_VERSION)
        self._phases: Dict[str, dict] = {}
        existing = self._read_manifest()
        if existing is not None:
            recorded = existing.get("fingerprint", {})
            if recorded != self.fingerprint:
                if resume:
                    differing = sorted(
                        key
                        for key in set(recorded) | set(self.fingerprint)
                        if recorded.get(key) != self.fingerprint.get(key)
                    )
                    raise CheckpointMismatchError(
                        f"checkpoint at {self.directory} was written by an "
                        f"incompatible run (differing fields: "
                        f"{', '.join(differing) or 'all'}); delete the "
                        "directory or pass resume=False to start over"
                    )
            elif resume:
                self._phases = dict(existing.get("phases", {}))
        self._write_manifest()

    # -- manifest --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    def _read_manifest(self) -> Optional[dict]:
        path = self.manifest_path
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise CheckpointCorruptError(
                f"checkpoint manifest {path} is unreadable ({error}); delete "
                "the checkpoint directory to start over"
            ) from error
        if not isinstance(manifest, dict) or "fingerprint" not in manifest:
            raise CheckpointCorruptError(
                f"checkpoint manifest {path} is malformed; delete the "
                "checkpoint directory to start over"
            )
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "format": 1,
            "fingerprint": self.fingerprint,
            "phases": self._phases,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=_MANIFEST_NAME + ".tmp-"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_directory(self.directory)

    # -- phases ----------------------------------------------------------------

    @property
    def completed_phases(self) -> Tuple[str, ...]:
        return tuple(self._phases)

    def has_phase(self, name: str) -> bool:
        return name in self._phases

    def _phase_path(self, name: str) -> Path:
        if not _PHASE_NAME_PATTERN.match(name):
            raise InvalidParameterError(
                f"invalid checkpoint phase name {name!r} (want lowercase "
                "letters, digits and dashes)"
            )
        return self.directory / f"phase-{name}.npz"

    def save_phase(
        self,
        name: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Atomically persist one completed phase (overwriting any previous
        record of the same phase, e.g. the per-round MST snapshots)."""
        path = self._phase_path(name)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, prefix=path.name + ".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **{key: np.asarray(value) for key, value in arrays.items()})
                handle.flush()
                os.fsync(handle.fileno())
            checksum = _hash_file(Path(tmp_name))
            nbytes = os.path.getsize(tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_directory(self.directory)
        self._phases[name] = {
            "file": path.name,
            "sha256": checksum,
            "nbytes": int(nbytes),
            "meta": dict(meta or {}),
        }
        self._write_manifest()
        if fault_check("truncate-checkpoint", phase=name) is not None:
            # Simulate a torn write surviving past the commit: keep the
            # manifest's full-file checksum but halve the file on disk.
            with open(path, "r+b") as handle:
                handle.truncate(max(nbytes // 2, 1))
        if fault_check("crash-after-phase", phase=name) is not None:
            raise InjectedCrashError(
                f"injected crash after checkpoint phase {name!r}"
            )

    def load_phase(self, name: str) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Load a completed phase's arrays and metadata, verifying integrity.

        Every load re-checksums the file against the manifest before trusting
        a single byte; corruption, truncation or a missing file raise
        :class:`CheckpointCorruptError`.
        """
        record = self._phases.get(name)
        if record is None:
            raise CheckpointCorruptError(
                f"checkpoint phase {name!r} is not recorded in {self.manifest_path}"
            )
        path = self.directory / record["file"]
        if not path.exists():
            raise CheckpointCorruptError(
                f"checkpoint phase file {path} is missing; delete the "
                "checkpoint directory to start over"
            )
        if os.path.getsize(path) != record["nbytes"] or _hash_file(path) != record["sha256"]:
            raise CheckpointCorruptError(
                f"checkpoint phase file {path} is corrupt or truncated "
                "(checksum mismatch); delete the checkpoint directory to "
                "start over"
            )
        try:
            with np.load(path, allow_pickle=False) as payload:
                arrays = {key: payload[key] for key in payload.files}
        except (OSError, ValueError, KeyError) as error:
            raise CheckpointCorruptError(
                f"checkpoint phase file {path} could not be decoded ({error})"
            ) from error
        return arrays, dict(record.get("meta", {}))

    def remove_phase(self, name: str) -> None:
        """Drop a phase record and its file (used to retire the per-round MST
        snapshots once the final MST phase is committed)."""
        record = self._phases.pop(name, None)
        if record is None:
            return
        self._write_manifest()
        try:
            os.unlink(self.directory / record["file"])
        except OSError:
            pass
