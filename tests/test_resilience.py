"""Checkpoint/resume: atomic phase storage and byte-identical recovery.

Two layers of coverage:

* Unit tests of :class:`~repro.resilience.checkpoint.CheckpointManager` — the
  atomic commit protocol, checksum verification, fingerprint matching, the
  ``resume=False`` discard path and phase retirement.
* Kill-and-resume property tests over the real pipelines: a fit is killed
  (via the deterministic ``crash-after-phase`` fault) after *every* phase
  boundary it commits, resumed in the same process, and its output compared
  **byte-for-byte** against an uninterrupted run — across EMST and HDBSCAN,
  thread counts 1 and 4, and bounded/unbounded memory budgets.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import emst, hdbscan
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    InvalidParameterError,
)
from repro.resilience import (
    CheckpointManager,
    InjectedCrashError,
    build_fingerprint,
    fingerprint_points,
    inject_faults,
)


@pytest.fixture()
def checkpoint_dir(tmp_path):
    return tmp_path / "ckpt"


class TestFingerprint:
    def test_streamed_hash_matches_dtype_shape_and_content(self):
        points = np.random.default_rng(0).random((50, 3))
        assert fingerprint_points(points) == fingerprint_points(points.copy())
        assert fingerprint_points(points) != fingerprint_points(points[:49])
        assert fingerprint_points(points) != fingerprint_points(
            points.astype(np.float32)
        )
        reshaped = points.reshape(75, 2)
        assert fingerprint_points(points) != fingerprint_points(reshaped)

    def test_non_contiguous_input_hashes_like_its_copy(self):
        points = np.random.default_rng(1).random((40, 6))[:, ::2]
        assert not points.flags.c_contiguous
        assert fingerprint_points(points) == fingerprint_points(
            np.ascontiguousarray(points)
        )

    def test_build_fingerprint_canonicalizes_knobs(self):
        points = np.random.default_rng(2).random((10, 2))
        fingerprint = build_fingerprint(
            points, algorithm="emst", method="memogfk", metric="l2"
        )
        assert fingerprint["metric"] == "euclidean"
        assert fingerprint["backend"] == "numpy"
        assert fingerprint["num_threads"] == 1
        assert fingerprint["memory_budget"] == "unbounded"
        # The whole dict must survive the JSON manifest round-trip unchanged.
        assert json.loads(json.dumps(fingerprint)) == fingerprint


class TestCheckpointManager:
    FINGERPRINT = {"algorithm": "unit", "method": "test"}

    def test_save_and_load_round_trip(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0, 1, 7),
        }
        manager.save_phase("alpha", arrays, {"round": 3})
        assert manager.has_phase("alpha")
        loaded, meta = manager.load_phase("alpha")
        assert meta == {"round": 3}
        for key, value in arrays.items():
            assert np.array_equal(loaded[key], value)
            assert loaded[key].dtype == value.dtype

    def test_reopen_resumes_completed_phases(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.ones(3)})
        reopened = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        assert reopened.completed_phases == ("alpha",)
        loaded, _ = reopened.load_phase("alpha")
        assert np.array_equal(loaded["x"], np.ones(3))

    def test_fingerprint_mismatch_raises_and_names_fields(self, checkpoint_dir):
        CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        with pytest.raises(CheckpointMismatchError, match="method"):
            CheckpointManager(checkpoint_dir, {"algorithm": "unit", "method": "other"})

    def test_previous_engine_checkpoint_is_refused(self, checkpoint_dir):
        # A dendrogram phase written by engine 8 has other node ids.
        stale = dict(self.FINGERPRINT, engine="repro-engine-8")
        CheckpointManager(checkpoint_dir, stale).save_phase(
            "dendrogram", {"left": np.arange(3)}
        )
        with pytest.raises(CheckpointMismatchError, match="engine"):
            CheckpointManager(checkpoint_dir, self.FINGERPRINT)

    def test_resume_false_discards_existing_state(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.ones(3)})
        fresh = CheckpointManager(
            checkpoint_dir, {"algorithm": "unit", "method": "other"}, resume=False
        )
        assert fresh.completed_phases == ()

    def test_truncated_phase_file_is_detected_by_checksum(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.arange(1000, dtype=np.float64)})
        path = checkpoint_dir / "phase-alpha.npz"
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        reopened = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
            reopened.load_phase("alpha")

    def test_bitflip_corruption_is_detected_by_checksum(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.arange(1000, dtype=np.float64)})
        path = checkpoint_dir / "phase-alpha.npz"
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF  # same size, different bytes
        path.write_bytes(payload)
        with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
            CheckpointManager(checkpoint_dir, self.FINGERPRINT).load_phase("alpha")

    def test_corrupt_manifest_raises_typed_error(self, checkpoint_dir):
        CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        (checkpoint_dir / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            CheckpointManager(checkpoint_dir, self.FINGERPRINT)

    def test_missing_phase_file_raises_typed_error(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.ones(3)})
        (checkpoint_dir / "phase-alpha.npz").unlink()
        with pytest.raises(CheckpointCorruptError, match="missing"):
            manager.load_phase("alpha")

    def test_remove_phase_retires_file_and_record(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.ones(3)})
        manager.remove_phase("alpha")
        assert not manager.has_phase("alpha")
        assert not (checkpoint_dir / "phase-alpha.npz").exists()
        # Idempotent on missing phases.
        manager.remove_phase("alpha")

    def test_invalid_phase_name_rejected(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        for bad in ("", "UPPER", "has space", "../escape", "-leading"):
            with pytest.raises(InvalidParameterError):
                manager.save_phase(bad, {"x": np.ones(1)})

    def test_no_temp_files_survive_a_commit(self, checkpoint_dir):
        manager = CheckpointManager(checkpoint_dir, self.FINGERPRINT)
        manager.save_phase("alpha", {"x": np.ones(100)})
        leftovers = [
            name for name in (p.name for p in checkpoint_dir.iterdir())
            if ".tmp-" in name
        ]
        assert leftovers == []


@pytest.fixture(scope="module")
def resilience_points():
    return np.random.default_rng(42).normal(size=(220, 3))


def _emst_bytes(result):
    return tuple(array.tobytes() for array in result.edges.as_arrays())


def _hdbscan_bytes(result):
    parts = [result.core_distances.tobytes()]
    parts.extend(array.tobytes() for array in result.mst.edges.as_arrays())
    parts.append(result.dbscan_labels(0.6).tobytes())
    if result.dendrogram is not None:
        for value in result.dendrogram.state_arrays().values():
            parts.append(value.tobytes())
    return tuple(parts)


class TestKillAndResumeIdentity:
    """Interrupt after every phase boundary; resume must be byte-identical."""

    THREADS = (1, 4)
    BUDGETS = (None, "16M")

    @pytest.mark.parametrize("num_threads", THREADS)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_emst_every_phase_boundary(
        self, tmp_path, resilience_points, num_threads, budget
    ):
        reference = emst(
            resilience_points, num_threads=num_threads, memory_budget=budget
        )
        boundary = 0
        while True:
            directory = tmp_path / f"kill-{num_threads}-{budget}-{boundary}"
            try:
                with inject_faults(f"crash-after-phase:at={boundary}"):
                    emst(
                        resilience_points,
                        num_threads=num_threads,
                        memory_budget=budget,
                        checkpoint_dir=directory,
                    )
            except InjectedCrashError:
                pass
            else:
                break  # boundary index beyond the last commit: clean run
            resumed = emst(
                resilience_points,
                num_threads=num_threads,
                memory_budget=budget,
                checkpoint_dir=directory,
            )
            assert _emst_bytes(resumed) == _emst_bytes(reference), (
                f"resume after boundary {boundary} diverged"
            )
            boundary += 1
        assert boundary >= 2, "expected multiple phase boundaries to test"

    @pytest.mark.parametrize("num_threads", THREADS)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_hdbscan_every_phase_boundary(
        self, tmp_path, resilience_points, num_threads, budget
    ):
        reference = hdbscan(
            resilience_points,
            min_pts=8,
            num_threads=num_threads,
            memory_budget=budget,
        )
        boundary = 0
        while True:
            directory = tmp_path / f"kill-{num_threads}-{budget}-{boundary}"
            try:
                with inject_faults(f"crash-after-phase:at={boundary}"):
                    hdbscan(
                        resilience_points,
                        min_pts=8,
                        num_threads=num_threads,
                        memory_budget=budget,
                        checkpoint_dir=directory,
                    )
            except InjectedCrashError:
                pass
            else:
                break
            resumed = hdbscan(
                resilience_points,
                min_pts=8,
                num_threads=num_threads,
                memory_budget=budget,
                checkpoint_dir=directory,
            )
            assert _hdbscan_bytes(resumed) == _hdbscan_bytes(reference), (
                f"resume after boundary {boundary} diverged"
            )
            boundary += 1
        # core-distances + per-round MST snapshots + final mst + dendrogram.
        assert boundary >= 4, "expected multiple phase boundaries to test"


class TestCheckpointPipelineGuards:
    def test_finished_checkpoint_serves_without_recompute(
        self, tmp_path, resilience_points
    ):
        directory = tmp_path / "done"
        first = emst(resilience_points, checkpoint_dir=directory)
        # Corrupting the *input* must be caught by the fingerprint, proving
        # the second call really consults the manifest.
        with pytest.raises(CheckpointMismatchError, match="points_sha256"):
            emst(resilience_points * 2.0, checkpoint_dir=directory)
        again = emst(resilience_points, checkpoint_dir=directory)
        assert _emst_bytes(first) == _emst_bytes(again)

    def test_parameter_change_is_a_mismatch(self, tmp_path, resilience_points):
        directory = tmp_path / "params"
        hdbscan(resilience_points, min_pts=8, checkpoint_dir=directory)
        with pytest.raises(CheckpointMismatchError, match="min_pts"):
            hdbscan(resilience_points, min_pts=9, checkpoint_dir=directory)

    def test_thread_count_is_part_of_the_fingerprint(
        self, tmp_path, resilience_points
    ):
        directory = tmp_path / "threads"
        emst(resilience_points, num_threads=1, checkpoint_dir=directory)
        with pytest.raises(CheckpointMismatchError, match="num_threads"):
            emst(resilience_points, num_threads=4, checkpoint_dir=directory)

    def test_resume_false_overwrites_mismatched_state(
        self, tmp_path, resilience_points
    ):
        directory = tmp_path / "fresh"
        emst(resilience_points, checkpoint_dir=directory)
        result = emst(
            resilience_points * 2.0, checkpoint_dir=directory, resume=False
        )
        reference = emst(resilience_points * 2.0)
        assert _emst_bytes(result) == _emst_bytes(reference)

    def test_truncated_phase_fails_fast_on_resume(
        self, tmp_path, resilience_points
    ):
        directory = tmp_path / "torn"
        # The truncate-checkpoint fault tears the committed core-distances
        # file *after* its checksum was recorded — exactly a torn write that
        # survived the crash.  The crash then interrupts the run.
        with inject_faults(
            "truncate-checkpoint:phase=core-distances;"
            "crash-after-phase:phase=core-distances"
        ):
            with pytest.raises(InjectedCrashError):
                hdbscan(
                    resilience_points, min_pts=8, checkpoint_dir=directory
                )
        with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
            hdbscan(resilience_points, min_pts=8, checkpoint_dir=directory)
