"""Deterministic fault injection and the failure paths it drives.

Covers the harness itself (spec grammar, occurrence counting, activation)
and every consumer of an injection point: the WorkerPool death-recovery
ladder (respawn → serial fallback → ``WorkerFailedError``), the memory
budget's spill failure paths, checkpoint truncation, and the compiled
backend's simulated numba outage.  The recovery paths must produce the same
bytes as the happy path — fault tolerance that changes results is a bug.
"""

from __future__ import annotations

import gc
import os
import threading
import warnings

import numpy as np
import pytest

from repro import emst
from repro.core.backend import (
    HAVE_NUMBA,
    BackendFallbackWarning,
    available_backends,
    resolve_backend,
)
from repro.core.budget import MemoryBudget
from repro.core.context import current_context, use_context
from repro.core.errors import (
    InvalidParameterError,
    SpillIOError,
    WorkerFailedError,
)
from repro.parallel.pool import (
    WorkerPool,
    WorkerRecoveryWarning,
    get_pool,
    shutdown_pools,
)
from repro.resilience import (
    Fault,
    FaultPlan,
    InjectedCrashError,
    active_plan,
    fault_check,
    fault_enabled,
    inject_faults,
    parse_fault_spec,
)


class TestFaultSpecGrammar:
    def test_bare_kind_defaults(self):
        plan = parse_fault_spec("kill-worker")
        (fault,) = plan.faults
        assert fault.kind == "kill-worker"
        assert fault.at == 0
        assert fault.times == 1
        assert fault.phase is None
        assert fault.scope == "worker"

    def test_full_option_set(self):
        plan = parse_fault_spec(
            "crash-after-phase:at=3,times=2,phase=mst;kill-worker:scope=any,times=inf"
        )
        crash, kill = plan.faults
        assert (crash.at, crash.times, crash.phase) == (3, 2, "mst")
        assert kill.scope == "any"
        assert kill.times < 0  # inf

    def test_spec_round_trips(self):
        for spec in (
            "kill-worker",
            "kill-worker:at=2",
            "kill-worker:times=inf,scope=any",
            "crash-after-phase:phase=core-distances",
            "spill-os-error:at=1,times=3",
        ):
            (fault,) = parse_fault_spec(spec).faults
            assert parse_fault_spec(fault.spec()).faults[0].spec() == fault.spec()

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = parse_fault_spec(" kill-worker : at = 1 ; ; spill-os-error ")
        assert [fault.kind for fault in plan.faults] == [
            "kill-worker",
            "spill-os-error",
        ]
        assert plan.faults[0].at == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-kind",
            "kill-worker:at",
            "kill-worker:bogus=1",
            "kill-worker:at=x",
            "kill-worker:scope=everything",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises((InvalidParameterError, ValueError)):
            parse_fault_spec(bad)

    def test_fault_and_plan_pass_through(self):
        fault = Fault("no-numba")
        assert parse_fault_spec(fault).faults == [fault]
        plan = FaultPlan([fault])
        assert parse_fault_spec(plan) is plan


class TestFaultMatching:
    def test_at_and_times_window(self):
        plan = parse_fault_spec("kill-worker:at=2,times=2")
        hits = [plan.fire("kill-worker") is not None for _ in range(6)]
        assert hits == [False, False, True, True, False, False]

    def test_times_inf_fires_forever(self):
        plan = parse_fault_spec("kill-worker:times=inf")
        assert all(plan.fire("kill-worker") is not None for _ in range(10))

    def test_phase_filter_counts_only_matching_occurrences(self):
        plan = parse_fault_spec("crash-after-phase:phase=mst,at=1")
        assert plan.fire("crash-after-phase", phase="core-distances") is None
        assert plan.fire("crash-after-phase", phase="mst") is None  # occurrence 0
        assert plan.fire("crash-after-phase", phase="mst") is not None
        assert plan.faults[0].seen == 2  # the core-distances call never counted

    def test_worker_scope_skips_serial_context_without_counting(self):
        plan = parse_fault_spec("kill-worker")
        assert plan.fire("kill-worker", serial=True) is None
        assert plan.faults[0].seen == 0
        assert plan.fire("kill-worker") is not None

    def test_events_record_fired_occurrences(self):
        plan = parse_fault_spec("spill-os-error:times=2")
        plan.fire("spill-os-error", nbytes=100)
        plan.fire("spill-os-error", nbytes=200)
        plan.fire("spill-os-error", nbytes=300)  # beyond times=2
        assert plan.events == [
            ("spill-os-error", {"nbytes": 100}),
            ("spill-os-error", {"nbytes": 200}),
        ]


class TestActivation:
    def test_unarmed_checks_are_noops(self):
        assert active_plan() is None
        assert fault_check("kill-worker") is None
        assert not fault_enabled("no-numba")

    def test_inject_faults_arms_and_restores(self):
        with inject_faults("no-numba") as plan:
            assert active_plan() is plan
            assert fault_enabled("no-numba")
            with inject_faults("kill-worker") as inner:
                assert active_plan() is inner
                assert not fault_enabled("no-numba")
            assert active_plan() is plan
        assert active_plan() is None

    def test_enabled_does_not_consume_occurrences(self):
        with inject_faults("no-numba") as plan:
            for _ in range(5):
                assert fault_enabled("no-numba")
            assert plan.faults[0].seen == 0


def _square(value):
    return value * value


class TestWorkerPoolChaos:
    def test_worker_death_recovers_with_identical_results(self):
        items = list(range(64))
        expected = [_square(item) for item in items]
        with WorkerPool(4) as pool:
            with inject_faults("kill-worker:at=1"):
                assert pool.map(_square, items) == expected
            assert pool.deaths_detected >= 1
            # The dead worker was replaced; the pool stays reusable.
            assert pool.map(_square, items) == expected
            assert pool.healthy

    def test_repeated_deaths_escalate_to_serial_fallback(self):
        items = list(range(32))
        expected = [_square(item) for item in items]
        with WorkerPool(4) as pool:
            with inject_faults("kill-worker:times=inf"):
                with pytest.warns(WorkerRecoveryWarning, match="serially"):
                    assert pool.map(_square, items) == expected
            assert pool.deaths_detected >= 3

    def test_max_retries_zero_escalates_on_first_death(self):
        items = list(range(32))
        expected = [_square(item) for item in items]
        with WorkerPool(4) as pool:
            with inject_faults("kill-worker:at=0"):
                with pytest.warns(WorkerRecoveryWarning, match="max_retries=0"):
                    result = pool.map(_square, items, max_retries=0)
            assert result == expected

    def test_killing_the_serial_fallback_raises_typed_error(self):
        with WorkerPool(4) as pool:
            with inject_faults("kill-worker:times=inf,scope=any"):
                with pytest.warns(WorkerRecoveryWarning):
                    with pytest.raises(WorkerFailedError, match="exhausted"):
                        pool.map(_square, list(range(32)))
            assert not pool.healthy

    def test_task_timeout_stall_poisons_the_pool(self):
        release = threading.Event()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WorkerRecoveryWarning)
                pool = WorkerPool(2)
                with pytest.raises(WorkerFailedError, match="task_timeout"):
                    pool.map(
                        lambda _: release.wait(30),
                        list(range(8)),
                        task_timeout=0.2,
                    )
            assert not pool.healthy
        finally:
            release.set()
        # Join the released workers: left running, they claim the batch's
        # leftover tasks during later tests and can consume an armed
        # kill-worker fault meant for another pool.
        pool.shutdown()

    def test_policy_validation(self):
        with WorkerPool(2) as pool:
            with pytest.raises(InvalidParameterError, match="max_retries"):
                pool.map(_square, [1, 2], max_retries=-1)
            with pytest.raises(InvalidParameterError, match="task_timeout"):
                pool.map(_square, [1, 2], task_timeout=0)

    def test_use_context_scopes_the_pool_policy(self):
        items = list(range(32))
        with WorkerPool(4) as pool:
            with use_context(max_retries=0):
                with inject_faults("kill-worker:at=0"):
                    with pytest.warns(WorkerRecoveryWarning, match="max_retries=0"):
                        pool.map(_square, items)
        with pytest.raises(InvalidParameterError):
            with use_context(task_timeout=-1):
                pass

    def test_recovered_tasks_run_in_the_submitters_context(self):
        """Re-executed tasks and the serial fallback see the caller's scope."""
        items = list(range(32))

        def observe(item):
            return threading.current_thread(), current_context().backend.name

        with WorkerPool(2) as pool, use_context(backend="numpy-f32"):
            with inject_faults("kill-worker:at=0"):
                respawned = pool.map(observe, items)
            assert pool.deaths_detected >= 1
            with inject_faults("kill-worker:times=inf"):
                with pytest.warns(WorkerRecoveryWarning, match="serially"):
                    fallback = pool.map(observe, items)
        submitter = threading.current_thread()
        assert [name for _, name in respawned] == ["numpy-f32"] * len(items)
        assert [name for _, name in fallback] == ["numpy-f32"] * len(items)
        assert any(thread is submitter for thread, _ in fallback)

    def test_get_pool_replaces_poisoned_cache_entry(self):
        shutdown_pools()
        try:
            pool = get_pool(3)
            with inject_faults("kill-worker:times=inf,scope=any"):
                with pytest.warns(WorkerRecoveryWarning):
                    with pytest.raises(WorkerFailedError):
                        pool.map(_square, list(range(32)))
            assert not pool.healthy
            rebuilt = get_pool(3)
            assert rebuilt is not pool
            assert rebuilt.healthy
            assert rebuilt.map(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            shutdown_pools()

    def test_task_exceptions_still_propagate_after_a_recovery(self):
        def explode(value):
            if value == 17:
                raise ValueError("boom")
            return value

        with WorkerPool(4) as pool:
            with inject_faults("kill-worker:at=0"):
                with pytest.raises(ValueError, match="boom"):
                    pool.map(explode, list(range(32)))


class TestSpillFaults:
    CAPACITY = 1 << 16  # 512 KB of float64 — past every threshold below

    def _budget(self):
        return MemoryBudget("4M", spill_threshold=1024)

    def test_normal_spill_is_tracked_and_released(self):
        budget = self._budget()
        buffer = budget.allocate(self.CAPACITY, np.float64)
        assert isinstance(buffer, np.memmap)
        assert budget.spilled_buffers == 1
        assert budget.live_spilled_bytes == buffer.nbytes
        del buffer
        gc.collect()
        assert budget.live_spilled_bytes == 0

    def test_spill_os_error_falls_back_to_ram(self):
        budget = self._budget()
        with inject_faults("spill-os-error"):
            with pytest.warns(RuntimeWarning, match="keeping it in RAM"):
                buffer = budget.allocate(self.CAPACITY, np.float64)
        assert not isinstance(buffer, np.memmap)
        assert buffer.shape == (self.CAPACITY,)
        assert budget.spilled_buffers == 0
        assert budget.live_spilled_bytes == 0

    def test_spill_and_ram_failure_raise_typed_error(self):
        budget = self._budget()
        with inject_faults("spill-os-error;spill-ram-fail"):
            with pytest.warns(RuntimeWarning):
                with pytest.raises(SpillIOError, match="RAM fallback failed"):
                    budget.allocate(self.CAPACITY, np.float64)
        assert budget.live_spilled_bytes == 0

    def test_failed_fit_leaks_no_spill_mappings(self, tmp_path):
        # A crash mid-pipeline must not leave live spill memmaps behind:
        # the drivers' finally blocks release the growable containers and
        # each mapping's finalizer returns its bytes.
        def open_fds():
            if not os.path.isdir("/proc/self/fd"):
                return None
            return len(os.listdir("/proc/self/fd"))

        points = np.random.default_rng(7).normal(size=(600, 3))
        budget = MemoryBudget("8M", spill_threshold=1024)
        fds_before = open_fds()
        with inject_faults("crash-after-phase:phase=mst"):
            with pytest.raises(InjectedCrashError):
                emst(
                    points,
                    memory_budget=budget,
                    checkpoint_dir=tmp_path / "ckpt",
                )
        gc.collect()
        assert budget.spilled_buffers > 0, "fault never exercised the spill path"
        assert budget.live_spilled_bytes == 0
        if fds_before is not None:
            assert open_fds() <= fds_before, "failed fit leaked file descriptors"

    def test_refused_spill_leaks_no_descriptors(self):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc to count descriptors")
        budget = self._budget()
        fds_before = len(os.listdir("/proc/self/fd"))
        with inject_faults("spill-os-error:times=inf"):
            for _ in range(5):
                with pytest.warns(RuntimeWarning):
                    budget.allocate(self.CAPACITY, np.float64)
        assert len(os.listdir("/proc/self/fd")) <= fds_before


class TestNoNumbaFault:
    def test_compiled_backend_reports_unavailable(self):
        with inject_faults("no-numba"):
            assert "numba" not in available_backends()
            with pytest.warns(BackendFallbackWarning, match="falling back"):
                backend = resolve_backend("numba")
            assert backend.name == "numpy"
            with pytest.warns(BackendFallbackWarning):
                lowered = resolve_backend("numba-f32")
            assert lowered.name == "numpy-f32"

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_outage_ends_with_the_fault_scope(self):
        with inject_faults("no-numba"):
            assert not resolve_backend(None if False else "numpy").lowered
            assert "numba" not in available_backends()
        assert "numba" in available_backends()
