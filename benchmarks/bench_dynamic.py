"""Dynamic-update gates: incremental churn vs cold refit, with conformance.

The incremental engine exists so a serving deployment can absorb point
churn without re-running the fit.  This driver records and gates the two
claims behind that:

* **Update vs refit gate** — one cold :func:`repro.dynamic.fit_dynamic`,
  the one-off build of its repair support (timed on its own as
  ``support_seconds`` by reading ``SUPPORT_ATTR``, so it lands in neither
  the fit nor the first batch), then a 1% churn applied as insert/delete
  batches through :func:`insert_batch` / :func:`delete_batch`.  At full
  scale (n=10^5) the *total* incremental cost of the churn must be at
  least 10x cheaper than the cold refit of the surviving points; the
  artifact also records the per-batch insert/delete costs and the
  mean-per-update ratio.  At smoke scale the ratio is recorded but not
  enforced (small fits amortize nothing).
* **Honest update baseline** — one mixed delete+insert
  :func:`update_batch` call, recorded against the cold fit of its
  survivors (``fit_state`` and ``fit_dynamic`` are one fit, so one time;
  recorded, not gated).
* **Conformance gate** — at any scale, the churned state must be
  byte-identical to a cold refit of the surviving points: every persisted
  array (points, core distances, MST columns, dendrogram, condensed tree)
  and the EOM labels.  A seeded randomized churn drill (seed logged in
  the artifact) re-asserts the same identity over an interleaved
  insert/delete sequence.

JSON artifact: ``REPRO_BENCH_JSON`` (default ``BENCH_dynamic.json``),
scaled by ``REPRO_BENCH_SCALE`` like every other driver.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench.harness import memory_snapshot
from repro.dynamic import (
    SUPPORT_ATTR,
    delete_batch,
    fit_dynamic,
    insert_batch,
    update_batch,
)

from _common import scaled

#: Points in the benchmark fit; the 10x gate is stated at n=10^5.
BENCH_N = 100_000

#: Fraction of the point set churned through the incremental engine.
CHURN_FRACTION = 0.01

MIN_PTS = 10
MIN_CLUSTER_SIZE = 5

#: Seed of the randomized interleaved drill (logged in the artifact so a
#: failure is replayable byte for byte).
DRILL_SEED = 20210607

_FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0

_RESULTS: dict = {}


def _record(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    machine = _RESULTS.setdefault("machine", {})
    machine["scale"] = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    machine.update(memory_snapshot())
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_dynamic.json")
    with open(path, "w") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(17).random((n, 3))


def _state_blobs(state) -> dict:
    return {
        name: np.asarray(value).tobytes()
        for name, value in state.state_arrays().items()
    }


def _assert_conformant(updated, cold, context: str) -> None:
    got, want = _state_blobs(updated), _state_blobs(cold)
    assert set(got) == set(want), context
    for name in sorted(want):
        assert got[name] == want[name], (
            f"{context}: array {name!r} diverged from the cold refit"
        )
    assert (
        updated.recut().labels.tobytes() == cold.recut().labels.tobytes()
    ), context


def test_update_vs_refit(benchmark):
    """1% churn through the incremental engine vs a cold refit."""
    n = scaled(BENCH_N)
    churn = max(2, int(n * CHURN_FRACTION))
    half = churn // 2
    report: dict = {}

    def run():
        points = _points(n)
        rng = np.random.default_rng(3)
        batch = rng.random((half, 3))

        start = time.perf_counter()
        state = fit_dynamic(
            points, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        )
        fit_seconds = time.perf_counter() - start

        start = time.perf_counter()
        getattr(state, SUPPORT_ATTR)
        support_seconds = time.perf_counter() - start

        start = time.perf_counter()
        state = insert_batch(state, batch)
        insert_seconds = time.perf_counter() - start

        removed = rng.choice(n + half, size=half, replace=False)
        start = time.perf_counter()
        state = delete_batch(state, removed)
        delete_seconds = time.perf_counter() - start

        survivors = np.delete(
            np.concatenate([points, batch]), removed, axis=0
        )
        start = time.perf_counter()
        cold = fit_dynamic(
            survivors, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        )
        refit_seconds = time.perf_counter() - start

        _assert_conformant(state, cold, f"1% churn at n={n}")

        removed = rng.choice(survivors.shape[0], size=half, replace=False)
        batch = rng.random((half, 3))
        start = time.perf_counter()
        state = update_batch(state, removed, batch)
        update_seconds = time.perf_counter() - start
        final = np.concatenate([np.delete(survivors, removed, axis=0), batch])
        start = time.perf_counter()
        cold = fit_dynamic(
            final, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        )
        cold_fit_seconds = time.perf_counter() - start
        _assert_conformant(state, cold, f"mixed update at n={n}")

        churn_seconds = insert_seconds + delete_seconds
        report.update(
            n=n,
            churned_points=2 * half,
            fit_seconds=fit_seconds,
            support_seconds=support_seconds,
            insert_seconds=insert_seconds,
            delete_seconds=delete_seconds,
            churn_seconds=churn_seconds,
            refit_seconds=refit_seconds,
            churn_speedup=refit_seconds / churn_seconds,
            mean_update_speedup=refit_seconds / (churn_seconds / 2.0),
            mixed_update_seconds=update_seconds,
            cold_fit_seconds=cold_fit_seconds,
            mixed_update_speedup_vs_fastest_fit=(
                cold_fit_seconds / update_seconds
            ),
            conformant=True,
        )
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"[dynamic] fit n={n}: fit={report['fit_seconds']:.2f}s "
        f"support build={report['support_seconds']:.2f}s"
    )
    print(
        f"[dynamic] churn-vs-refit n={n}: refit={report['refit_seconds']:.2f}s "
        f"insert={report['insert_seconds']:.2f}s "
        f"delete={report['delete_seconds']:.2f}s "
        f"(churn x{report['churn_speedup']:.1f}, "
        f"per-update x{report['mean_update_speedup']:.1f})"
    )
    print(
        f"[dynamic] mixed update n={n}: "
        f"update={report['mixed_update_seconds']:.2f}s vs cold fit "
        f"{report['cold_fit_seconds']:.2f}s "
        f"x{report['mixed_update_speedup_vs_fastest_fit']:.1f}"
    )
    if _FULL_SCALE:
        assert report["churn_speedup"] >= 10.0, (
            f"applying 1% churn incrementally is only "
            f"{report['churn_speedup']:.1f}x cheaper than a cold refit; "
            f"the dynamic engine gates >= 10x at n={n}"
        )
    _record("update_vs_refit", report)


def test_churn_drill(benchmark):
    """Seeded interleaved insert/delete drill, byte-compared to a refit."""
    n = scaled(2_000)
    rounds = 4
    report: dict = {}

    def run():
        rng = np.random.default_rng(DRILL_SEED)
        live = _points(n)
        state = fit_dynamic(
            live, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        )
        start = time.perf_counter()
        for _ in range(rounds):
            batch = rng.random((int(rng.integers(10, 40)), 3))
            state = insert_batch(state, batch)
            live = np.concatenate([live, batch])
            removed = rng.choice(
                live.shape[0],
                size=min(int(rng.integers(10, 50)), live.shape[0]),
                replace=False,
            )
            state = delete_batch(state, removed)
            live = np.delete(live, removed, axis=0)
        drill_seconds = time.perf_counter() - start
        cold = fit_dynamic(
            live, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE
        )
        _assert_conformant(state, cold, f"drill seed={DRILL_SEED}")
        report.update(
            n=n,
            rounds=rounds,
            seed=DRILL_SEED,
            final_points=int(live.shape[0]),
            drill_seconds=drill_seconds,
            conformant=True,
        )
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"[dynamic] churn drill seed={DRILL_SEED}: {report['rounds']} rounds, "
        f"{report['final_points']} survivors, byte-identical to cold refit "
        f"({report['drill_seconds']:.2f}s)"
    )
    _record("churn_drill", report)
