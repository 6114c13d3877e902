"""The benchmark's workloads, their correctness checks and their metrics.

Every workload runs in the calling process at ``num_threads=1`` on arrays
generated here from the seed; the program receives nothing else.  The timed
phase of a workload repeats one step: a few rounds of a closed-loop serving
session, then one timed cold fit.

* ``emst-7d-household`` times ``single_linkage`` fits; its serving session
  runs on a small updatable state (n = ``Scale.tail_n``), which gives it
  the serving metrics;
* ``serve-churn-2d-varden`` times the serving session at full size; its
  timed fit is a cold ``fit_dynamic`` of the churned state's survivors,
  which is also the session's conformance check.

The untraced run times the one-call entry points (``single_linkage`` /
``fit_dynamic`` / ``ServingEngine.handle``).  The traced run times the same
work split into its layers' public functions, each call wrapped in a span.
README.md gives the reasons for each workload and the layer → end-to-end
map.

Every op runs single-threaded, in memory and to completion, so op times are
taken on the process CPU clock: wall time on a shared machine adds the
time the scheduler gave to other processes, which is not the program's.
``--seconds`` budgets are kept on the wall clock.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.harness import peak_rss_bytes
from repro.datasets.registry import load_dataset
from repro.dendrogram.condensed import condense_dendrogram
from repro.dendrogram.extract import cut_num_clusters
from repro.dendrogram.single_linkage import single_linkage
from repro.dendrogram.topdown import dendrogram_topdown
from repro.dynamic import SUPPORT_ATTR, delete_batch, fit_dynamic, insert_batch
from repro.emst.brute import emst_bruteforce
from repro.emst.memogfk import emst_memogfk
from repro.hdbscan.core_distance import core_distances
from repro.serve import SERVING_LEAF_SIZE, ServingEngine
from repro.spatial.kdtree import KDTree

from tracer import NullTracer, Tracer, span_cost

MIN_PTS = 10
MIN_CLUSTER_SIZE = 5
THREADS = 1
#: Clusters cut from the single-linkage dendrogram of emst-7d-household.
NUM_CLUSTERS = 64
#: Dataset seed of every workload's point set (see :func:`corpus`).
CORPUS_SEED = 0
#: Relative tolerance of the MST-weight check (sums run in different orders).
WEIGHT_RTOL = 1e-9
WSPD_COUNTS = (
    "rounds",
    "bccp_calls",
    "distance_evaluations",
    "pairs_materialized",
    "max_pairs_materialized",
)


@dataclass(frozen=True)
class Script:
    """The shape of a timed phase: ``fits`` steps of ``rounds`` serving
    rounds and one timed fit, at least."""

    fits: int  # timed fits, at least
    rounds: int  # serving rounds before each timed fit
    predicts: int  # predict batches per round
    recuts: int  # distinct epsilons per round, each cut then repeated
    churn: int = 20  # points deleted, and inserted, per update
    batch: int = 32  # points per predict batch, a quarter background


@dataclass(frozen=True)
class Scale:
    """Input sizes and the timed phases' shapes."""

    fit_n: int = 20_000
    serve_n: int = 10_000
    tail_n: int = 2_000  # serving session of emst-7d-household
    check_n: int = 1_500  # subsample of the brute-force MST check
    # Every read kind gets >= 200 samples.  40 predicts a round keep the
    # first predict after each update (it rebuilds the predict tables) at
    # 2.5% of the predicts, out of the p95 tail.
    fit_script: Script = Script(fits=5, rounds=2, predicts=40, recuts=24)
    # 18 updates for update_p50_ms; each timed fit is a conformance check.
    serve_script: Script = Script(fits=3, rounds=6, predicts=40, recuts=14)


FULL = Scale()
SMOKE = Scale(fit_n=500, serve_n=400, tail_n=300, check_n=150,
              fit_script=Script(fits=2, rounds=1, predicts=3, recuts=3, churn=4, batch=8),
              serve_script=Script(fits=2, rounds=1, predicts=3, recuts=3, churn=4,
                                  batch=8))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


class Recorder:
    """Latency samples per op kind, ops attempted and failures."""

    def __init__(self) -> None:
        self.setup_s: Optional[float] = None
        self.peak_rss_mb = 0.0
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: List[str] = []
        self.support_pairs = 0
        self.recut_requests = 0
        self.recut_hits = 0

    def start_timed(self) -> None:
        """Call right before the first timed op: ends the set-up time.

        Set-up counts the CPU time of the whole process so far, from the
        interpreter's start."""
        if self.setup_s is None:
            self.setup_s = time.process_time()

    def end_timed(self) -> None:
        """Call after the last timed op, before the checks."""
        self.peak_rss_mb = peak_rss_bytes() / 2**20

    def op(self, kind: str, seconds: float, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if ok:
            self.samples[kind].append(seconds)
        else:
            self.failures.append(f"{kind}: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check: {what}")

    def error(self, kind: str) -> None:
        """An op raised: count it failed and keep its traceback."""
        self.attempted += 1
        self.failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
        traceback.print_exc(file=sys.stderr)


# -- emst-7d-household -----------------------------------------------------------

EMST_WORKLOAD = "emst-7d-household"
EMST_DATASET = "7D-Household"
SERVE_WORKLOAD = "serve-churn-2d-varden"
SERVE_DATASET = "2D-SS-varden"


def _count_wspd(tracer: Tracer, stats: Dict[str, float]) -> None:
    for key in WSPD_COUNTS:
        tracer.count(key, int(stats[key]))
    tracer.count("tree_build_s", stats["time_build-tree"])
    tracer.count("rounds_s", stats["time_wspd+kruskal"])


def _emst_one_call(data: np.ndarray) -> np.ndarray:
    return single_linkage(data, num_threads=THREADS).labels_k(NUM_CLUSTERS)


def _emst_staged(data: np.ndarray, tracer: Tracer) -> np.ndarray:
    """``single_linkage`` + ``labels_k``, one layer per call."""
    with tracer.span("wspd.mst"):
        tree = emst_memogfk(data, num_threads=THREADS)
        _count_wspd(tracer, tree.stats)
    with tracer.span("dendrogram.topdown"):
        dendrogram = dendrogram_topdown(tree.edges, data.shape[0])
    with tracer.span("dendrogram.extract"):
        return cut_num_clusters(dendrogram, NUM_CLUSTERS)


def warm_up(data: np.ndarray, tracer: Tracer) -> np.ndarray:
    """The discarded first fit; returns its labels, the timed fits' reference.

    Untraced, the warm-up is the staged pipeline and the timed fits are the
    one-call entry point; traced, the other way round.  Either way every
    timed fit's labels must be byte-equal to the warm-up's.
    """
    if tracer.enabled:
        return _emst_one_call(data)
    return _emst_staged(data, tracer)


def timed_emst_fit(data: np.ndarray, reference: np.ndarray, tracer: Tracer,
                   rec: Recorder) -> None:
    try:
        with tracer.span("fit", request=f"fit-{len(rec.samples['fit'])}"):
            start = time.process_time()
            if tracer.enabled:
                labels = _emst_staged(data, tracer)
            else:
                labels = _emst_one_call(data)
            elapsed = time.process_time() - start
    except Exception:
        rec.error("fit")
        return
    rec.op("fit", elapsed)
    rec.check(labels.dtype == reference.dtype and labels.tobytes() == reference.tobytes(),
              "staged pipeline labels differ from the one-call labels")


def mst_check(data: np.ndarray, size: int, rng: np.random.Generator,
              rec: Recorder) -> None:
    """EMST weight of ``single_linkage`` against brute force on a subsample."""
    pick = np.sort(rng.choice(data.shape[0], size=min(size, data.shape[0]),
                              replace=False))
    sub = data[pick]
    fast = single_linkage(sub, num_threads=THREADS).emst.total_weight
    exact = emst_bruteforce(sub).total_weight
    rec.check(abs(fast - exact) <= WEIGHT_RTOL * max(1.0, abs(exact)),
              f"MST weight {fast!r} != brute-force weight {exact!r}")


# -- serving session ------------------------------------------------------------


def _same_state(a, b) -> bool:
    left, right = a.state_arrays(), b.state_arrays()
    if set(left) != set(right):
        return False
    return all(
        np.asarray(left[k]).dtype == np.asarray(right[k]).dtype
        and np.asarray(left[k]).tobytes() == np.asarray(right[k]).tobytes()
        for k in left
    )


class ServeSession:
    """A seeded closed-loop client of one ``ServingEngine``.

    One client sends each request after the previous reply.  Each round
    runs, in order: one ``update`` deleting ``churn`` random points and
    inserting as many from ``reserve``; ``predicts`` predict batches (3/4
    near-data points, 1/4 uniform background); one recut per epsilon, each
    computed for the first time since the update; then the same recuts
    again, answered by the LRU.

    ``reserve`` holds points of the same data set that the state does not;
    deleted points go back to it.  So the churned state stays a sample of
    one distribution, and its fits and updates cost alike from round to
    round.
    """

    def __init__(self, data: np.ndarray, reserve: np.ndarray, script: Script,
                 rng: np.random.Generator, tracer: Tracer, rec: Recorder) -> None:
        self.data = data
        self.reserve = reserve
        self.script = script
        self.rng = rng
        self.tracer = tracer
        self.rec = rec
        self.sigma = 0.05 * data.std(axis=0)
        self.low, self.high = data.min(axis=0), data.max(axis=0)
        self.engine: Optional[ServingEngine] = None
        self.epsilons = np.empty(0)
        self.rounds = 0

    def _fit(self, points: np.ndarray):
        start = time.process_time()
        state = fit_dynamic(points, min_pts=MIN_PTS, min_cluster_size=MIN_CLUSTER_SIZE,
                            num_threads=THREADS)
        return state, time.process_time() - start

    def start(self) -> None:
        """Fit the updatable state."""
        with self.tracer.span("dynamic.fit", request="dynamic-fit"):
            state, _ = self._fit(self.data)
        self.rec.support_pairs = int(getattr(state, SUPPORT_ATTR).pair_a.size)
        quantiles = np.linspace(0.5, 0.995, self.script.recuts)
        self.epsilons = np.unique(np.quantile(state.mst_w, quantiles))
        self.engine = ServingEngine(state, num_threads=THREADS)

    def _near(self, count: int) -> np.ndarray:
        rows = self.data[self.rng.integers(0, self.data.shape[0], count)]
        return rows + self.rng.normal(0.0, 1.0, rows.shape) * self.sigma

    def _request(self, kind: str, span: str, request: Dict, rid: str,
                 valid: Callable[[Dict], bool]):
        """One timed ``handle``; returns (response or None, seconds)."""
        with self.tracer.span(span, request=rid):
            start = time.process_time()
            try:
                response = self.engine.handle(request)
            except Exception:
                self.rec.error(kind)
                return None, 0.0
            elapsed = time.process_time() - start
        ok = bool(response.get("ok")) and valid(response)
        self.rec.op(kind, elapsed, ok, str(response.get("error", "invalid response")))
        if response.get("op") == "recut":
            self.rec.recut_requests += 1
            self.rec.recut_hits += bool(response.get("cached"))
        return (response if ok else None), elapsed

    def _update(self, delete: np.ndarray, insert: np.ndarray, rid: str) -> None:
        size = self.engine.state.num_points - delete.size + insert.shape[0]
        if not self.tracer.enabled:
            self._request("update", "update",
                          {"op": "update", "delete": delete.tolist(),
                           "insert": insert.tolist()}, rid,
                          lambda r: r["num_points"] == size)
            return
        # Traced: the engine's update op, one layer call at a time.
        with self.tracer.span("update", request=rid) as span:
            try:
                with self.tracer.span("dynamic.delete"):
                    state = delete_batch(self.engine.state, delete, num_threads=THREADS)
                with self.tracer.span("dynamic.insert"):
                    state = insert_batch(state, insert, num_threads=THREADS)
                self.engine.state = state
            except Exception:
                self.rec.error("update")
                return
        self.rec.op("update", span.cpu, state.num_points == size,
                    "wrong point count after the update")

    def round(self) -> None:
        script, tracer, rid = self.script, self.tracer, f"round-{self.rounds}"
        self.rounds += 1
        dim = self.data.shape[1]
        delete = self.rng.choice(self.engine.state.num_points, size=script.churn,
                                 replace=False)
        insert, self.reserve = self.reserve[:script.churn], np.vstack(
            [self.reserve[script.churn:], self.engine.state.points[delete]])
        background = script.batch // 4
        queries = [
            np.vstack([self._near(script.batch - background),
                       self.rng.uniform(self.low, self.high, (background, dim))])
            for _ in range(script.predicts)
        ]
        requests = [{"op": "predict", "points": q.tolist()} for q in queries]

        self._update(delete, insert, rid)

        def valid_predict(size):
            return lambda r: (len(r["labels"]) == size
                              and all(0.0 <= p <= 1.0 for p in r["probabilities"]))

        for j, (query, request) in enumerate(zip(queries, requests)):
            span = "serve.predict_after_update" if j == 0 else "serve.predict"
            self._request("predict", span, request, rid, valid_predict(len(query)))
            if tracer.enabled:
                state = self.engine.state
                with tracer.span("spatial.query_knn", request=rid):
                    state.tree.flat.query_knn(query, min(MIN_PTS, state.num_points))

        computed = {}
        for eps in self.epsilons:
            response, _ = self._request(
                "recut", "serve.recut", {"op": "recut", "epsilon": float(eps)}, rid,
                lambda r: r["cached"] is False)
            if response is not None:
                computed[eps] = response["labels"]
        for eps in self.epsilons:
            if tracer.enabled:
                with tracer.span("serve.recut_direct", request=rid):
                    start = time.process_time()
                    self.engine.state.recut_with_info(epsilon=float(eps))
                    direct = time.process_time() - start
            response, elapsed = self._request(
                "recut_hit", "serve.recut_hit", {"op": "recut", "epsilon": float(eps)},
                rid, lambda r: r["cached"] is True and r["labels"] == computed.get(eps))
            if tracer.enabled and response is not None:
                self.rec.samples["encode"].append(elapsed - direct)

    def conformance(self):
        """Checks the churned state against a cold ``fit_dynamic`` of the
        survivors; returns the cold state and the fit's seconds."""
        final = self.engine.state
        with self.tracer.span("dynamic.fit"):
            cold, elapsed = self._fit(final.points)
        self.rec.check(_same_state(final, cold),
                       "churned state differs from a cold fit_dynamic of the survivors")
        return cold, elapsed

    def timed_cold_fit(self) -> None:
        """:meth:`conformance` as a timed fit.

        Traced, the fit's first and last stages are repeated around it as
        the benchmark's own layer calls: before it the serving ``KDTree``
        build and its kd-tree core distances, after it the dendrogram and
        condensed tree of the fitted MST.
        """
        tracer, rec = self.tracer, self.rec
        points = self.engine.state.points
        try:
            with tracer.span("fit", request=f"fit-{len(rec.samples['fit'])}"):
                if tracer.enabled:
                    with tracer.span("spatial.build"):
                        tree = KDTree(points, leaf_size=SERVING_LEAF_SIZE)
                    with tracer.span("hdbscan.core_distances"):
                        core_distances(points, MIN_PTS, method="kdtree", tree=tree,
                                       num_threads=THREADS)
                cold, elapsed = self.conformance()
                if tracer.enabled:
                    with tracer.span("dendrogram.topdown"):
                        dendrogram = dendrogram_topdown(
                            (cold.mst_u, cold.mst_v, cold.mst_w), cold.num_points)
                    with tracer.span("dendrogram.condense"):
                        condense_dendrogram(dendrogram, MIN_CLUSTER_SIZE)
        except Exception:
            rec.error("fit")
            return
        rec.op("fit", elapsed)


# -- running a workload -----------------------------------------------------------


def end_to_end_metrics(rec: Recorder) -> Dict[str, float]:
    samples = rec.samples

    def ms(kind: str, q: float) -> float:
        return percentile(samples[kind], q) * 1e3

    return {
        "setup_s": rec.setup_s or 0.0,
        "peak_rss_mb": rec.peak_rss_mb,
        "fit_s": statistics.median(samples["fit"]) if samples["fit"] else 0.0,
        "update_p50_ms": ms("update", 50),
        "predict_p50_ms": ms("predict", 50),
        "predict_p95_ms": ms("predict", 95),
        "recut_p50_ms": ms("recut", 50),
        "recut_p95_ms": ms("recut", 95),
        "recut_hit_p50_ms": ms("recut_hit", 50),
    }


def per_layer_metrics(tracer: Tracer, rec: Recorder, n_fit: int) -> Dict[str, float]:
    def median_s(name: str) -> float:
        values = tracer.cpu_times(name)
        return statistics.median(values) if values else 0.0

    def p50_ms(name: str) -> float:
        return percentile(tracer.cpu_times(name), 50) * 1e3

    wspd = [span.counts for span in tracer.spans if span.name == "wspd.mst"]

    def wspd_median(key: str) -> float:
        return statistics.median(c[key] for c in wspd) if wspd else 0.0

    bccp_calls = wspd_median("bccp_calls")
    wall = tracer.wall_time()
    metrics = {
        "spatial.build_s": median_s("spatial.build"),
        "spatial.query_knn_p50_ms": p50_ms("spatial.query_knn"),
        "hdbscan.core_distances_s": median_s("hdbscan.core_distances"),
        "wspd.mst_s": median_s("wspd.mst"),
        "wspd.tree_build_s": wspd_median("tree_build_s"),
        "wspd.rounds_s": wspd_median("rounds_s"),
    }
    metrics.update({f"wspd.{key}": int(wspd_median(key)) for key in WSPD_COUNTS})
    metrics.update({
        "wspd.edge_yield": (n_fit - 1) / bccp_calls if bccp_calls else 0.0,
        "dendrogram.topdown_s": median_s("dendrogram.topdown"),
        "dendrogram.condense_s": median_s("dendrogram.condense"),
        "dendrogram.extract_s": median_s("dendrogram.extract"),
        "dynamic.fit_s": median_s("dynamic.fit"),
        "dynamic.support_pairs": rec.support_pairs,
        "dynamic.insert_p50_ms": p50_ms("dynamic.insert"),
        "dynamic.delete_p50_ms": p50_ms("dynamic.delete"),
        "serve.predict_p50_ms": p50_ms("serve.predict"),
        "serve.predict_after_update_p50_ms": p50_ms("serve.predict_after_update"),
        "serve.recut_p50_ms": p50_ms("serve.recut"),
        "serve.recut_hit_ratio": (rec.recut_hits / rec.recut_requests
                                  if rec.recut_requests else 0.0),
        "serve.encode_p50_ms": percentile(rec.samples["encode"], 50) * 1e3,
        "trace.coverage": tracer.coverage(),
        "trace.overhead": len(tracer.spans) * span_cost() / wall if wall else 0.0,
    })
    return metrics


@dataclass
class Outcome:
    metrics: Dict[str, float]
    rec: Recorder
    tracer: Tracer
    sizes: Dict[str, int]


def corpus(dataset: str, n: int, seed: int) -> np.ndarray:
    """The registry point set of ``CORPUS_SEED``, rows permuted by ``seed``.

    The geometry is fixed because the program's work and peak memory follow
    it: across dataset seeds, the peak RSS of one ``fit_dynamic`` on
    2D-SS-varden (n=1e4) ranged from 177 to 279 MB.  A permutation changes
    the input arrays but not the work.
    """
    points = load_dataset(dataset, n=n, seed=CORPUS_SEED)
    return points[np.random.default_rng([seed, 0]).permutation(n)]


def serving_corpus(dataset: str, n: int, seed: int):
    """A serving session's ``(data, reserve)``: ``n`` points and ``n // 10``
    held-out points of one registry set of ``CORPUS_SEED``.

    The split is fixed; ``seed`` permutes the rows of each part.
    """
    reserve = n // 10
    points = corpus(dataset, n + reserve, CORPUS_SEED)
    order = np.random.default_rng([seed, 2])
    return (points[:n][order.permutation(n)],
            points[n:][order.permutation(reserve)])


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL) -> Outcome:
    """Run one workload in this process.

    The timed phase repeats one step, a few serving rounds and then one
    timed fit, until the script's fits have run and ``seconds`` have
    passed.  So fits and requests sample the whole phase alike.
    """
    if name not in (EMST_WORKLOAD, SERVE_WORKLOAD):
        raise ValueError(f"unknown workload {name!r}")
    tracer = Tracer(name) if trace else NullTracer(name)
    rec = Recorder()
    rng = np.random.default_rng([seed, 1])  # the request script and the checks
    if name == SERVE_WORKLOAD:
        script = scale.serve_script
        session = ServeSession(*serving_corpus(SERVE_DATASET, scale.serve_n, seed),
                               script, rng, tracer, rec)
        session.start()
        fit = session.timed_cold_fit
        sizes = {"n": scale.serve_n}
    else:
        script = scale.fit_script
        data = corpus(EMST_DATASET, scale.fit_n, seed)
        reference = warm_up(data, tracer)
        session = ServeSession(*serving_corpus(EMST_DATASET, scale.tail_n, seed),
                               script, rng, tracer, rec)
        session.start()

        def fit() -> None:
            timed_emst_fit(data, reference, tracer, rec)

        sizes = {"n": scale.fit_n, "serve_n": scale.tail_n, "check_n": scale.check_n}
    rec.start_timed()
    begin = time.perf_counter()
    steps = 0
    while steps < script.fits or time.perf_counter() - begin < seconds:
        for _ in range(script.rounds):
            session.round()
        fit()
        steps += 1
    rec.end_timed()
    if name == EMST_WORKLOAD:
        session.conformance()
        mst_check(data, scale.check_n, rng, rec)
    if trace:
        metrics = per_layer_metrics(tracer, rec, sizes["n"])
    else:
        metrics = end_to_end_metrics(rec)
    return Outcome(metrics, rec, tracer, sizes)
