"""Command-line interface.

Exposes the three public pipelines on files of points so the library can be
used without writing Python::

    python -m repro emst points.csv --method memogfk --output tree.csv
    python -m repro hdbscan points.csv --min-pts 10 --epsilon 0.5
    python -m repro single-linkage points.csv --num-clusters 8
    python -m repro serve points.csv --save fit.npz
    python -m repro serve --load fit.npz --requests queries.jsonl

``serve`` is the long-lived mode: fit once (or ``--load`` a state saved with
``--save``), then answer any number of JSON-lines re-cut / label / predict /
update requests off the fitted arrays with zero refitting (``update``
mutates the served point set through the incremental :mod:`repro.dynamic`
engine).  A corrupt or fingerprint-mismatched ``--load`` file is refused
with exit code 2, as is ``--load`` combined with fit-shaping flags the
saved state already fixes.

Input files may be ``.csv`` / ``.txt`` (one point per row, comma or whitespace
separated, optional header) or ``.npy``.  Outputs are written as CSV: MST
edges as ``u,v,weight`` rows, cluster labels as one integer per row.

Every subcommand takes ``--num-threads N`` to shard the batched kernels
across the persistent worker pool (outputs are byte-identical at any
setting), ``--metric NAME`` to pick the distance metric (``euclidean``,
``manhattan``, ``chebyshev``, or ``minkowski:p``, e.g. ``minkowski:3``) and
``--backend NAME`` to pick the kernel backend (``numpy``, ``numba``,
``numpy-f32``, ``numba-f32``; compiled backends fall back to their numpy
equivalent with a warning when numba is not installed).
``emst`` and ``single-linkage`` take ``--epsilon EPS`` — and ``hdbscan``
takes ``--approx-epsilon EPS`` (``--epsilon`` being its DBSCAN* cut level) —
to compute the (1+EPS)-approximate tree instead of the exact one.

``--memory-budget SIZE`` (``512M``, ``2G``, or plain bytes) caps the bytes
the engine's tiled kernels and growable buffers plan to materialize: tiles
shrink to the budget's share, edge buffers past its spill threshold go to
unlinked temporary-file memmaps, and ``.npy`` inputs are memory-mapped
instead of loaded into RAM — outputs are byte-identical at any budget.

``--checkpoint-dir DIR`` commits each finished pipeline phase to ``DIR`` so
an interrupted run can be rerun with ``--resume`` and skip them
(byte-identical output; identical input and parameters enforced by the
checkpoint fingerprint).  ``--max-retries N`` / ``--task-timeout SECONDS``
bound the worker pool's death-recovery ladder.  Failures exit with typed
codes — 2 generic, 3 checkpoint (corrupt or mismatched), 4 worker failure,
5 spill I/O — each with a one-line actionable message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from repro.approx import resolve_approx_method
from repro.core.backend import BACKEND_NAMES, resolve_backend
from repro.core.budget import MemoryBudget, parse_memory_size
from repro.core.errors import (
    CheckpointError,
    ReproError,
    SpillIOError,
    WorkerFailedError,
)
from repro.core.metric import METRIC_NAMES, resolve_metric
from repro.core.points import open_memmap_points
from repro.dendrogram.single_linkage import single_linkage
from repro.emst.api import EMST_METHODS, emst
from repro.hdbscan.api import HDBSCAN_METHODS, hdbscan


def load_points(path: str, *, memory_budget: Optional[MemoryBudget] = None) -> np.ndarray:
    """Load an ``(n, d)`` point array from a .npy, .csv or whitespace text file.

    Under a bounded ``memory_budget``, a ``.npy`` input is opened as a
    read-only memory map (:func:`repro.core.points.open_memmap_points`) so
    the points never occupy budgeted RAM; text formats always parse into RAM.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"input file not found: {path}")
    if file_path.suffix == ".npy":
        if memory_budget is not None and memory_budget.bounded:
            return open_memmap_points(file_path)
        return np.load(file_path)
    text = file_path.read_text().strip()
    if not text:
        raise ReproError(f"input file is empty: {path}")
    first_line = text.splitlines()[0]
    delimiter = "," if "," in first_line else None
    skip = 0
    tokens = first_line.replace(",", " ").split()
    try:
        [float(token) for token in tokens]
    except ValueError:
        skip = 1  # header row
    return np.loadtxt(file_path, delimiter=delimiter, skiprows=skip, ndmin=2)


def _write_edges(result, destination: Optional[str]) -> None:
    lines = [f"{u},{v},{w:.17g}" for u, v, w in result.edges]
    _emit("\n".join(["u,v,weight"] + lines), destination)


def _write_labels(labels: np.ndarray, destination: Optional[str]) -> None:
    _emit("\n".join(["label"] + [str(int(label)) for label in labels]), destination)


def _emit(text: str, destination: Optional[str]) -> None:
    if destination:
        Path(destination).write_text(text + "\n")
    else:
        print(text)


def _parse_metric(text: str):
    """argparse ``type=`` hook: metric spec string -> Metric instance."""
    try:
        return resolve_metric(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_memory_budget(text: str) -> MemoryBudget:
    """argparse ``type=`` hook: size spec string -> MemoryBudget.

    Shares :func:`repro.core.budget.parse_memory_size` with the estimators'
    ``memory_budget=`` validation, so ``--memory-budget 12X`` fails fast at
    parse time with the same message the Python API gives.
    """
    try:
        return MemoryBudget(parse_memory_size(text))
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_backend(text: str):
    """argparse ``type=`` hook: backend name -> KernelBackend instance.

    Resolution happens here, at parse time, so a bad name fails fast with the
    registry's own message listing the available backends (an unavailable
    compiled backend still resolves — to its numpy fallback, with a warning —
    rather than erroring).
    """
    try:
        return resolve_backend(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


#: ``--help`` epilog listing the process-wide environment knobs.  Kept as a
#: module constant so the tests can assert the help output stays complete.
ENV_VAR_EPILOG = """\
environment variables:
  REPRO_BACKEND        default kernel backend when --backend is not given
                       (numpy, numba, numpy-f32, numba-f32)
  REPRO_MEMORY_BUDGET  default memory budget when --memory-budget is not
                       given (e.g. 512M, 2G, or plain bytes)
  REPRO_FAULTS         deterministic fault-injection spec for resilience
                       drills (e.g. 'crash-after-phase:phase=mst'); see
                       repro.resilience.faults

exit codes:
  0 success   2 usage/engine error (incl. corrupt or mismatched fit-state)
  3 checkpoint error   4 worker failure   5 spill I/O error
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel EMST and hierarchical spatial clustering (SIGMOD 2021 reproduction)",
        epilog=ENV_VAR_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_num_threads(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--num-threads",
            type=int,
            default=None,
            help="worker threads for the batched kernels (results are "
            "byte-identical at any setting; default: single-threaded)",
        )
        subparser.add_argument(
            "--metric",
            type=_parse_metric,
            default="euclidean",
            metavar="METRIC",
            help="distance metric: one of "
            + ", ".join(METRIC_NAMES)
            + " (minkowski takes an order, e.g. minkowski:3); "
            "default: euclidean",
        )
        subparser.add_argument(
            "--backend",
            type=_parse_backend,
            default=None,
            metavar="BACKEND",
            help="kernel backend: one of "
            + ", ".join(BACKEND_NAMES)
            + " (-f32 variants score candidates in float32 and re-evaluate "
            "surviving edges in exact float64; numba backends fall back to "
            "numpy with a warning when numba is not installed); "
            "default: the REPRO_BACKEND environment variable, else numpy",
        )
        subparser.add_argument(
            "--memory-budget",
            type=_parse_memory_budget,
            default=None,
            metavar="SIZE",
            help="bytes ceiling for the tiled kernels and growable buffers "
            "(e.g. 512M, 2G, or plain bytes; K/M/G/T suffixes are binary). "
            ".npy inputs are memory-mapped instead of loaded, oversized "
            "edge buffers spill to unlinked temporary files, and outputs "
            "stay byte-identical at any budget; "
            "default: the REPRO_MEMORY_BUDGET environment variable, "
            "else unbounded",
        )
        subparser.add_argument(
            "--checkpoint-dir",
            default=None,
            metavar="DIR",
            help="directory for phase-level checkpoint/resume: each finished "
            "pipeline phase is committed atomically with a checksum, and a "
            "rerun with --resume over the same directory skips the "
            "completed phases and produces byte-identical output; "
            "without --resume any existing checkpoint there is discarded",
        )
        subparser.add_argument(
            "--resume",
            action="store_true",
            help="resume from the checkpoint in --checkpoint-dir (requires "
            "--checkpoint-dir; identical input and parameters are enforced "
            "via the checkpoint fingerprint)",
        )
        subparser.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="worker-death events one pooled batch absorbs by "
            "respawn-and-retry before degrading to a serial fallback "
            "(default: 2)",
        )
        subparser.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="maximum time a pooled batch may go with no task completing "
            "before the run fails with a worker error (default: no limit)",
        )

    def add_epsilon(subparser: argparse.ArgumentParser, flag: str = "--epsilon") -> None:
        subparser.add_argument(
            flag,
            type=float,
            default=None,
            dest="approx_epsilon",
            metavar="EPS",
            help="compute the (1+EPS)-approximate tree instead of the exact "
            "one (total weight within a factor 1+EPS of exact, never "
            "below it); 0 means exact",
        )

    emst_parser = subparsers.add_parser("emst", help="Euclidean minimum spanning tree")
    emst_parser.add_argument("input", help="points file (.csv/.txt/.npy)")
    emst_parser.add_argument("--method", default="memogfk", choices=sorted(EMST_METHODS))
    emst_parser.add_argument("--output", help="write edges as CSV to this path")
    add_epsilon(emst_parser)
    add_num_threads(emst_parser)

    hdbscan_parser = subparsers.add_parser("hdbscan", help="HDBSCAN* clustering")
    hdbscan_parser.add_argument("input", help="points file (.csv/.txt/.npy)")
    hdbscan_parser.add_argument("--min-pts", type=int, default=10)
    hdbscan_parser.add_argument(
        "--method", default="memogfk", choices=sorted(HDBSCAN_METHODS)
    )
    hdbscan_parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="cut the hierarchy at this epsilon (DBSCAN* labels); "
        "without it, excess-of-mass flat clusters are returned",
    )
    hdbscan_parser.add_argument("--min-cluster-size", type=int, default=5)
    hdbscan_parser.add_argument("--output", help="write labels as CSV to this path")
    hdbscan_parser.add_argument(
        "--mst-output", help="also write the mutual-reachability MST edges here"
    )
    # --epsilon already names the DBSCAN* cut level on this subcommand.
    add_epsilon(hdbscan_parser, "--approx-epsilon")
    add_num_threads(hdbscan_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="fit (or --load) once, then answer re-cut/label/predict "
        "requests off the fitted state",
        description="Long-lived serving mode: run one expensive fit (or "
        "load a saved fit-state) and answer any number of JSON-lines "
        "requests off the read-only fitted arrays — no refitting.  One "
        "request object per input line (e.g. {\"op\": \"recut\", "
        "\"epsilon\": 0.5}, {\"op\": \"predict\", \"points\": [[...]]} or "
        "{\"op\": \"update\", \"insert\": [[...]], \"delete\": [0]} for an "
        "incremental point-set change with no refit); one JSON response "
        "per output line.  With --save and no --requests the command fits, "
        "saves the state and exits.",
    )
    serve_parser.add_argument(
        "input", nargs="?", help="points file (.csv/.txt/.npy) to fit"
    )
    serve_parser.add_argument(
        "--load",
        metavar="STATE",
        help="serve a fit-state saved with --save instead of fitting "
        "(refuses a corrupt file or one fitted under a different engine "
        "version, metric, backend or point set)",
    )
    serve_parser.add_argument(
        "--save",
        metavar="STATE",
        help="save the fitted state to this .npz (single checksummed file)",
    )
    # Fit-affecting flags use None sentinels (not their effective defaults)
    # so _run_serve can tell "explicitly passed" from "absent" even when the
    # passed value equals the default — required for the --load conflict
    # check below.
    serve_parser.add_argument(
        "--min-pts", type=int, default=None, help="(default: 10)"
    )
    serve_parser.add_argument(
        "--min-cluster-size", type=int, default=None, help="(default: 5)"
    )
    serve_parser.add_argument(
        "--allow-single-cluster", action="store_true", default=None,
        help="let excess-of-mass selection return the root as one cluster",
    )
    serve_parser.add_argument(
        "--method",
        default=None,
        choices=sorted(HDBSCAN_METHODS),
        help="(default: memogfk)",
    )
    serve_parser.add_argument(
        "--requests",
        metavar="FILE",
        help="JSON-lines request file (default: stdin)",
    )
    serve_parser.add_argument(
        "--output", metavar="FILE", help="responses file (default: stdout)"
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="capacity of the re-cut LRU cache (default: 128)",
    )
    add_num_threads(serve_parser)
    # The shared --metric flag defaults to euclidean on the fitting
    # subcommands; on serve the default must be a None sentinel too, so a
    # --load of a state saved under another metric is not spuriously
    # rejected (and an explicit --metric is asserted against it).
    serve_parser.set_defaults(metric=None)

    linkage_parser = subparsers.add_parser(
        "single-linkage", help="single-linkage clustering via the EMST"
    )
    linkage_parser.add_argument("input", help="points file (.csv/.txt/.npy)")
    linkage_parser.add_argument("--num-clusters", type=int, default=2)
    linkage_parser.add_argument("--method", default="memogfk", choices=sorted(EMST_METHODS))
    linkage_parser.add_argument("--output", help="write labels as CSV to this path")
    add_epsilon(linkage_parser)
    add_num_threads(linkage_parser)

    return parser


def _approx_method_kwargs(args) -> dict:
    """Map the CLI accuracy flag onto ``method=`` / ``epsilon=`` kwargs."""
    flag = "--approx-epsilon" if args.command == "hdbscan" else "--epsilon"
    method, kwargs = resolve_approx_method(
        args.method, getattr(args, "approx_epsilon", None), knob=flag
    )
    return {"method": method, **kwargs}


def _run_serve(args, parser, resilience_kwargs) -> None:
    """The ``serve`` subcommand body (fit or load, optionally save, answer)."""
    from repro.serve import ServingEngine, fit_state, load_state

    if (args.input is None) == (args.load is None):
        parser.error("serve takes a points file or --load STATE (exactly one)")
    if args.cache_size < 1:
        parser.error(f"--cache-size must be >= 1, got {args.cache_size}")
    if args.load is not None:
        # Fit-shaping flags are fixed by the saved state; all of them carry
        # None-sentinel defaults, so an explicitly-passed flag is detected
        # even when its value equals the fitting default (--min-pts 10 is a
        # conflict too — the saved state, not the flag, decides).  --metric
        # and --backend are allowed through as assertions: load_state
        # refuses a state saved under different geometry or kernels.
        conflicts = [
            flag
            for flag, value in (
                ("--min-pts", args.min_pts),
                ("--min-cluster-size", args.min_cluster_size),
                ("--allow-single-cluster", args.allow_single_cluster),
                ("--method", args.method),
            )
            if value is not None
        ]
        if conflicts:
            parser.error(
                "--load serves a saved fit-state; the fit parameters "
                f"{', '.join(conflicts)} are fixed by it and cannot be "
                "passed (refit without --load to change them)"
            )
        state = load_state(
            args.load,
            metric=args.metric,
            backend=args.backend,
            cut_cache_size=args.cache_size,
        )
    else:
        points = load_points(args.input, memory_budget=args.memory_budget)
        state = fit_state(
            points,
            min_pts=10 if args.min_pts is None else args.min_pts,
            min_cluster_size=(
                5 if args.min_cluster_size is None else args.min_cluster_size
            ),
            allow_single_cluster=bool(args.allow_single_cluster),
            method="memogfk" if args.method is None else args.method,
            metric=args.metric,
            backend=args.backend,
            memory_budget=args.memory_budget,
            num_threads=args.num_threads,
            cut_cache_size=args.cache_size,
            **resilience_kwargs,
        )
    if args.save:
        state.save(args.save)
        print(f"# serve: saved fit-state to {args.save}", file=sys.stderr)
        if args.requests is None:
            # Fit-and-save mode: do not block waiting on an interactive stdin.
            return
    engine = ServingEngine(state, num_threads=args.num_threads)
    if args.requests is not None:
        with open(args.requests) as input_stream:
            if args.output:
                with open(args.output, "w") as output_stream:
                    answered = engine.serve_stream(input_stream, output_stream)
            else:
                answered = engine.serve_stream(input_stream, sys.stdout)
    else:
        answered = engine.serve_stream(sys.stdin, sys.stdout)
    print(
        f"# serve: answered {answered} requests "
        f"({engine.requests_failed} failed), cut cache "
        f"{state.cache_info()['hits']} hits / "
        f"{state.cache_info()['misses']} misses",
        file=sys.stderr,
    )


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    resilience_kwargs = {
        "checkpoint_dir": args.checkpoint_dir,
        "resume": bool(args.resume),
        "max_retries": args.max_retries,
        "task_timeout": args.task_timeout,
    }
    try:
        if args.command == "serve":
            _run_serve(args, parser, resilience_kwargs)
            return 0
        points = load_points(args.input, memory_budget=args.memory_budget)
        metric = resolve_metric(getattr(args, "metric", None))
        if args.command == "emst":
            result = emst(
                points,
                metric=metric,
                backend=args.backend,
                memory_budget=args.memory_budget,
                num_threads=args.num_threads,
                **resilience_kwargs,
                **_approx_method_kwargs(args),
            )
            _write_edges(result, args.output)
            print(
                f"# EMST: {result.num_edges} edges, total weight {result.total_weight:.6g}",
                file=sys.stderr,
            )
        elif args.command == "hdbscan":
            result = hdbscan(
                points,
                min_pts=args.min_pts,
                metric=metric,
                backend=args.backend,
                memory_budget=args.memory_budget,
                num_threads=args.num_threads,
                **resilience_kwargs,
                **_approx_method_kwargs(args),
            )
            if args.mst_output:
                _write_edges(result.mst, args.mst_output)
            if args.epsilon is not None:
                labels = result.dbscan_labels(
                    args.epsilon, min_cluster_size=args.min_cluster_size
                )
            else:
                labels = result.eom_labels(min_cluster_size=args.min_cluster_size)
            _write_labels(labels, args.output)
            clusters = len(set(labels[labels >= 0].tolist()))
            noise = int(np.sum(labels == -1))
            print(f"# HDBSCAN*: {clusters} clusters, {noise} noise points", file=sys.stderr)
        else:  # single-linkage
            result = single_linkage(
                points,
                metric=metric,
                backend=args.backend,
                memory_budget=args.memory_budget,
                num_threads=args.num_threads,
                **resilience_kwargs,
                **_approx_method_kwargs(args),
            )
            labels = result.labels_k(args.num_clusters)
            _write_labels(labels, args.output)
            print(
                f"# single-linkage: {len(set(labels.tolist()))} clusters", file=sys.stderr
            )
    except CheckpointError as error:
        # Corrupt, truncated or fingerprint-mismatched checkpoint state: the
        # message says which and how to recover (delete the directory or drop
        # --resume); distinct exit code so wrappers can retry from scratch.
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 3
    except WorkerFailedError as error:
        print(f"worker failure: {error}", file=sys.stderr)
        return 4
    except SpillIOError as error:
        print(f"spill I/O error: {error}", file=sys.stderr)
        return 5
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
