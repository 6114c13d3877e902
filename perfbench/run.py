"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it name every metric with its unit and sample
count, and record the run (seed, sizes, numpy, backend, nproc, commit).
Each run also writes ``perfbench/results/<workload>-seed<N>-trace<T>.json``;
a traced run adds the Chrome trace-event file and a per-layer self-time
table beside it.  The exit code is 0 only when every check passed and no op
failed.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported, and
# run the program with its default backend and memory budget.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_BACKEND", "REPRO_MEMORY_BUDGET", "REPRO_FAULTS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import spec  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` without running git ("unknown" if none)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro); "
              f"run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from repro.core.backend import resolve_backend

    import workloads

    outcome = workloads.run_workload(args.workload, seed=args.seed,
                                     seconds=args.seconds, trace=bool(args.trace))
    rec = outcome.rec
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome.sizes,
        "num_threads": workloads.THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": resolve_backend(None).name,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "samples": {kind: len(values) for kind, values in rec.samples.items()},
    }
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in outcome.metrics.items()},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as handle:
        json.dump({"run": record, "failures": rec.failures, **result}, handle, indent=2)
    if args.trace:
        outcome.tracer.write(RESULTS, stem)

    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# run " + json.dumps(record, sort_keys=True))
    for name, value in outcome.metrics.items():
        print(f"{name:<36} {value:>16.6g} {spec.UNITS[name]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
