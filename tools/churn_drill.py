"""Churn drill: incremental updates must equal a cold fit, byte for byte.

Fits ``fit_dynamic`` on the first half of a data set sample (7D-Household
unless ``--dataset`` names another registry set), then runs rounds of
``update_batch``: each round deletes random rows and inserts
near-data points (a data row plus N(0, 0.05·std) noise).  After every round
the updated state's ``state_arrays()`` are byte-compared with a cold
``fit_dynamic`` of the survivors.  Usage::

    python tools/churn_drill.py --seeds 1-50
    python tools/churn_drill.py --dataset 2D-SS-varden --seeds 1-20

Exits 0 when every seed passes and 1 on the first byte difference, printing
the seed, the round and the differing arrays.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _REPO_SRC not in sys.path:
    sys.path.insert(0, _REPO_SRC)

import numpy as np  # noqa: E402

from repro.datasets import load_dataset  # noqa: E402
from repro.dynamic import fit_dynamic, update_batch  # noqa: E402

#: Drill shape: the dataset sample, the fitted half, and the per-round churn.
DATASET = "7D-Household"
POOL_SIZE = 4000
FIT_SIZE = 2000
CHURN = 20
ROUNDS = 8
PARAMS = {"min_pts": 10, "min_cluster_size": 5}


def differing_arrays(state, reference) -> List[str]:
    """Names of the ``state_arrays()`` entries that differ in shape or bytes."""
    got, want = state.state_arrays(), reference.state_arrays()
    names = sorted(set(got) | set(want))
    return [
        name
        for name in names
        if name not in got
        or name not in want
        or got[name].shape != want[name].shape
        or got[name].tobytes() != want[name].tobytes()
    ]


def run_drill(
    seed: int, rounds: int = ROUNDS, dataset: str = DATASET
) -> Optional[Tuple[int, List[str]]]:
    """Run one seed; ``None`` on success, else ``(round, differing arrays)``."""
    pool = load_dataset(dataset, n=POOL_SIZE, seed=0)
    rng = np.random.default_rng(seed)
    noise = 0.05 * pool.std(axis=0)
    points = pool[:FIT_SIZE]
    state = fit_dynamic(points, **PARAMS)
    for round_no in range(1, rounds + 1):
        delete = rng.choice(points.shape[0], size=CHURN, replace=False)
        insert = pool[rng.integers(0, POOL_SIZE, size=CHURN)] + rng.normal(
            0.0, noise, size=(CHURN, pool.shape[1])
        )
        state = update_batch(state, delete=delete, insert=insert)
        kept = np.ones(points.shape[0], dtype=bool)
        kept[delete] = False
        points = np.concatenate([points[kept], insert])
        diff = differing_arrays(state, fit_dynamic(points, **PARAMS))
        if diff:
            return round_no, diff
    return None


def _parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-50", help="seed range, e.g. 1-50 or 30")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--dataset", default=DATASET, help="registry data set")
    args = parser.parse_args(argv)
    seeds = _parse_seeds(args.seeds)
    for seed in seeds:
        failure = run_drill(seed, args.rounds, args.dataset)
        if failure is not None:
            round_no, names = failure
            print(f"seed {seed} round {round_no}: differs in {', '.join(names)}")
            return 1
        print(f"seed {seed}: {args.rounds} rounds byte-identical", flush=True)
    print(f"churn drill passed on {len(seeds)} seeds of {args.dataset}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
