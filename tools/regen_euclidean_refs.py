"""Regenerate ``tests/data/euclidean_pr3_refs.npz``, the Euclidean reference outputs.

``tests/test_metrics.py::TestEuclideanByteIdentity`` byte-compares the
Euclidean EMST (memogfk, gfk, naive) and HDBSCAN* (memogfk, gantao) outputs
on two fixed point sets against this file.  Rerun this script only when a
change moves those bits on purpose, and record why in CHANGES.md::

    python tools/regen_euclidean_refs.py            # rewrite the file
    python tools/regen_euclidean_refs.py --check    # exit 1 if it is stale

The point sets are ``default_rng(77).random((400, 2))`` and
``default_rng(78).random((250, 3))``; every output is computed at one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro import emst, hdbscan  # noqa: E402

REFS_PATH = os.path.join(_REPO_ROOT, "tests", "data", "euclidean_pr3_refs.npz")
POINT_SETS = {"2d": (77, (400, 2)), "3d": (78, (250, 3))}


def reference_arrays() -> Dict[str, np.ndarray]:
    """Every array of the reference file, recomputed with the current engine."""
    arrays: Dict[str, np.ndarray] = {}
    for tag, (seed, shape) in POINT_SETS.items():
        points = np.random.default_rng(seed).random(shape)
        arrays[f"points_{tag}"] = points
        for method in ("memogfk", "gfk", "naive"):
            u, v, w = emst(points, method=method, num_threads=1).edges.as_arrays()
            arrays.update(
                {f"emst_{method}_{tag}_u": u, f"emst_{method}_{tag}_v": v, f"emst_{method}_{tag}_w": w}
            )
        for method in ("memogfk", "gantao"):
            result = hdbscan(points, min_pts=10, method=method, num_threads=1)
            u, v, w = result.mst.edges.as_arrays()
            prefix = f"hdbscan_{method}_{tag}"
            arrays.update({f"{prefix}_u": u, f"{prefix}_v": v, f"{prefix}_w": w})
            if method == "memogfk":
                arrays[f"{prefix}_core"] = result.core_distances
                arrays[f"{prefix}_linkage"] = result.dendrogram.to_linkage_matrix()
                arrays[f"{prefix}_eom"] = result.eom_labels(min_cluster_size=5)
    return arrays


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed file instead of writing it"
    )
    args = parser.parse_args(argv)
    arrays = reference_arrays()
    if args.check:
        with np.load(REFS_PATH) as stored:
            stale = sorted(
                name
                for name in set(arrays) | set(stored.files)
                if name not in arrays
                or name not in stored.files
                or arrays[name].dtype != stored[name].dtype
                or arrays[name].tobytes() != stored[name].tobytes()
            )
        for name in stale:
            print(f"stale: {name}")
        return 1 if stale else 0
    np.savez_compressed(REFS_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
