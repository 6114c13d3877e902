"""The one-kernel contract: every exact pair distance has one float64 value.

HDBSCAN* reads ``d(u, v)`` twice: the k-NN fold turns it into core
distances, and BCCP*/Kruskal turn it into mutual-reachability weights
``max(cd_u, cd_v, d(u, v))``.  Both — and the scalar ``point_distance``, the
kd-tree's box gaps and every EMST method's edge weights — come from
:meth:`Metric.diff_norms`, so the same pair yields the same bits whatever
path, batch, order or memory layout evaluates it.
"""

import numpy as np
import pytest

from conformance import CONFORMANCE_METRICS, EXACT_EMST_METHODS
from repro.core.metric import resolve_metric
from repro.dynamic import fit_dynamic
from repro.emst import emst
from repro.estimators import HDBSCAN
from repro.hdbscan import core_distances, hdbscan
from repro.hdbscan.api import HDBSCAN_METHODS
from repro.serve import fit_state
from repro.spatial import KDTree
from repro.spatial.knn import knn

K = 10


def dataset(kind: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * dim + len(kind))
    if kind == "random":
        return rng.standard_normal((300, dim)) * 3.7
    # Tie-heavy: a coarse lattice (many equal distances) with exact duplicates.
    lattice = rng.integers(0, 4, size=(240, dim)).astype(np.float64) * 0.1
    return np.concatenate([lattice, lattice[:60]])


def knn_pairs(points, metric):
    """(i, j, d): every k-NN pair of the all-points query and its distance."""
    idx, dist = knn(KDTree(points, leaf_size=8, metric=metric), K)
    i = np.repeat(np.arange(points.shape[0], dtype=np.int64), K)
    return i, idx.ravel().astype(np.int64), dist.ravel()


@pytest.mark.parametrize("metric_name", CONFORMANCE_METRICS)
@pytest.mark.parametrize("dim", [2, 7, 16])
@pytest.mark.parametrize("kind", ["random", "tie-heavy"])
def test_every_path_reads_the_knn_bits(metric_name, dim, kind):
    metric = resolve_metric(metric_name)
    points = dataset(kind, dim)
    i, j, d = knn_pairs(points, metric)
    m = d.size

    # The mutual-reachability kernel, whole, in batches and permuted.
    assert metric.exact_edge_weights(points, i, j).tobytes() == d.tobytes()
    for size in (1, 7, 613):
        batched = np.concatenate(
            [
                metric.exact_edge_weights(points, i[lo : lo + size], j[lo : lo + size])
                for lo in range(0, min(m, 40 * size), size)
            ]
        )
        assert batched.tobytes() == d[: batched.size].tobytes(), size
    perm = np.random.default_rng(dim).permutation(m)
    assert metric.exact_edge_weights(points, j[perm], i[perm]).tobytes() == d[perm].tobytes()

    # Single pairs through the scalar paths.
    for a, b, want in zip(i[:: m // 97], j[:: m // 97], d[:: m // 97]):
        assert metric.point_distance(points[a], points[b]) == want
        assert metric.exact_edge_weights(points, [a], [b])[0] == want
        point_leaf = KDTree(points[a : a + 1], metric=metric).flat
        assert point_leaf.min_distances_to_points(points[b : b + 1], [0])[0] == want

    # The row kernel itself, in C, F and strided layouts.
    diff = points[i] - points[j]
    assert metric.diff_norms(diff).tobytes() == d.tobytes()
    assert metric.diff_norms(np.asfortranarray(diff)).tobytes() == d.tobytes()
    wide = np.zeros((m, 2 * dim))
    wide[:, ::2] = diff
    assert metric.diff_norms(wide[:, ::2]).tobytes() == d.tobytes()
    tall = np.repeat(diff, 2, axis=0)
    assert metric.diff_norms(tall[::2]).tobytes() == d.tobytes()
    assert metric.diff_norms(diff[::-1]).tobytes() == d[::-1].tobytes()


def _edges_by_pair(result):
    u, v, w = result.edges.as_arrays()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    return np.stack([lo[order], hi[order]], axis=1), w[order]


def test_exact_emst_methods_report_the_same_weights():
    points = np.random.default_rng(11).random((600, 2))
    edges, weights = _edges_by_pair(emst(points, method="memogfk"))
    assert sorted(EXACT_EMST_METHODS) == sorted(
        ["bruteforce", "delaunay", "dualtree-boruvka", "gfk", "memogfk", "naive"]
    )
    for method in EXACT_EMST_METHODS:
        got_edges, got_weights = _edges_by_pair(emst(points, method=method))
        assert np.array_equal(got_edges, edges), method
        assert got_weights.tobytes() == weights.tobytes(), method


@pytest.mark.parametrize("kind", ["random", "tie-heavy"])
def test_every_hdbscan_entry_point_reads_the_dynamic_core_distances(kind):
    points = dataset(kind, 7)
    want = fit_dynamic(points, min_pts=K).core_distances
    got = {
        "core_distances": core_distances(points, K),
        "fit_state": fit_state(points, min_pts=K).core_distances,
        "HDBSCAN": HDBSCAN(min_pts=K).fit(points).core_distances_,
    }
    for method in HDBSCAN_METHODS:
        got[method] = hdbscan(points, min_pts=K, method=method).core_distances
    for name, values in got.items():
        assert values.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("metric_name", CONFORMANCE_METRICS)
def test_vector_norm_is_one_row_of_diff_norms(metric_name):
    metric = resolve_metric(metric_name)
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 7, 8, 9, 16, 17, 33, 64):
        rows = rng.standard_normal((400, dim)) * rng.random((400, 1)) * 10.0
        want = metric.diff_norms(rows)
        got = np.array([metric.vector_norm(row) for row in rows])
        assert got.tobytes() == want.tobytes(), dim
        strided = np.array([metric.vector_norm(row) for row in np.asfortranarray(rows)])
        assert strided.tobytes() == want.tobytes(), dim
