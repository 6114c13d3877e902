"""Approximate HDBSCAN*: an ε-certified mutual-reachability MST.

The same construction as :mod:`repro.approx.emst`, lifted to the mutual
reachability distance ``mr(u, v) = max(cd(u), cd(v), d(u, v))``: the
FIND_PAIR recursion splits a pair ``(A, B)`` until it is classically
well-separated **and** the mutual reachability of its representative edge is
certified within ``(1 + ε)`` of the pair's BCCP* against the per-pair lower
bound ``max(d(A, B), d(rep) − diam(A) − diam(B), cd_min(A), cd_min(B))`` —
the same bound the exact MemoGFK window pruning uses.  This subsumes the
cardinality cases of the paper's Appendix C approximation: a node whose
representative has an unrepresentative core distance simply fails the
certificate and is split further, bottoming out at singleton pairs (whose
representative *is* their BCCP*).

Unlike the Appendix C reproduction (:mod:`repro.hdbscan.optics_approx`) —
which scales distances by ``1/(1+ρ)`` to preserve OPTICS ordering semantics
and loops over pairs in Python — every candidate edge here carries its
*true* mutual reachability distance and the whole pipeline runs on the
array engine: the certificate is a vectorized frontier mask, weights come
from one sharded ``exact_edge_weights`` sweep, and the candidate MST runs
through the chunk-pruned Kruskal.  The kd-tree skeleton rides along for
structural connectivity, so the result is always a spanning tree of genuine
mutual reachability distances with total weight in
``[w_exact, (1 + ε) · w_exact]``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional

import numpy as np

from repro.approx.emst import candidate_mst, representative_points, skeleton_edges
from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike, resolve_metric
from repro.core.points import as_points
from repro.emst.result import EMSTResult
from repro.hdbscan.core_distance import core_distances as compute_core_distances
from repro.hdbscan.memogfk import hdbscan_mst_memogfk
from repro.hdbscan.result import HDBSCANResult
from repro.mst.edges import EdgeList
from repro.parallel.scheduler import current_tracker
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.separation import (
    SMALL_PAIR_CAP,
    bccp_lower_bounds,
    node_representatives,
    well_separated_mask,
)
from repro.wspd.wspd import PairMask, compute_wspd_ids, evaluate_pair_mask


def mr_bccp_lower_bounds(
    flat: FlatKDTree, a: np.ndarray, b: np.ndarray, rep_distances: np.ndarray
) -> np.ndarray:
    """Per-pair lower bound on ``BCCP*(A, B)``: the geometric BCCP bound
    joined with the per-node minimum core distances — the same bound the
    exact MemoGFK window pruning uses."""
    return np.maximum(
        bccp_lower_bounds(flat, a, b, rep_distances),
        np.maximum(flat.cd_min[a], flat.cd_min[b]),
    )


def mutual_reachability_certificate(
    flat: FlatKDTree,
    core_distances: np.ndarray,
    epsilon: float,
    s: float = 2.0,
    representatives: Optional[np.ndarray] = None,
) -> PairMask:
    """ε-certified separation under the mutual reachability distance.

    A frontier pair passes when it is classically ``s``-well-separated and
    either the mutual reachability of its representative edge is at most
    ``(1 + ε)`` times the pair's BCCP* lower bound
    (:func:`mr_bccp_lower_bounds`), or the pair is small enough
    (:data:`~repro.wspd.separation.SMALL_PAIR_CAP`) to refine with one
    exact batched BCCP*.  Requires core-distance annotations (``cd_min``)
    on the tree.
    """
    metric = flat.metric
    points = flat.points
    sizes = flat.node_sizes

    def mask(a: np.ndarray, b: np.ndarray, gap: np.ndarray) -> np.ndarray:
        if representatives is not None:
            rep_a = representatives[a]
            rep_b = representatives[b]
        else:
            rep_a = flat.perm[flat.node_start[a]]
            rep_b = flat.perm[flat.node_start[b]]
        d_rep = metric.exact_edge_weights(points, rep_a, rep_b)
        rep_mr = np.maximum(
            d_rep, np.maximum(core_distances[rep_a], core_distances[rep_b])
        )
        certified = rep_mr <= (1.0 + epsilon) * mr_bccp_lower_bounds(
            flat, a, b, d_rep
        )
        small = sizes[a] * sizes[b] <= SMALL_PAIR_CAP
        return well_separated_mask(flat, a, b, gap, s) & (certified | small)

    return mask


def approx_hdbscan_mst(
    points,
    min_pts: int = 10,
    *,
    epsilon: float = 0.1,
    core_dists: Optional[np.ndarray] = None,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """(1+ε)-approximate MST of the mutual reachability graph.

    Registered as HDBSCAN* method ``"wspd-approx"``.  The returned tree is a
    spanning tree of true mutual reachability distances with total weight in
    ``[w_exact, (1 + ε) · w_exact]``.  ``ε = 0`` delegates to the exact
    HDBSCAN*-MemoGFK engine; negative ε raises.

    Parameters mirror :func:`repro.hdbscan.memogfk.hdbscan_mst_memogfk` plus
    ``epsilon``; ``num_threads`` shards the k-NN blocks (when core distances
    are computed here), the certificate sweeps, the weight sweep and the
    Kruskal argsort onto the persistent pool, so the tree is byte-identical
    at any setting.
    """
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    data = as_points(points, min_points=1)
    if epsilon == 0:
        return hdbscan_mst_memogfk(
            data,
            min_pts,
            core_dists=core_dists,
            num_threads=num_threads,
            metric=metric,
        )
    resolved_metric = resolve_metric(metric)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(
            EdgeList(), 1, "hdbscan-wspd-approx", stats={"epsilon": float(epsilon)}
        )

    timings = {}
    start = time.perf_counter()
    if core_dists is None:
        core_dists = compute_core_distances(
            data, min(min_pts, n), num_threads=num_threads, metric=resolved_metric
        )
    else:
        core_dists = np.asarray(core_dists, dtype=np.float64)
    timings["core-dist"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = KDTree(data, metric=resolved_metric)
    tree.annotate_core_distances(core_dists)
    flat = tree.flat
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    reps = node_representatives(flat)
    pair_a, pair_b = compute_wspd_ids(
        tree,
        predicate=mutual_reachability_certificate(
            flat, core_dists, epsilon, representatives=reps
        ),
        num_threads=num_threads,
    )
    timings["wspd"] = time.perf_counter() - start

    start = time.perf_counter()
    cand_u, cand_v = representative_points(flat, pair_a, pair_b, reps)
    current_tracker().add(float(cand_u.size), 1.0, phase="bccp")
    # One plain-distance sweep serves both the candidate weights (mutual
    # reachability is the plain distance maxed with the endpoint core
    # distances) and the certificate's lower bound.
    plain = evaluate_pair_mask(
        partial(resolved_metric.exact_edge_weights, data),
        cand_u,
        cand_v,
        dtype=np.float64,
        num_threads=num_threads,
    )
    cand_w = np.maximum(
        plain, np.maximum(core_dists[cand_u], core_dists[cand_v])
    )
    distance_evaluations = int(cand_u.size)
    # Recorded-but-uncertified pairs are the small ones; refine them with
    # the exact batched BCCP* (per-pair factor 1).
    refine = cand_w > (1.0 + epsilon) * mr_bccp_lower_bounds(
        flat, pair_a, pair_b, plain
    )
    num_refined = int(np.count_nonzero(refine))
    if num_refined:
        cache = BCCPCache(tree, core_distances=core_dists, num_threads=num_threads)
        ref_u, ref_v, ref_w = cache.get_batch(pair_a[refine], pair_b[refine])
        cand_u[refine] = ref_u
        cand_v[refine] = ref_v
        cand_w[refine] = ref_w
        distance_evaluations += cache.num_distance_evaluations
    skel_u, skel_v = skeleton_edges(flat)
    skel_w = evaluate_pair_mask(
        partial(resolved_metric.exact_edge_weights, data, core_distances=core_dists),
        skel_u,
        skel_v,
        dtype=np.float64,
        num_threads=num_threads,
    )
    distance_evaluations += int(skel_u.size)
    cand_u = np.concatenate([cand_u, skel_u])
    cand_v = np.concatenate([cand_v, skel_v])
    cand_w = np.concatenate([cand_w, skel_w])
    timings["candidates"] = time.perf_counter() - start

    start = time.perf_counter()
    tree_edges = candidate_mst(cand_u, cand_v, cand_w, n, num_threads=num_threads)
    timings["kruskal"] = time.perf_counter() - start

    stats = {
        "epsilon": float(epsilon),
        "wspd_pairs": int(pair_a.size),
        "pairs_refined": num_refined,
        "pairs_certified": int(pair_a.size) - num_refined,
        "candidate_edges": int(cand_u.size),
        "distance_evaluations": int(distance_evaluations),
        "min_pts": int(min_pts),
    }
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(tree_edges, n, "hdbscan-wspd-approx", stats=stats)


def approx_hdbscan(
    points,
    min_pts: int = 10,
    epsilon: float = 0.1,
    *,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    **kwargs,
) -> HDBSCANResult:
    """Full approximate HDBSCAN* pipeline (core distances, (1+ε)-approximate
    mutual-reachability MST, ordered dendrogram).

    A thin convenience over ``hdbscan(..., method="wspd-approx")``.  Quality
    contract: the MST weight is within ``(1 + ε)`` of exact, and the derived
    flat clusterings track the exact pipeline's closely at small ε — the ARI
    curves against the exact labels on the registry datasets are measured by
    ``benchmarks/bench_approx_quality.py`` and summarized in the README's
    Approximation section.
    """
    from repro.hdbscan.api import hdbscan

    return hdbscan(
        points,
        min_pts=min_pts,
        method="wspd-approx",
        epsilon=epsilon,
        num_threads=num_threads,
        metric=metric,
        **kwargs,
    )
