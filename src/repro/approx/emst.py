"""(1+ε)-approximate EMST from an ε-certified pair decomposition.

The exact EMST methods keep one *bichromatic closest pair* edge per
well-separated pair of the ``s = 2`` WSPD — Callahan and Kosaraju's classical
construction.  The approximation replaces the BCCP of a pair with the
deterministic *representative* edge ``(first(A), first(B))`` — one row of a
vectorized weight sweep instead of an ``|A| · |B|`` distance matrix — and
derives the decomposition itself from ε: the FIND_PAIR recursion splits a
pair until it is classically well-separated **and** its representative edge
is certified within ``(1 + ε)`` of the pair's BCCP against the
sphere-geometry lower bound ``max(d(A, B), d(rep) − diam(A) − diam(B))``
(:func:`repro.wspd.separation.epsilon_certified_mask`).  Small ε therefore
means deeper splitting and more pairs — an explicit accuracy-versus-speed
axis — and singleton pairs always certify, so the recursion bottoms out.

Every recorded pair contributes a candidate edge within ``(1 + ε)`` of its
BCCP, and Kruskal over per-pair (1+ε)-approximate BCCPs of a geometrically
separated covering decomposition returns a spanning tree of weight at most
``(1 + ε)`` times the exact MST: the classical exchange argument (diameters
bounded by gaps plus the minimax property of MST paths) carries the per-pair
factor through to the total.  Since every candidate weight is a genuine
pairwise distance, the tree is also never lighter than the exact MST:
``w_exact ≤ w_approx ≤ (1 + ε) · w_exact``.

``representative="bccp"`` is the conservative end of the axis: the plain
geometric ``s = 2`` decomposition with the exact batched BCCP kernel per
pair (per-pair factor 1 — the exact construction's candidate set, computed
through the approximation pipeline's filtered Kruskal).  ``ε = 0`` delegates
to the exact MemoGFK engine outright.

Connectivity is guaranteed structurally, not probabilistically: alongside
the WSPD candidates the edge pool always contains the kd-tree *skeleton*
(for every internal node, an edge between the first points of its two
children — ``n − 1`` true-distance edges whose union is connected by
induction over the tree), so the Kruskal pass returns a spanning tree even
under adversarial floating-point behaviour of the separation predicate.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.metric import Metric, MetricLike
from repro.core.points import as_points
from repro.emst.memogfk import emst_memogfk
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal_filtered_arrays
from repro.parallel import pool as _pool
from repro.parallel.pool import map_shards, resolve_num_threads
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.separation import (
    bccp_lower_bounds,
    epsilon_certified_mask,
    node_representatives,
)
from repro.wspd.wspd import compute_wspd_ids

#: Representative-edge strategies: ``sample`` records the ε-certified
#: decomposition and keeps its representative edges; ``bccp`` records the
#: exact construction's geometric decomposition and runs the batched BCCP
#: kernel on every pair (per-pair factor 1).
REPRESENTATIVES = ("sample", "bccp")


def resolve_approx_method(
    method: str, epsilon, *, knob: str = "epsilon"
) -> Tuple[str, dict]:
    """Resolve the (method, ε) knob pair every public surface exposes.

    One shared rule for the functional APIs, the estimators and the CLI: a
    negative ε is rejected, a positive ε selects the approximate engine
    (refusing a conflicting exact method beats silently ignoring either
    knob), and ``"wspd-approx"`` always receives an explicit ``epsilon``
    kwarg — ``0`` meaning exact, so ε stays a pure accuracy knob.  Returns
    the method to dispatch plus the method kwargs to forward; ``knob`` names
    the parameter in error messages (the HDBSCAN estimator calls it
    ``approx_epsilon``).
    """
    epsilon = 0.0 if epsilon is None else float(epsilon)
    if epsilon < 0:
        raise InvalidParameterError(f"{knob} must be >= 0, got {epsilon}")
    kwargs: dict = {}
    if epsilon > 0:
        if method not in ("memogfk", "wspd-approx"):
            raise InvalidParameterError(
                f"{knob}={epsilon} requests the (1+ε)-approximate tree, "
                f"which method {method!r} cannot produce; leave method at "
                "its default or set it to 'wspd-approx'"
            )
        method = "wspd-approx"
    if method == "wspd-approx":
        kwargs["epsilon"] = epsilon
    return method, kwargs


def sharded_edge_weights(
    metric: Metric,
    points: np.ndarray,
    index_a: np.ndarray,
    index_b: np.ndarray,
    core_distances: Optional[np.ndarray] = None,
    *,
    num_threads: Optional[int] = None,
) -> np.ndarray:
    """``metric.exact_edge_weights`` sharded over the worker pool.

    Fixed chunk boundaries, every shard fills its slice of one output array —
    byte-identical to the single call at any thread count (the kernel is
    purely elementwise over the index arrays).
    """
    m = int(index_a.size)
    if resolve_num_threads(num_threads) == 1 or m < 2 * _pool.DEFAULT_CHUNK:
        return metric.exact_edge_weights(points, index_a, index_b, core_distances)
    out = np.empty(m, dtype=np.float64)

    def shard(lo: int, hi: int) -> None:
        out[lo:hi] = metric.exact_edge_weights(
            points, index_a[lo:hi], index_b[lo:hi], core_distances
        )

    map_shards(shard, m, num_threads=num_threads)
    return out


def skeleton_edges(flat: FlatKDTree) -> Tuple[np.ndarray, np.ndarray]:
    """One bridging point pair per internal kd-tree node.

    For every internal node, the first point of its left child and the first
    point of its right child.  By induction over the tree, the union of these
    ``n − 1`` edges connects every point, so any candidate set containing
    them spans regardless of what the WSPD contributed.
    """
    internal = np.flatnonzero(flat.left_child >= 0)
    u = flat.perm[flat.node_start[flat.left_child[internal]]]
    v = flat.perm[flat.node_start[flat.right_child[internal]]]
    return u, v


def representative_points(
    flat: FlatKDTree,
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    representatives: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic representative point of each node of a pair frontier.

    With ``representatives`` (the center-nearest map of
    :func:`repro.wspd.separation.node_representatives`) the certified
    choice; without it, the first point of each node's contiguous ``perm``
    slice — the choice the Appendix C OPTICS approximation makes.
    """
    if representatives is not None:
        return representatives[a_ids], representatives[b_ids]
    return flat.perm[flat.node_start[a_ids]], flat.perm[flat.node_start[b_ids]]


def candidate_mst(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_points: int,
    *,
    num_threads: Optional[int] = None,
) -> EdgeList:
    """Exact MST of an (approximate) candidate edge set.

    The candidate sets the approximation produces are an order of magnitude
    larger than the ``n − 1`` surviving edges, so the chunked,
    snapshot-pruned Kruskal (:func:`~repro.mst.kruskal.kruskal_filtered_arrays`)
    is used: it accepts the same edge set as the plain batch but discards
    already-connected edges a vectorized chunk at a time and stops as soon as
    the tree is complete.
    """
    union_find = UnionFind(num_points)
    output = EdgeList()
    kruskal_filtered_arrays(u, v, w, output, union_find, num_threads=num_threads)
    return output


def approx_emst(
    points,
    epsilon: float = 0.1,
    *,
    representative: str = "sample",
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """(1+ε)-approximate metric MST via certified WSPD representatives.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of points.
    epsilon:
        Accuracy parameter: the returned spanning tree's total weight is at
        most ``(1 + epsilon)`` times the exact MST weight (and never below
        it — every candidate edge is a true pairwise distance).  ``0`` runs
        the exact MemoGFK engine; negative values raise.
    representative:
        ``"sample"`` (default): representative edges of the ε-certified
        decomposition.  ``"bccp"``: exact batched BCCPs of the geometric
        ``s = 2`` decomposition (per-pair factor 1, the conservative end of
        the axis).
    num_threads:
        Worker threads: the WSPD separation/certificate sweeps, the BCCP
        size-class kernels (``representative="bccp"``), the candidate weight
        sweep and the Kruskal argsort all shard onto the persistent pool
        with fixed chunk boundaries, so the tree is byte-identical at any
        setting.
    metric:
        Distance metric (name, Metric instance, or ``None`` for Euclidean).
        The (1+ε) argument only uses the triangle inequality, so it holds
        for every norm-induced metric.

    Returns
    -------
    EMSTResult
        ``method="wspd-approx"`` with stats recording ε, the decomposition
        size, the candidate count and per-phase timings.
    """
    if epsilon < 0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if representative not in REPRESENTATIVES:
        raise InvalidParameterError(
            f"representative must be one of {sorted(REPRESENTATIVES)}, "
            f"got {representative!r}"
        )
    data = as_points(points, min_points=1)
    if epsilon == 0:
        return emst_memogfk(data, num_threads=num_threads, metric=metric)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(
            EdgeList(), 1, "wspd-approx", stats={"epsilon": float(epsilon)}
        )

    timings = {}
    start = time.perf_counter()
    tree = KDTree(data, metric=metric)
    flat = tree.flat
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    if representative == "bccp":
        reps = None
        pair_a, pair_b = compute_wspd_ids(
            tree, separation="geometric", s=2.0, num_threads=num_threads
        )
    else:
        reps = node_representatives(flat)
        pair_a, pair_b = compute_wspd_ids(
            tree,
            predicate=lambda a, b: epsilon_certified_mask(
                flat, a, b, 2.0, epsilon, reps
            ),
            num_threads=num_threads,
        )
    timings["wspd"] = time.perf_counter() - start

    start = time.perf_counter()
    tracker = current_tracker()
    num_refined = 0
    if representative == "bccp":
        cache = BCCPCache(tree, num_threads=num_threads)
        with tracker.parallel("approx-bccp"):
            cand_u, cand_v, cand_w = cache.get_batch(pair_a, pair_b)
        distance_evaluations = cache.num_distance_evaluations
        num_refined = int(pair_a.size)
    else:
        cand_u, cand_v = representative_points(flat, pair_a, pair_b, reps)
        tracker.add(float(cand_u.size), 1.0, phase="bccp")
        cand_w = sharded_edge_weights(
            flat.metric, data, cand_u, cand_v, num_threads=num_threads
        )
        distance_evaluations = int(cand_u.size)
        # Pairs the certificate rejected were recorded because they are
        # small (SMALL_PAIR_CAP); refine them with the exact batched BCCP so
        # their candidate is the true pair minimum (per-pair factor 1).
        lower = bccp_lower_bounds(flat, pair_a, pair_b, cand_w)
        refine = cand_w > (1.0 + epsilon) * lower
        num_refined = int(np.count_nonzero(refine))
        if num_refined:
            cache = BCCPCache(tree, num_threads=num_threads)
            with tracker.parallel("approx-bccp"):
                ref_u, ref_v, ref_w = cache.get_batch(pair_a[refine], pair_b[refine])
            cand_u[refine] = ref_u
            cand_v[refine] = ref_v
            cand_w[refine] = ref_w
            distance_evaluations += cache.num_distance_evaluations
    # The kd-tree skeleton guarantees the candidate graph spans even when
    # floating-point separation decisions go badly; its edges are true
    # distances, so they can only improve the tree.
    skel_u, skel_v = skeleton_edges(flat)
    skel_w = sharded_edge_weights(
        flat.metric, data, skel_u, skel_v, num_threads=num_threads
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
        "representative": representative,
        "wspd_pairs": int(pair_a.size),
        "pairs_refined": num_refined,
        "pairs_certified": int(pair_a.size) - num_refined,
        "candidate_edges": int(cand_u.size),
        "distance_evaluations": int(distance_evaluations),
    }
    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(tree_edges, n, "wspd-approx", stats=stats)


def emst_wspd_approx(
    points,
    *,
    epsilon: float = 0.0,
    representative: str = "sample",
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
) -> EMSTResult:
    """``emst(method="wspd-approx")`` adapter: keyword-only ε, same contract
    as :func:`approx_emst`.

    ε defaults to ``0`` — exact — so selecting the method without an ε means
    the same thing on every surface (functional API, estimators, CLI).
    """
    return approx_emst(
        points,
        epsilon,
        representative=representative,
        num_threads=num_threads,
        metric=metric,
    )
