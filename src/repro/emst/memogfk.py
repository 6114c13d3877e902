"""EMST-MemoGFK: memory-optimized GeoFilterKruskal (Algorithm 3).

MemoGFK never materializes the WSPD.  Each round performs two pruned kd-tree
traversals:

* ``GETRHO`` computes ``rho_hi``, the minimum bounding-sphere distance over
  the not-yet-connected well-separated pairs with cardinality greater than
  ``beta`` (a lower bound on every edge such a pair can produce);
* ``GETPAIRS`` retrieves only the pairs whose BCCP weight lies in the window
  ``[rho_lo, rho_hi)``, pruning subtrees whose bounding-sphere bounds place
  every descendant pair outside the window or whose points are already in one
  connected component.

Both traversals run frontier-at-a-time over the flat array engine: a round
holds every pending (A, B) pair as two node-id arrays and applies all pruning
tests — the cardinality cut, the ρ-window bounds, the connectivity filter and
the separation predicate — as vectorized masks over the whole frontier.
The ρ-window bounds and the predicate are all expressions of one quantity,
the distance between the two nodes' bounding-sphere centers, which each
round computes once per pair and carries through the filters beside the
node ids.  Connectivity is snapshotted once per round (a union-find root
sweep folded into per-node component ranges), which is sound because the
union-find only changes in the Kruskal step between traversals.

GETPAIRS collects the surviving node pairs during the traversal and submits
the whole round to the batched BCCP kernel through the array-backed cache in
one call; the retrieved edge arrays form one vectorized Kruskal batch,
``beta`` doubles and ``rho_lo = rho_hi`` for the next round.  The same
engine, parameterized by the separation predicate and the BCCP cache, also
powers the HDBSCAN*-MemoGFK algorithm (geometric-or-mutually-unreachable
separation, BCCP* distances).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.metric import MetricLike
from repro.core.points import as_points
from repro.emst.gfk import pairs_fully_connected
from repro.emst.result import EMSTResult
from repro.mst.edges import EdgeList
from repro.mst.kruskal import kruskal_batch_arrays
from repro.parallel.scheduler import current_tracker
from repro.parallel.unionfind import UnionFind
from repro.spatial.flat import FlatKDTree
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache
from repro.wspd.separation import node_distances, node_max_distances
from repro.wspd.wspd import PairMask, frontier_gaps, frontier_step, separation_mask


def _bounded_by_cd(
    bound: np.ndarray, cd: Optional[np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """A sphere bound on the BCCP of node pairs, lifted to BCCP* when ``cd``
    (per-node core-distance extrema) is given.

    The mutual reachability distance of any pair of points drawn from nodes
    ``A`` and ``B`` is at least ``max(d(A, B), cd_min(A), cd_min(B))`` and at
    most ``max(d_max(A, B), cd_max(A), cd_max(B))``; the geometric bounds
    alone would under/over-estimate it and break the window pruning.  Both
    come from the node bounding spheres stored under the tree's metric, so
    they are valid for every norm-induced metric.
    """
    if cd is None:
        return bound
    return np.maximum(bound, np.maximum(cd[a], cd[b]))


def _seed_pairs(
    flat: FlatKDTree,
    root_min: np.ndarray,
    root_max: np.ndarray,
    min_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """(left, right) child pairs of every internal node worth visiting.

    Mirrors the recursive ``visit``: descend from the root, stopping at nodes
    that are leaves, hold at most ``min_size`` points, or whose points already
    form one connected component — a pruned subtree contributes no seeds.
    """
    sizes = flat.node_sizes
    seeds_a: List[np.ndarray] = []
    seeds_b: List[np.ndarray] = []
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        keep = (
            (flat.left_child[frontier] >= 0)
            & (sizes[frontier] > min_size)
            & (root_min[frontier] != root_max[frontier])
        )
        frontier = frontier[keep]
        if frontier.size == 0:
            break
        left = flat.left_child[frontier]
        right = flat.right_child[frontier]
        seeds_a.append(left)
        seeds_b.append(right)
        frontier = np.concatenate([left, right])
    if not seeds_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(seeds_a), np.concatenate(seeds_b)


def _get_rho(
    flat: FlatKDTree,
    beta: int,
    root_min: np.ndarray,
    root_max: np.ndarray,
    predicate: PairMask,
    cd_min: Optional[np.ndarray],
    num_threads: Optional[int] = None,
) -> float:
    """GETRHO: lower bound on edges produced by pairs with cardinality > beta.

    Traverses the kd-tree the same way the WSPD construction does, pruning
    frontier pairs that cannot matter: pairs with cardinality at most beta,
    pairs that are already fully connected, and pairs whose bounding-sphere
    lower bound already exceeds the best bound found so far (the running
    minimum tightens between frontier rounds, exactly like the sequential
    WRITE_MIN cell).  Each round computes its frontier's center gaps once;
    the lower bound and the separation predicate both read them.
    """
    tracker = current_tracker()
    sizes = flat.node_sizes
    rho = math.inf
    a, b = _seed_pairs(flat, root_min, root_max, beta)
    while a.size:
        tracker.add(float(a.size), 0, phase="wspd")
        keep = sizes[a] + sizes[b] > beta
        a, b = a[keep], b[keep]
        if a.size == 0:
            break
        gap = frontier_gaps(flat, a, b, num_threads)
        lower = _bounded_by_cd(node_distances(flat, a, b, gap), cd_min, a, b)
        keep = lower < rho
        a, b, gap, lower = a[keep], b[keep], gap[keep], lower[keep]
        if a.size == 0:
            break
        keep = ~pairs_fully_connected(root_min, root_max, a, b)
        a, b, gap, lower = a[keep], b[keep], gap[keep], lower[keep]
        if a.size == 0:
            break
        # Both-leaf duplicate pairs carry no rho, so their batch is ignored.
        separated, _, _, _, _, a, b = frontier_step(
            flat, a, b, gap, predicate, num_threads=num_threads
        )
        if separated.any():
            rho = min(rho, float(lower[separated].min()))
    return rho


def _get_pairs(
    tree: KDTree,
    rho_lo: float,
    rho_hi: float,
    point_roots: np.ndarray,
    root_min: np.ndarray,
    root_max: np.ndarray,
    predicate: PairMask,
    cache: BCCPCache,
    cd_min: Optional[np.ndarray],
    cd_max: Optional[np.ndarray],
    num_threads: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GETPAIRS: edges of the not-yet-connected pairs with BCCP in the window.

    Only the pairs whose BCCP weight lies in ``[rho_lo, rho_hi)`` are
    materialized (as point-index edge arrays); everything else is pruned using
    the bounding-sphere lower/upper bounds of Figure 3, evaluated for the
    whole frontier per round from its center gaps (computed once per round,
    and read by the separation predicate too).  ``cd_min`` / ``cd_max`` lift
    the bounds to BCCP* (``None`` for plain distances).  The traversal
    itself only *collects* the surviving node pairs; the round's entire
    collection is then submitted to the batched BCCP kernel with one
    :meth:`BCCPCache.get_batch` call and the window test is applied as a
    single mask.  ``point_roots`` is the per-point union-find snapshot of
    this round (the union-find only changes in the Kruskal step, so it is
    exact throughout the traversal).

    The window tests are guarded against floating-point disagreement between
    the sphere-based bounds and the vectorized BCCP kernel: the upper-bound
    prune carries a small relative slack, and a pair whose BCCP falls
    marginally *below* ``rho_lo`` (i.e. it straddled the previous window's
    boundary) is still retrieved when its endpoints are not yet connected, so
    no edge can be lost to rounding at a window boundary.
    """
    flat = tree.flat
    tracker = current_tracker()
    rho_lo_slack = rho_lo - 1e-9 * rho_lo - 1e-12
    collected_a: List[np.ndarray] = []
    collected_b: List[np.ndarray] = []

    a, b = _seed_pairs(flat, root_min, root_max, 0)
    while a.size:
        tracker.add(float(a.size), 0, phase="wspd")
        gap = frontier_gaps(flat, a, b, num_threads)
        keep = _bounded_by_cd(node_distances(flat, a, b, gap), cd_min, a, b) < rho_hi
        a, b, gap = a[keep], b[keep], gap[keep]
        if a.size == 0:
            break
        upper = _bounded_by_cd(node_max_distances(flat, a, b, gap), cd_max, a, b)
        keep = upper >= rho_lo_slack
        a, b, gap = a[keep], b[keep], gap[keep]
        if a.size == 0:
            break
        keep = ~pairs_fully_connected(root_min, root_max, a, b)
        a, b, gap = a[keep], b[keep], gap[keep]
        if a.size == 0:
            break
        _, sep_a, sep_b, dup_a, dup_b, a, b = frontier_step(
            flat, a, b, gap, predicate, num_threads=num_threads
        )
        if sep_a.size:
            collected_a.append(sep_a)
            collected_b.append(sep_b)
        # Duplicate points: both singletons, zero-diameter, not separated
        # only in pathological floating-point cases.
        if dup_a.size:
            collected_a.append(dup_a)
            collected_b.append(dup_b)

    if not collected_a:
        empty_idx = np.empty(0, dtype=np.int64)
        return empty_idx, empty_idx.copy(), np.empty(0, dtype=np.float64)
    point_a, point_b, weight = cache.get_batch(
        np.concatenate(collected_a), np.concatenate(collected_b)
    )
    in_window = (weight < rho_hi) & (
        (weight >= rho_lo) | (point_roots[point_a] != point_roots[point_b])
    )
    return point_a[in_window], point_b[in_window], weight[in_window]


#: Checkpoint phase recording the MemoGFK round loop's live state.  Saved
#: after every completed round, retired by the api layer once the final MST
#: phase is committed.
ROUND_PHASE = "mst-rounds"


def _save_round_state(
    checkpoint,
    output: EdgeList,
    union_find: UnionFind,
    beta: int,
    rho_lo: float,
    rounds: int,
    max_materialized: int,
    total_materialized: int,
) -> None:
    u, v, w = output.as_arrays()
    arrays = {
        "edges_u": u,
        "edges_v": v,
        "edges_w": w,
        # beta can exceed float53 after enough doublings; keep ints exact.
        "counters": np.array(
            [beta, rounds, max_materialized, total_materialized], dtype=np.int64
        ),
        # rho_lo may legitimately be +inf (last window), so it cannot ride
        # the JSON manifest metadata.
        "rho_lo": np.array([rho_lo], dtype=np.float64),
    }
    for key, value in union_find.state_arrays().items():
        arrays[f"uf_{key}"] = value
    checkpoint.save_phase(ROUND_PHASE, arrays, {"round": rounds})


def memogfk_mst(
    tree: KDTree,
    *,
    separation: str = "geometric",
    s: float = 2.0,
    core_distances: Optional[np.ndarray] = None,
    initial_beta: int = 2,
    num_threads: Optional[int] = None,
    checkpoint=None,
) -> Tuple[EdgeList, dict]:
    """Run the MemoGFK engine over an existing kd-tree.

    Parameters
    ----------
    tree:
        kd-tree over the input points (annotated with core distances when
        ``separation='hdbscan'``).
    separation:
        ``'geometric'`` (EMST) or ``'hdbscan'`` (new disjunctive separation).
    s:
        Separation constant for the geometric predicate.
    core_distances:
        When given, BCCP* (mutual reachability) distances are used for edge
        weights; required for HDBSCAN*.
    initial_beta:
        Starting batch-cardinality threshold (the paper uses 2).
    num_threads:
        Worker threads for the batched stages: the GETRHO/GETPAIRS
        center-gap and separation sweeps, each round's BCCP(*) size-class
        kernel and the Kruskal weight sort all shard onto the persistent
        worker pool with fixed chunk boundaries, so the MST is
        byte-identical at any thread count; ``None``/``0``/``1`` run inline.
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.CheckpointManager`.
        When given, the loop commits its complete live state — the accepted
        edges, the union-find forest, ``beta``/``rho_lo`` and the round
        counters — after *every* round, and restores it on entry, so a run
        killed mid-MST resumes at its last finished round and still produces
        a byte-identical tree (each round is a deterministic function of the
        restored state).

    Returns
    -------
    (edges, stats):
        The MST edge list and a statistics dictionary (rounds, BCCP calls,
        distance evaluations, maximum number of edges materialized in any
        round).
    """
    if separation not in ("geometric", "hdbscan"):
        raise InvalidParameterError("separation must be 'geometric' or 'hdbscan'")
    flat = tree.flat
    if tree.leaf_size != 1 and int(flat.node_sizes[flat.leaf_ids()].max()) > 1:
        raise InvalidParameterError(
            "MemoGFK requires a kd-tree built with leaf_size=1 (pairs inside a "
            "multi-point leaf would never be enumerated)"
        )

    n = tree.size
    cache = BCCPCache(tree, core_distances=core_distances, num_threads=num_threads)
    union_find = UnionFind(n)
    output = EdgeList()
    cd_min = cd_max = None
    if core_distances is not None:
        if not tree.has_core_distances:
            tree.annotate_core_distances(np.asarray(core_distances, dtype=np.float64))
        cd_min, cd_max = flat.cd_min, flat.cd_max
    predicate = separation_mask(flat, separation, s)

    beta = initial_beta
    rho_lo = 0.0
    rounds = 0
    max_materialized = 0
    total_materialized = 0
    if checkpoint is not None and checkpoint.has_phase(ROUND_PHASE):
        arrays, _ = checkpoint.load_phase(ROUND_PHASE)
        output.extend_arrays(arrays["edges_u"], arrays["edges_v"], arrays["edges_w"])
        union_find = UnionFind.from_state_arrays(
            {
                "parent": arrays["uf_parent"],
                "rank": arrays["uf_rank"],
                "num_components": arrays["uf_num_components"],
            }
        )
        counters = arrays["counters"]
        beta = int(counters[0])
        rounds = int(counters[1])
        max_materialized = int(counters[2])
        total_materialized = int(counters[3])
        rho_lo = float(arrays["rho_lo"][0])
    tracker = current_tracker()
    log_n = max(math.log2(n), 1.0)
    try:
        while len(output) < n - 1:
            rounds += 1
            # One round costs O(log n) depth: the two pruned traversals recurse
            # to tree depth and the Kruskal batch contributes another log
            # factor.
            tracker.add(0.0, 2.0 * log_n, phase="wspd")
            # The union-find only changes in the Kruskal step, so one component
            # snapshot (per-point roots folded into per-node root ranges) is
            # valid for both traversals of the round.
            point_roots = union_find.roots()
            root_min, root_max = flat.node_value_ranges(point_roots)
            rho_hi = _get_rho(
                flat, beta, root_min, root_max, predicate, cd_min, num_threads
            )
            batch_u, batch_v, batch_w = _get_pairs(
                tree,
                rho_lo,
                rho_hi,
                point_roots,
                root_min,
                root_max,
                predicate,
                cache,
                cd_min,
                cd_max,
                num_threads,
            )
            max_materialized = max(max_materialized, int(batch_u.size))
            total_materialized += int(batch_u.size)
            kruskal_batch_arrays(
                batch_u, batch_v, batch_w, output, union_find, num_threads=num_threads
            )
            beta *= 2
            rho_lo = rho_hi
            if checkpoint is not None:
                _save_round_state(
                    checkpoint,
                    output,
                    union_find,
                    beta,
                    rho_lo,
                    rounds,
                    max_materialized,
                    total_materialized,
                )
            if math.isinf(rho_hi) and len(output) < n - 1:
                # Final window covered every remaining pair; if the tree is
                # still incomplete the input must contain exact duplicates that
                # the predicate classified as separated with zero distance,
                # which the final batch has already handled.  Guard against an
                # infinite loop regardless.
                break
    except BaseException:
        # Spill lifecycle: under a bounded budget the cache columns and the
        # output buffers may be spill-file memmaps; release them now so an
        # aborted fit drops its disk mappings (and the "bccp_cache"
        # reservation) deterministically instead of at garbage collection.
        cache.close()
        output.release()
        raise

    stats = {
        "rounds": rounds,
        "bccp_calls": cache.num_bccp_calls,
        "distance_evaluations": cache.num_distance_evaluations,
        "max_pairs_materialized": max_materialized,
        "pairs_materialized": total_materialized,
    }
    # The memo served its purpose; dropping it here releases its reservation
    # (and any spill mappings) before the caller builds on the MST.
    cache.close()
    return output, stats


def emst_memogfk(
    points,
    *,
    s: float = 2.0,
    initial_beta: int = 2,
    num_threads: Optional[int] = None,
    metric: MetricLike = None,
    checkpoint=None,
) -> EMSTResult:
    """Exact metric MST via the memory-optimized GeoFilterKruskal (Algorithm 3).

    ``num_threads`` shards the batched stages onto the persistent worker pool
    (see :func:`memogfk_mst`); the MST is byte-identical at any setting.
    ``metric`` selects the distance (Euclidean by default); the metric rides
    the kd-tree, so every traversal bound and BCCP kernel picks it up.
    ``checkpoint`` enables the per-round state commits of
    :func:`memogfk_mst` (the ``emst()`` entry point wires this up from its
    ``checkpoint_dir=``).
    """
    data = as_points(points, min_points=1)
    n = data.shape[0]
    if n == 1:
        return EMSTResult(EdgeList(), 1, "memogfk")

    timings = {}
    start = time.perf_counter()
    tree = KDTree(data, metric=metric)
    timings["build-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    edges, stats = memogfk_mst(
        tree,
        separation="geometric",
        s=s,
        initial_beta=initial_beta,
        num_threads=num_threads,
        checkpoint=checkpoint,
    )
    timings["wspd+kruskal"] = time.perf_counter() - start

    stats.update({f"time_{name}": value for name, value in timings.items()})
    return EMSTResult(edges, n, "memogfk", stats=stats)
