"""Canonical normal form for mutual-reachability MSTs.

The incremental engine and a cold refit generally discover *different* MSTs:
mutual-reachability graphs are full of exact weight ties (every pair whose
distance is dominated by the same core distance shares a weight, duplicate
points tie at zero), and which tied edge a run picks depends on the order
BCCP candidates were produced in — the one thing an incremental repair
cannot reproduce.  What *is* invariant is the weight-class filtration: for
any candidate edge set that is (a) a superset of some MST of the graph, or
(b) the exact per-pair BCCP values of a covering well-separated
decomposition, running Kruskal and looking only at the *partition of the
points after each weight class* gives the same sequence of partitions as
Kruskal over the complete graph.  Every quantity the serving layer derives —
DBSCAN* components at any epsilon, single-linkage cuts, condensed-tree
stabilities, EOM labels — is a function of that filtration, not of the
particular tied edges.

:func:`canonical_mst_arrays` therefore synthesizes one distinguished MST
*from the filtration alone*: weight classes are processed in increasing
order; within a class, each group of blocks that the class merges is ordered
by block minimum and chained left to right, with every synthesized edge
running between block-minimum representatives.  Two runs that agree on the
filtration — a cold fit and any interleaved insert/delete sequence reaching
the same point set — produce byte-identical edge arrays, and therefore
byte-identical dendrograms, condensed trees and labels downstream.

The candidates are first filtered to the forest a Kruskal sweep over the
weight order accepts, by :func:`repro.mst.boruvka.boruvka_ranked`: a
vectorized Borůvka keyed by each candidate's position in that order.  The
keys are unique, so its forest and the order of its edges are Kruskal's,
self-loops are never accepted, and no Python loop runs per candidate; only
the ``n - 1`` accepted edges enter the normal-form sweep.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.mst.boruvka import boruvka_ranked
from repro.mst.kruskal import parallel_argsort


def _canonical_sweep(
    tu: np.ndarray, tv: np.ndarray, tw: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resynthesize accepted Kruskal edges into the canonical normal form.

    ``tu/tv/tw`` are the ``n - 1`` accepted edges in non-decreasing weight
    order.  The sweep re-runs the merges with a union-find that tracks the
    minimum element of every component; each weight class is resolved into
    its block-merge groups, and the emitted edges depend only on the blocks
    (never on which tied input edge caused a merge).  Classes of a single
    edge — the overwhelmingly common case on continuous data — take the
    inlined fast path.
    """
    m = int(tu.shape[0])
    if m == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    # Union-find state and outputs live in Python lists: the per-edge loop
    # indexes them one scalar at a time, which numpy arrays make slow.
    parent = list(range(n))
    rank = [0] * n
    comp_min = list(range(n))
    u_list = tu.tolist()
    v_list = tv.tolist()
    w_list = tw.tolist()
    out_u = []
    out_v = []
    out_w = []

    def find(x: int) -> int:
        while True:
            p = parent[x]
            if p == x:
                return x
            gp = parent[p]
            parent[x] = gp  # path halving
            x = gp

    def union(rx: int, ry: int) -> int:
        low = comp_min[rx]
        if comp_min[ry] < low:
            low = comp_min[ry]
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        comp_min[rx] = low
        return rx

    i = 0
    while i < m:
        weight = w_list[i]
        j = i + 1
        while j < m and w_list[j] == weight:
            j += 1
        if j == i + 1:
            # Single-edge class: one merge of two blocks.
            ru = find(u_list[i])
            rv = find(v_list[i])
            a = comp_min[ru]
            b = comp_min[rv]
            if a > b:
                a, b = b, a
            out_u.append(a)
            out_v.append(b)
            out_w.append(weight)
            union(ru, rv)
        else:
            # Multi-edge class: group the participating blocks, then chain
            # each group's blocks in ascending block-minimum order.  The
            # grouping is over block *roots* (partition data), so any tied
            # input edges producing the same partition yield the same output.
            local: dict = {}
            group_parent: list = []
            for t in range(i, j):
                for root in (find(u_list[t]), find(v_list[t])):
                    if root not in local:
                        local[root] = len(group_parent)
                        group_parent.append(len(group_parent))

            def gfind(x: int) -> int:
                while group_parent[x] != x:
                    group_parent[x] = group_parent[group_parent[x]]
                    x = group_parent[x]
                return x

            for t in range(i, j):
                ga = gfind(local[find(u_list[t])])
                gb = gfind(local[find(v_list[t])])
                if ga != gb:
                    group_parent[gb] = ga
            groups: dict = {}
            for root, slot in local.items():
                groups.setdefault(gfind(slot), []).append(root)
            chains = []
            for members in groups.values():
                if len(members) < 2:
                    continue
                members.sort(key=lambda root: comp_min[root])
                chains.append(members)
            chains.sort(key=lambda members: comp_min[members[0]])
            for members in chains:
                head = members[0]
                for other in members[1:]:
                    a = comp_min[head]
                    b = comp_min[other]
                    if a > b:
                        a, b = b, a
                    out_u.append(a)
                    out_v.append(b)
                    out_w.append(weight)
                    head = union(head, other)
        i = j
    if len(out_u) != m:
        raise InvalidParameterError(
            "canonicalization changed the merge count; the input edges were "
            "not a spanning forest sweep"
        )
    return (
        np.array(out_u, dtype=np.int64),
        np.array(out_v, dtype=np.int64),
        np.array(out_w, dtype=np.float64),
    )


def canonical_mst_arrays(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_points: int,
    *,
    num_threads: Optional[int] = None,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical MST of a candidate edge set, as ``(u, v, w)`` arrays.

    ``u/v/w`` may be any candidate edge collection whose weight-class
    filtration matches the underlying graph's (an MST produced by any of the
    engine's methods, or the BCCP values of a covering well-separated
    decomposition — supersets are fine, the filter discards the slack).  The
    output is sorted by ``(w, u, v)`` with ``u < v`` per edge and is a pure
    function of the filtration, so two candidate sets inducing the same
    partitions produce byte-identical arrays.

    ``order``, when given, must be some ascending-by-``w`` permutation of the
    edges; the caller can maintain one incrementally (the canonical output
    only depends on the weight-class partition sweep, so *which* ascending
    permutation is supplied never changes the result).

    Raises :class:`~repro.core.errors.InvalidParameterError` when the
    candidates do not connect all ``num_points`` points.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if num_points < 0:
        raise InvalidParameterError("num_points must be >= 0")
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )
    if num_points <= 1:
        return empty
    if order is None:
        order = parallel_argsort(w, num_threads=num_threads)
    su = u[order]
    sv = v[order]
    # Rank-keyed Borůvka accepts exactly the edges, in exactly the order, of
    # a Kruskal sweep over ``order``; self-loops are never accepted.
    picked = boruvka_ranked(su, sv, num_points)
    tu, tv, tw = su[picked], sv[picked], w[order[picked]]
    if int(tu.shape[0]) != num_points - 1:
        raise InvalidParameterError(
            f"candidate edges span {num_points - int(tu.shape[0])} components; "
            f"a connected candidate set over {num_points} points is required"
        )
    return _canonical_sweep(tu, tv, tw, num_points)
