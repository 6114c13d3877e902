"""Tests for the MST substrate: edges, Kruskal, Borůvka, Prim, validation."""

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.mst import (
    Edge,
    EdgeList,
    boruvka,
    canonical_mst_arrays,
    edges_from_arrays,
    is_spanning_tree,
    kruskal,
    kruskal_batch,
    prim,
    prim_order,
    total_weight,
)
from repro.mst.boruvka import boruvka_ranked
from repro.mst.canonical import _canonical_sweep
from repro.mst.kruskal import parallel_argsort
from repro.parallel import UnionFind


def random_graph_edges(num_vertices, num_edges, seed):
    """A connected random graph: a spanning path plus random extra edges."""
    rng = np.random.default_rng(seed)
    edges = []
    for index in range(num_vertices - 1):
        edges.append((index, index + 1, float(rng.random())))
    for _ in range(num_edges):
        u, v = rng.integers(0, num_vertices, size=2)
        if u != v:
            edges.append((int(u), int(v), float(rng.random())))
    return edges


class TestEdgeList:
    def test_append_and_len(self):
        edges = EdgeList()
        edges.append(0, 1, 2.0)
        edges.append(1, 2, 1.0)
        assert len(edges) == 2

    def test_iteration_yields_edge_tuples(self):
        edges = EdgeList([(0, 1, 2.0)])
        edge = next(iter(edges))
        assert isinstance(edge, Edge)
        assert edge == (0, 1, 2.0)

    def test_indexing(self):
        edges = EdgeList([(0, 1, 2.0), (2, 3, 4.0)])
        assert edges[1] == (2, 3, 4.0)

    def test_endpoints_and_weights_arrays(self):
        edges = EdgeList([(0, 1, 2.0), (2, 3, 4.0)])
        assert edges.endpoints.shape == (2, 2)
        assert np.array_equal(edges.weights, [2.0, 4.0])

    def test_empty_endpoints_shape(self):
        edges = EdgeList()
        assert edges.endpoints.shape == (0, 2)
        assert edges.weights.shape == (0,)

    def test_sorted_by_weight(self):
        edges = EdgeList([(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)])
        weights = [edge.weight for edge in edges.sorted_by_weight()]
        assert weights == [1.0, 2.0, 3.0]

    def test_edges_from_arrays_roundtrip(self):
        endpoints = np.array([[0, 1], [1, 2]])
        weights = np.array([0.5, 0.7])
        edges = edges_from_arrays(endpoints, weights)
        back_endpoints, back_weights = edges.to_arrays()
        assert np.array_equal(back_endpoints, endpoints)
        assert np.array_equal(back_weights, weights)

    def test_edges_from_arrays_length_mismatch(self):
        with pytest.raises(ValueError):
            edges_from_arrays(np.zeros((2, 2)), np.zeros(3))

    def test_total_weight(self):
        edges = EdgeList([(0, 1, 1.5), (1, 2, 2.5)])
        assert total_weight(edges) == pytest.approx(4.0)

    def test_extend_arrays(self):
        edges = EdgeList([(0, 1, 2.0)])
        edges.extend_arrays(
            np.array([1, 2]), np.array([2, 3]), np.array([0.5, 1.5])
        )
        assert len(edges) == 3
        assert edges[2] == (2, 3, 1.5)
        u, v, w = edges.as_arrays()
        assert np.array_equal(u, [0, 1, 2])
        assert np.array_equal(v, [1, 2, 3])
        assert np.array_equal(w, [2.0, 0.5, 1.5])

    def test_extend_arrays_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EdgeList().extend_arrays(np.zeros(2), np.zeros(2), np.zeros(3))

    def test_growth_preserves_contents(self):
        edges = EdgeList()
        for i in range(1000):  # force several buffer reallocations
            edges.append(i, i + 1, float(i))
        u, v, w = edges.as_arrays()
        assert np.array_equal(u, np.arange(1000))
        assert np.array_equal(w, np.arange(1000.0))

    def test_extend_from_edgelist(self):
        first = EdgeList([(0, 1, 1.0), (1, 2, 2.0)])
        second = EdgeList([(2, 3, 3.0)])
        second.extend(first)
        assert len(second) == 3
        assert second[1] == (0, 1, 1.0)

    def test_construct_from_ndarray_rows(self):
        edges = EdgeList(np.array([[0, 1, 0.5], [1, 2, 0.3]]))
        assert len(edges) == 2
        assert edges[1] == (1, 2, 0.3)

    def test_array_views_are_read_only(self):
        edges = EdgeList([(0, 1, 1.0)])
        u, v, w = edges.as_arrays()
        for view in (u, v, w, edges.weights):
            with pytest.raises(ValueError):
                view[0] = 0


class TestKruskal:
    def test_known_tiny_graph(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        tree = kruskal(edges, 3)
        assert total_weight(tree) == pytest.approx(3.0)
        assert len(tree) == 2

    def test_spanning_tree_of_random_graph(self):
        edges = random_graph_edges(50, 200, seed=0)
        tree = kruskal(edges, 50)
        assert is_spanning_tree(tree, 50)

    def test_agrees_with_boruvka_and_prim(self):
        edges = random_graph_edges(60, 300, seed=1)
        weight_kruskal = total_weight(kruskal(edges, 60))
        weight_boruvka = total_weight(boruvka(edges, 60))
        weight_prim = total_weight(prim(edges, 60))
        assert weight_kruskal == pytest.approx(weight_boruvka)
        assert weight_kruskal == pytest.approx(weight_prim)

    def test_disconnected_graph_gives_forest(self):
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        forest = kruskal(edges, 4)
        assert len(forest) == 2
        assert not is_spanning_tree(forest, 4)

    def test_batch_shares_union_find(self):
        union_find = UnionFind(4)
        output = EdgeList()
        accepted_1 = kruskal_batch([(0, 1, 1.0)], output, union_find)
        accepted_2 = kruskal_batch([(0, 1, 2.0), (1, 2, 3.0)], output, union_find)
        assert accepted_1 == 1
        assert accepted_2 == 1  # (0, 1) is rejected the second time
        assert len(output) == 2

    def test_batch_empty(self):
        union_find = UnionFind(3)
        output = EdgeList()
        assert kruskal_batch([], output, union_find) == 0

    def test_batched_equals_single_shot(self):
        edges = sorted(random_graph_edges(40, 150, seed=2), key=lambda e: e[2])
        single = total_weight(kruskal(edges, 40))
        union_find = UnionFind(40)
        output = EdgeList()
        third = len(edges) // 3
        for batch in (edges[:third], edges[third : 2 * third], edges[2 * third :]):
            kruskal_batch(batch, output, union_find)
        assert total_weight(output) == pytest.approx(single)

    def test_accepts_array_batches(self):
        edges = random_graph_edges(30, 100, seed=5)
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges])
        from_arrays = kruskal((u, v, w), 30)
        from_tuples = kruskal(edges, 30)
        assert np.array_equal(from_arrays.endpoints, from_tuples.endpoints)
        assert np.array_equal(from_arrays.weights, from_tuples.weights)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_batched_prefix_equals_single_shot(self, seed):
        """Any weight-ordered batch split accepts exactly the same edges.

        This is the contract GFK/MemoGFK rely on: cutting a sorted edge
        sequence into arbitrary batches processed against one shared
        union-find yields the same forest (same edges, same order) as one
        single-shot Kruskal run.
        """
        rng = np.random.default_rng(seed)
        num_vertices = 40 + 10 * seed
        edges = sorted(
            random_graph_edges(num_vertices, 150, seed=seed), key=lambda e: e[2]
        )
        reference = kruskal(edges, num_vertices)

        cuts = np.sort(rng.integers(0, len(edges), size=rng.integers(1, 6)))
        union_find = UnionFind(num_vertices)
        output = EdgeList()
        previous = 0
        for cut in list(cuts) + [len(edges)]:
            kruskal_batch(edges[previous:cut], output, union_find)
            previous = cut
        assert np.array_equal(output.endpoints, reference.endpoints)
        assert np.array_equal(output.weights, reference.weights)

    def test_equal_weight_ties_keep_input_order(self):
        # Stable sorting: among equal weights the earlier edge wins.
        edges = [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0), (0, 3, 1.0)]
        tree = kruskal(edges, 4)
        assert [tuple(e) for e in tree.endpoints] == [(0, 1), (2, 3), (1, 2)]


class TestBoruvka:
    def test_tiny_graph(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        tree = boruvka(edges, 3)
        assert total_weight(tree) == pytest.approx(3.0)

    def test_spanning(self):
        edges = random_graph_edges(45, 200, seed=3)
        assert is_spanning_tree(boruvka(edges, 45), 45)

    def test_empty_graph(self):
        assert len(boruvka([], 5)) == 0

    def test_disconnected_graph(self):
        edges = [(0, 1, 1.0), (2, 3, 5.0)]
        forest = boruvka(edges, 4)
        assert len(forest) == 2

    def test_handles_duplicate_weights(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 1.0)]
        tree = boruvka(edges, 4)
        assert is_spanning_tree(tree, 4)
        assert total_weight(tree) == pytest.approx(3.0)


def chunked_kruskal_canonical(u, v, w, num_points, order=None):
    """The chunked union-find Kruskal filter ``canonical_mst_arrays`` ran
    before the rank-keyed Borůvka (reference)."""
    if order is None:
        order = parallel_argsort(w)
    su = u[order]
    sv = v[order]
    sw = w[order]
    union_find = UnionFind(num_points)
    chunk = 1 << 16
    kept_u = []
    kept_v = []
    kept_w = []
    for lo in range(0, int(su.shape[0]), chunk):
        if union_find.num_components == 1:
            break
        hi = min(lo + chunk, int(su.shape[0]))
        roots = union_find.roots()
        cu = su[lo:hi]
        cv = sv[lo:hi]
        keep = roots[cu] != roots[cv]
        if not keep.any():
            continue
        ku = cu[keep]
        kv = cv[keep]
        accepted = union_find.union_many(ku, kv)
        if accepted.any():
            kept_u.append(ku[accepted])
            kept_v.append(kv[accepted])
            kept_w.append(sw[lo:hi][keep][accepted])
    empty_i = np.empty(0, dtype=np.int64)
    tu = np.concatenate(kept_u) if kept_u else empty_i
    tv = np.concatenate(kept_v) if kept_v else empty_i.copy()
    tw = np.concatenate(kept_w) if kept_w else np.empty(0, dtype=np.float64)
    if int(tu.shape[0]) != num_points - 1:
        raise InvalidParameterError("disconnected")
    return _canonical_sweep(tu, tv, tw, num_points)


def messy_candidates(num_points, num_edges, seed, classes):
    """A connected candidate set with parallel edges, self-loops and ties."""
    rng = np.random.default_rng(seed)
    path = rng.permutation(num_points)
    u = np.concatenate([path[:-1], rng.integers(0, num_points, num_edges)])
    v = np.concatenate([path[1:], rng.integers(0, num_points, num_edges)])
    repeat = rng.integers(0, u.size, num_edges // 4)
    u = np.concatenate([u, v[repeat], np.arange(5) % num_points])
    v = np.concatenate([v, u[repeat], np.arange(5) % num_points])
    w = rng.integers(0, classes, u.size).astype(np.float64) if classes else rng.random(u.size)
    shuffle = rng.permutation(u.size)
    return u[shuffle].astype(np.int64), v[shuffle].astype(np.int64), w[shuffle]


class TestRankedBoruvka:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("classes", [1, 3, 50, None])
    def test_accepts_what_kruskal_accepts(self, seed, classes):
        u, v, w = messy_candidates(80, 400, seed, classes)
        order = np.argsort(w, kind="stable")
        su, sv = u[order], v[order]
        expected = np.flatnonzero(UnionFind(80).union_many(su, sv))
        assert np.array_equal(boruvka_ranked(su, sv, 80), expected)

    def test_forest_and_self_loops(self):
        picked = boruvka_ranked(np.array([0, 2, 1, 3]), np.array([0, 3, 1, 2]), 5)
        assert picked.tolist() == [1]

    @pytest.mark.parametrize("seed", range(3))
    def test_boruvka_ties_break_by_index_like_kruskal(self, seed):
        u, v, w = messy_candidates(40, 150, seed, 3)
        edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
        assert sorted(boruvka(edges, 40)) == sorted(kruskal(edges, 40))


class TestCanonicalFilter:
    """The vectorized filter is the chunked Kruskal filter byte for byte."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("classes", [1, 2, 7, None])
    @pytest.mark.parametrize("num_points", [2, 30, 200])
    def test_equals_chunked_kruskal(self, seed, classes, num_points):
        u, v, w = messy_candidates(num_points, 6 * num_points, seed, classes)
        got = canonical_mst_arrays(u, v, w, num_points)
        want = chunked_kruskal_canonical(u, v, w, num_points)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_any_ascending_order_gives_the_same_output(self):
        u, v, w = messy_candidates(120, 700, 3, 4)
        reverse_ties = np.lexsort((-np.arange(w.size), w))
        got = canonical_mst_arrays(u, v, w, 120, order=reverse_ties)
        want = chunked_kruskal_canonical(u, v, w, 120)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_disconnected_candidates_are_rejected(self):
        with pytest.raises(InvalidParameterError, match="components"):
            canonical_mst_arrays(
                np.array([0, 2, 1]), np.array([1, 3, 1]), np.ones(3), 4
            )


class TestPrim:
    def test_tiny_graph(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        tree = prim(edges, 3)
        assert total_weight(tree) == pytest.approx(3.0)

    def test_spanning_forest_for_disconnected_input(self):
        edges = [(0, 1, 1.0), (2, 3, 2.0)]
        forest = prim(edges, 4)
        assert len(forest) == 2

    def test_prim_order_starts_at_start(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]
        order, reach = prim_order(edges, 4, start=2)
        assert order[0] == 2
        assert reach[0] == float("inf")

    def test_prim_order_visits_all_vertices(self):
        edges = random_graph_edges(30, 0, seed=4)  # a path: already a tree
        order, reach = prim_order(edges, 30, start=0)
        assert sorted(order) == list(range(30))
        assert len(reach) == 30

    def test_prim_order_reachability_values_are_tree_edge_weights(self):
        # On a path graph starting from one end, each point's reachability is
        # exactly the weight of the edge leading to it.
        edges = [(i, i + 1, float(i + 1)) for i in range(5)]
        order, reach = prim_order(edges, 6, start=0)
        assert order == [0, 1, 2, 3, 4, 5]
        assert reach[1:] == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestValidation:
    def test_valid_tree(self):
        assert is_spanning_tree([(0, 1, 1.0), (1, 2, 1.0)], 3)

    def test_cycle_is_not_a_tree(self):
        assert not is_spanning_tree([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 3)

    def test_too_few_edges(self):
        assert not is_spanning_tree([(0, 1, 1.0)], 3)

    def test_disconnected(self):
        assert not is_spanning_tree([(0, 1, 1.0), (2, 3, 1.0)], 4)
