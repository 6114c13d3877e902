"""Tests for the condensed tree and excess-of-mass cluster extraction."""

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.datasets import gaussian_blobs
from repro.dendrogram import (
    Dendrogram,
    condense_dendrogram,
    dendrogram_sequential,
    dendrogram_topdown,
    extract_eom_clusters,
    hdbscan_flat_labels,
)
from repro.dendrogram.condensed import CondensedTree
from repro.hdbscan import hdbscan


# -- the explicit stack walk the array condense reproduces (reference) ------


class _EdgeColumns:
    """Columnar accumulator for condensed-tree records.

    Records arrive either one cluster-child at a time or as whole arrays of
    point fallouts (the leaves of a shed subtree); both append to per-column
    array lists that are concatenated once at the end.
    """

    def __init__(self) -> None:
        self.parents: List[np.ndarray] = []
        self.children: List[np.ndarray] = []
        self.lambdas: List[np.ndarray] = []
        self.sizes: List[np.ndarray] = []
        self.is_cluster: List[np.ndarray] = []

    def add_points(self, cluster: int, points: np.ndarray, lambda_value: float) -> None:
        count = int(points.shape[0])
        self.parents.append(np.full(count, cluster, dtype=np.int64))
        self.children.append(np.asarray(points, dtype=np.int64))
        self.lambdas.append(np.full(count, lambda_value, dtype=np.float64))
        self.sizes.append(np.ones(count, dtype=np.int64))
        self.is_cluster.append(np.zeros(count, dtype=bool))

    def add_cluster(
        self, cluster: int, child_cluster: int, lambda_value: float, size: int
    ) -> None:
        self.parents.append(np.array([cluster], dtype=np.int64))
        self.children.append(np.array([child_cluster], dtype=np.int64))
        self.lambdas.append(np.array([lambda_value], dtype=np.float64))
        self.sizes.append(np.array([size], dtype=np.int64))
        self.is_cluster.append(np.array([True]))

    def concatenate(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if not self.parents:
            empty_i = np.empty(0, dtype=np.int64)
            return (
                empty_i,
                empty_i.copy(),
                np.empty(0, dtype=np.float64),
                empty_i.copy(),
                np.empty(0, dtype=bool),
            )
        return (
            np.concatenate(self.parents),
            np.concatenate(self.children),
            np.concatenate(self.lambdas),
            np.concatenate(self.sizes),
            np.concatenate(self.is_cluster),
        )


def _lambda_of_height(height: float) -> float:
    return math.inf if height <= 0.0 else 1.0 / height


def stack_walk_condense(
    dendrogram: Dendrogram, min_cluster_size: int = 5
) -> CondensedTree:
    """Condense a dendrogram, ignoring splits smaller than ``min_cluster_size``.

    Walking from the root down, a split into two children both of size at
    least ``min_cluster_size`` creates two new clusters; otherwise the large
    side keeps the parent's cluster identity and the points of the small side
    "fall out" of the cluster at the split's density level.  The walk is an
    explicit iterative stack over dendrogram nodes; the points of a shed
    subtree come from the dendrogram's leaf spans as one array slice, so no
    step recurses or touches leaves one at a time.
    """
    if min_cluster_size < 1:
        raise InvalidParameterError("min_cluster_size must be >= 1")
    n = dendrogram.num_points
    if n == 1:
        return CondensedTree(
            num_points=1,
            min_cluster_size=min_cluster_size,
            edge_parent=np.zeros(1, dtype=np.int64),
            edge_child=np.zeros(1, dtype=np.int64),
            edge_lambda=np.full(1, math.inf),
            edge_size=np.ones(1, dtype=np.int64),
            edge_is_cluster=np.zeros(1, dtype=bool),
            birth_lambda={0: 0.0},
            parent_of_cluster={},
        )
    if dendrogram.root is None:
        raise InvalidParameterError("dendrogram has no root; construction incomplete")

    order, first = dendrogram.leaf_spans()

    def leaves_of(node_id: int) -> np.ndarray:
        lo = int(first[node_id])
        return order[lo : lo + dendrogram.node_size(node_id)]

    root_cluster = 0
    birth_lambda: Dict[int, float] = {root_cluster: 0.0}
    parent_of_cluster: Dict[int, int] = {}
    columns = _EdgeColumns()
    next_cluster_id = 1

    # Each stack entry: (dendrogram node, condensed cluster it belongs to).
    stack: List[Tuple[int, int]] = [(dendrogram.root, root_cluster)]
    while stack:
        node_id, cluster = stack.pop()
        if dendrogram.is_leaf(node_id):
            # A singleton that reached the bottom of its cluster: it stays
            # until the maximum density, i.e. it leaves at lambda = infinity
            # (capped later during stability computation).
            columns.add_points(
                cluster, np.array([node_id], dtype=np.int64), math.inf
            )
            continue
        left, right = dendrogram.children(node_id)
        lambda_value = _lambda_of_height(dendrogram.height(node_id))
        left_size = dendrogram.node_size(left)
        right_size = dendrogram.node_size(right)
        big_left = left_size >= min_cluster_size
        big_right = right_size >= min_cluster_size

        if big_left and big_right:
            for child in (left, right):
                child_cluster = next_cluster_id
                next_cluster_id += 1
                birth_lambda[child_cluster] = lambda_value
                parent_of_cluster[child_cluster] = cluster
                columns.add_cluster(
                    cluster,
                    child_cluster,
                    lambda_value,
                    dendrogram.node_size(child),
                )
                stack.append((child, child_cluster))
        elif big_left or big_right:
            survivor, shed = (left, right) if big_left else (right, left)
            columns.add_points(cluster, leaves_of(shed), lambda_value)
            stack.append((survivor, cluster))
        else:
            columns.add_points(cluster, leaves_of(node_id), lambda_value)

    parent, child, lam, size, is_cluster = columns.concatenate()
    return CondensedTree(
        num_points=n,
        min_cluster_size=min_cluster_size,
        edge_parent=parent,
        edge_child=child,
        edge_lambda=lam,
        edge_size=size,
        edge_is_cluster=is_cluster,
        birth_lambda=birth_lambda,
        parent_of_cluster=parent_of_cluster,
    )


@st.composite
def dendrograms(draw):
    """Dendrograms of random trees, paths and stars with tie-heavy weights."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    shape = draw(st.sampled_from(["tree", "path", "star"]))
    if shape == "path":
        u, v = perm[:-1], perm[1:]
    elif shape == "star":
        u, v = np.full(n - 1, perm[0]), perm[1:]
    else:
        u, v = perm[rng.integers(0, np.arange(1, n))], perm[1:]
    classes = draw(st.sampled_from([1, 4, None]))
    if classes is None:
        w = rng.random(n - 1)
    else:
        # Integer heights include 0, which condenses at lambda = inf.
        w = rng.integers(0, classes, n - 1).astype(np.float64)
    return dendrogram_sequential((u, v, w), n, start=int(rng.integers(n)))


def assert_same_condensed(got, want):
    got_arrays, want_arrays = got.state_arrays(), want.state_arrays()
    assert set(got_arrays) == set(want_arrays)
    for name in want_arrays:
        assert got_arrays[name].dtype == want_arrays[name].dtype, name
        assert got_arrays[name].tobytes() == want_arrays[name].tobytes(), name
    assert list(got.birth_lambda.items()) == list(want.birth_lambda.items())
    assert list(got.parent_of_cluster.items()) == list(
        want.parent_of_cluster.items()
    )


class TestArrayCondenseEqualsStackWalk:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(dendrogram=dendrograms())
    def test_random_dendrograms(self, dendrogram):
        n = dendrogram.num_points
        for min_cluster_size in (1, 2, 5, n):
            assert_same_condensed(
                condense_dendrogram(dendrogram, min_cluster_size),
                stack_walk_condense(dendrogram, min_cluster_size),
            )

    @pytest.mark.parametrize("min_cluster_size", [1, 2, 5, 50_000])
    def test_chain_condenses_without_recursion(self, min_cluster_size):
        n = 50_000
        u = np.arange(n - 1, dtype=np.int64)
        dendrogram = dendrogram_topdown((u, u + 1, u.astype(np.float64)), n)
        assert_same_condensed(
            condense_dendrogram(dendrogram, min_cluster_size),
            stack_walk_condense(dendrogram, min_cluster_size),
        )

    def test_fitted_hierarchy(self):
        result, _ = _blob_result(4)
        for min_cluster_size in (1, 2, 5, 240):
            assert_same_condensed(
                condense_dendrogram(result.dendrogram, min_cluster_size),
                stack_walk_condense(result.dendrogram, min_cluster_size),
            )


def _blob_result(num_clusters, n=240, std=0.01, seed=0, min_pts=5):
    points, truth = gaussian_blobs(
        n, 2, num_clusters=num_clusters, cluster_std=std, seed=seed, return_labels=True
    )
    return hdbscan(points, min_pts=min_pts), truth


class TestCondense:
    def test_root_cluster_always_present(self):
        result, _ = _blob_result(2)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=5)
        assert 0 in condensed.birth_lambda
        assert condensed.num_points == result.num_points

    def test_every_point_recorded_exactly_once(self):
        result, _ = _blob_result(3, seed=1)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=5)
        point_records = [e.child for e in condensed.edges if not e.child_is_cluster]
        assert sorted(point_records) == list(range(result.num_points))

    def test_cluster_children_sizes_at_least_min_cluster_size(self):
        result, _ = _blob_result(3, seed=2)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=10)
        for edge in condensed.edges:
            if edge.child_is_cluster:
                assert edge.child_size >= 10

    def test_larger_min_cluster_size_gives_fewer_clusters(self):
        result, _ = _blob_result(4, n=320, seed=3)
        small = condense_dendrogram(result.dendrogram, min_cluster_size=5)
        large = condense_dendrogram(result.dendrogram, min_cluster_size=40)
        assert large.num_clusters <= small.num_clusters

    def test_parent_ids_smaller_than_children(self):
        result, _ = _blob_result(3, seed=4)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=5)
        for child, parent in condensed.parent_of_cluster.items():
            assert parent < child

    def test_stability_nonnegative(self):
        result, _ = _blob_result(2, seed=5)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=5)
        for cluster in condensed.cluster_ids():
            assert condensed.stability(cluster) >= -1e-12

    def test_invalid_min_cluster_size(self):
        result, _ = _blob_result(2, seed=6)
        with pytest.raises(InvalidParameterError):
            condense_dendrogram(result.dendrogram, min_cluster_size=0)

    def test_single_point_dendrogram(self):
        from repro.dendrogram import Dendrogram

        condensed = condense_dendrogram(Dendrogram(1), min_cluster_size=2)
        assert condensed.num_points == 1


class TestEOMExtraction:
    @pytest.mark.parametrize("num_clusters", [2, 3, 4])
    def test_recovers_well_separated_blobs(self, num_clusters):
        result, truth = _blob_result(num_clusters, n=80 * num_clusters, seed=num_clusters)
        labels = result.eom_labels(min_cluster_size=10)
        found = set(labels[labels >= 0].tolist())
        assert len(found) == num_clusters
        # Points of one true blob never split across two found clusters.
        for true_label in range(num_clusters):
            predicted = set(labels[truth == true_label].tolist()) - {-1}
            assert len(predicted) <= 1

    def test_noise_points_get_minus_one(self):
        rng = np.random.default_rng(9)
        blob_a = rng.normal(0.0, 0.01, size=(80, 2))
        blob_b = rng.normal(1.0, 0.01, size=(80, 2))
        outliers = rng.uniform(3.0, 6.0, size=(6, 2))
        points = np.vstack([blob_a, blob_b, outliers])
        result = hdbscan(points, min_pts=5)
        labels = result.eom_labels(min_cluster_size=10)
        assert set(labels[:160].tolist()) >= {0, 1} or len(set(labels[:160].tolist()) - {-1}) == 2
        assert np.all(labels[160:] == -1)

    def test_uniform_data_single_cluster_suppressed_by_default(self):
        # On structureless data with allow_single_cluster=False, EOM returns
        # whatever subclusters are most stable, never the root itself; with
        # allow_single_cluster=True and no competing structure, everything may
        # collapse to one cluster or noise.
        points = np.random.default_rng(10).random((200, 2))
        result = hdbscan(points, min_pts=5)
        labels = result.eom_labels(min_cluster_size=20)
        assert labels.shape == (200,)

    def test_extract_returns_stabilities_for_selected(self):
        result, _ = _blob_result(3, n=240, seed=11)
        condensed = condense_dendrogram(result.dendrogram, min_cluster_size=10)
        labels, stabilities = extract_eom_clusters(condensed)
        assert len(stabilities) == len(set(labels[labels >= 0].tolist()))
        assert all(value >= 0 for value in stabilities.values())

    def test_flat_labels_wrapper_matches_manual_pipeline(self):
        result, _ = _blob_result(2, seed=12)
        manual_condensed = condense_dendrogram(result.dendrogram, min_cluster_size=8)
        manual_labels, _ = extract_eom_clusters(manual_condensed)
        wrapper_labels = hdbscan_flat_labels(result.dendrogram, min_cluster_size=8)
        assert np.array_equal(manual_labels, wrapper_labels)

    def test_eom_requires_dendrogram(self):
        from repro.core.errors import NotComputedError

        points = np.random.default_rng(13).random((60, 2))
        result = hdbscan(points, min_pts=5, compute_dendrogram=False)
        with pytest.raises(NotComputedError):
            result.eom_labels()

    def test_labels_cover_only_valid_range(self):
        result, _ = _blob_result(3, seed=14)
        labels = result.eom_labels(min_cluster_size=10)
        assert labels.min() >= -1
        positive = labels[labels >= 0]
        if positive.size:
            assert set(positive.tolist()) == set(range(positive.max() + 1))
