"""Tests for union-find."""

import pytest

from repro.parallel import UnionFind


class TestUnionFind:
    def test_initially_all_separate(self):
        union_find = UnionFind(5)
        assert union_find.num_components == 5
        assert not union_find.connected(0, 1)

    def test_union_connects(self):
        union_find = UnionFind(4)
        assert union_find.union(0, 1)
        assert union_find.connected(0, 1)
        assert union_find.num_components == 3

    def test_union_same_component_returns_false(self):
        union_find = UnionFind(4)
        union_find.union(0, 1)
        union_find.union(1, 2)
        assert not union_find.union(0, 2)
        assert union_find.num_components == 2

    def test_transitive_connectivity(self):
        union_find = UnionFind(6)
        union_find.union(0, 1)
        union_find.union(2, 3)
        union_find.union(1, 2)
        assert union_find.connected(0, 3)
        assert not union_find.connected(0, 4)

    def test_find_is_consistent_representative(self):
        union_find = UnionFind(5)
        union_find.union(0, 1)
        union_find.union(3, 4)
        assert union_find.find(0) == union_find.find(1)
        assert union_find.find(3) == union_find.find(4)
        assert union_find.find(0) != union_find.find(3)

    def test_component_labels(self):
        union_find = UnionFind(4)
        union_find.union(0, 2)
        labels = union_find.component_labels()
        assert labels[0] == labels[2]
        assert labels[1] != labels[0]

    def test_all_merged_single_component(self):
        union_find = UnionFind(10)
        for index in range(9):
            union_find.union(index, index + 1)
        assert union_find.num_components == 1

    def test_size_property(self):
        assert UnionFind(7).size == 7

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_zero_elements(self):
        union_find = UnionFind(0)
        assert union_find.num_components == 0
