"""Group-trie tests (paper §IV-D Def. 12, Fig. 5)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trie import TrieNode, annotate_pids, build_trie, iter_nodes, leaves, navigate


def members_from(sigs, counts=None):
    counts = counts or [1] * len(sigs)
    return list(zip(sigs, counts))


class TestBuild:
    def test_small_group_single_leaf(self):
        root = build_trie(members_from([(1, 2), (3, 4)]), capacity=10)
        assert root.is_leaf and root.count == 2

    def test_split_by_first_pivot(self):
        sigs = [(1, 2)] * 5 + [(3, 4)] * 5
        root = build_trie(members_from(sigs), capacity=6)
        assert set(root.children) == {1, 3}
        assert root.children[1].count == 5

    def test_recursive_split(self):
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4 + [(2, 9, 9)] * 2
        root = build_trie(members_from(sigs), capacity=5)
        assert set(root.children) == {1, 2}
        n1 = root.children[1]
        assert not n1.is_leaf and set(n1.children) == {2, 3}
        assert root.children[2].is_leaf

    def test_paths_are_prefixes(self):
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4
        root = build_trie(members_from(sigs), capacity=5)
        for node in iter_nodes(root):
            if node.prefix:
                assert navigate(root, node.prefix) is node

    def test_ordinals_are_preorder_ranges(self):
        """DFS pre-order from ``start``, children in pivot order: a node's
        subtree is exactly the ordinal range [ord, end)."""
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4 + [(2, 9, 9)] * 2 + [(12, 1, 1)] * 3
        root = build_trie(members_from(sigs), capacity=3, start=10)
        order = []

        def walk(n):
            order.append(n)
            for p in sorted(n.children):
                walk(n.children[p])

        walk(root)
        assert [n.ord for n in order] == list(range(10, 10 + len(order)))
        assert root.end == 10 + len(order)
        for a in order:
            inside = {n.ord for n in order if n.prefix[:len(a.prefix)] == a.prefix}
            assert inside == set(range(a.ord, a.end))

    def test_counts_weighted(self):
        root = build_trie(members_from([(1, 2)], counts=[7.5]), capacity=100)
        assert root.count == 7.5

    def test_max_depth_leaf_may_exceed_capacity(self):
        sigs = [(1, 2)] * 10  # identical signatures cannot be separated
        root = build_trie(members_from(sigs), capacity=3)
        leafs = leaves(root)
        assert any(n.count > 3 for n in leafs)

    def test_empty_group(self):
        root = build_trie([], capacity=5)
        assert root.is_leaf and root.count == 0


class TestDef12Invariants:
    """Def. 12: partitions disjoint + full coverage at the leaf level."""

    @given(st.integers(0, 300), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_leaves_disjoint_and_cover(self, seed, cap):
        rng = np.random.default_rng(seed)
        sigs = [tuple(rng.choice(6, 3, replace=False)) for _ in range(30)]
        root = build_trie(members_from(sigs), capacity=cap)
        total = sum(n.count for n in leaves(root))
        assert total == pytest.approx(root.count) == 30
        prefixes = [n.prefix for n in leaves(root)]
        assert len(prefixes) == len(set(prefixes))
        # No leaf prefix is a prefix of another leaf's (disjoint subtrees),
        # and leaf ordinal ranges do not overlap.
        for a in prefixes:
            for b in prefixes:
                if a != b:
                    assert b[:len(a)] != a
        ranges = sorted((n.ord, n.end) for n in leaves(root))
        assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_every_member_navigates_to_a_leaf_region(self, seed):
        rng = np.random.default_rng(seed)
        sigs = [tuple(rng.choice(6, 3, replace=False)) for _ in range(25)]
        root = build_trie(members_from(sigs), capacity=4)
        for s in sigs:
            node = navigate(root, s)
            assert node.is_leaf  # members always reach a leaf of their own trie


class TestNavigate:
    def test_stops_at_missing_child(self):
        root = build_trie(members_from([(1, 2)] * 6 + [(3, 4)] * 6), capacity=8)
        node = navigate(root, (9, 9))
        assert node is root

    def test_partial_descent(self):
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4
        root = build_trie(members_from(sigs), capacity=5)
        node = navigate(root, (1, 9, 9))
        assert node.prefix == (1,)

    def test_full_descent(self):
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4
        root = build_trie(members_from(sigs), capacity=5)
        node = navigate(root, (1, 2, 5))
        assert node.is_leaf and node.prefix[:2] == (1, 2)


class TestAnnotatePids:
    def test_leaf_and_internal_union(self):
        sigs = [(1, 2, 5)] * 4 + [(1, 3, 6)] * 4 + [(2, 9, 9)] * 2
        root = build_trie(members_from(sigs), capacity=5)
        leaf_pid = {n.prefix: i for i, n in enumerate(leaves(root))}
        annotate_pids(root, leaf_pid)
        assert root.pids == frozenset(leaf_pid.values())
        for n in iter_nodes(root):
            if n.is_leaf:
                assert n.pids == frozenset({leaf_pid[n.prefix]})
            else:
                child_union = frozenset().union(*(c.pids for c in n.children.values()))
                assert n.pids == child_union

    def test_depth_property(self):
        assert TrieNode(prefix=()).depth() == 0
        assert TrieNode(prefix=(4,)).depth() == 1
        assert TrieNode(prefix=(4, 6, 1)).depth() == 3
