"""Index-skeleton tests (paper Fig. 5/6 Steps 2-3)."""
import numpy as np
import pytest

from repro.core.assignment import FALLBACK_GID
from repro.core.skeleton import Skeleton, build_skeleton
from repro.core.trie import iter_nodes, leaves


@pytest.fixture()
def toy_skeleton():
    rng = np.random.default_rng(0)
    pivots = rng.normal(size=(10, 4))
    sigs = [tuple(rng.choice(10, 3, replace=False)) for _ in range(40)]
    rs_freqs = [(s, 3) for s in sigs]
    sk = build_skeleton(
        rs_freqs, pivots, w=4, m=3, capacity=30, alpha=0.5, eps=2, max_centroids=6
    )
    return sk, rs_freqs


class TestBuild:
    def test_fallback_group_exists(self, toy_skeleton):
        sk, _ = toy_skeleton
        assert FALLBACK_GID in sk.groups
        assert sk.groups[FALLBACK_GID].centroid == ()

    def test_group_ids_contiguous(self, toy_skeleton):
        sk, _ = toy_skeleton
        gids = sorted(sk.groups)
        assert gids == list(range(len(gids)))

    def test_every_group_has_partitions(self, toy_skeleton):
        sk, _ = toy_skeleton
        for g in sk.groups.values():
            assert g.trie.pids  # annotate_pids ran
            assert g.default_pid in g.trie.pids

    def test_partition_ids_globally_unique(self, toy_skeleton):
        sk, _ = toy_skeleton
        all_pids = []
        for g in sk.groups.values():
            for leaf in leaves(g.trie):
                all_pids.extend(leaf.pids)
        # leaves may share pids (packing) within a group, never across groups
        per_group = [set(g.trie.pids) for g in sk.groups.values()]
        for i, a in enumerate(per_group):
            for b in per_group[i + 1 :]:
                assert not (a & b)
        assert max(max(p) for p in per_group) == sk.n_partitions - 1

    def test_estimated_counts_scaled_by_alpha(self, toy_skeleton):
        sk, rs_freqs = toy_skeleton
        total_est = sum(g.trie.count for g in sk.groups.values())
        sample_total = sum(f for _, f in rs_freqs)
        assert total_est == pytest.approx(sample_total / 0.5)

    def test_node_ordinals_global_in_gid_order(self, toy_skeleton):
        """Each group's trie is one ordinal range; together they tile
        [0, n) in gid order, so an ordinal alone names a node."""
        sk, _ = toy_skeleton
        ranges = [(sk.groups[g].trie.ord, sk.groups[g].trie.end) for g in sorted(sk.groups)]
        assert ranges[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        ords = [n.ord for g in sk.groups.values() for n in iter_nodes(g.trie)]
        assert sorted(ords) == list(range(ranges[-1][1]))

    def test_equal_leaves_packed_in_decimal_string_order(self):
        """Leaves of equal size enter FFD with pivot ids compared as decimal
        strings, (12,) before (2,), so (12,) joins (3,)'s partition."""
        pivots = np.random.default_rng(0).normal(size=(13, 3))
        sk = build_skeleton([((2, 5), 4), ((12, 5), 4), ((3, 5), 6)], pivots, w=3, m=2,
                            capacity=10, alpha=1.0, eps=1, max_centroids=1)
        pids = {leaf.prefix: leaf.pids for leaf in leaves(sk.groups[1].trie)}
        assert pids[(12,)] == pids[(3,)] != pids[(2,)]

    def test_empty_sample(self):
        sk = build_skeleton([], np.zeros((4, 2)), w=2, m=2, capacity=5, alpha=1.0)
        assert FALLBACK_GID in sk.groups and sk.n_partitions >= 1


def _structure(sk):
    """Everything a build fixes: centroids, default pids and per-leaf state."""
    return {
        gid: (
            g.centroid,
            g.default_pid,
            [(leaf.prefix, leaf.ord, leaf.end, leaf.count, sorted(leaf.pids))
             for leaf in leaves(g.trie)],
        )
        for gid, g in sk.groups.items()
    }


class TestInputOrder:
    def test_shuffled_input_gives_identical_skeleton(self):
        """The [(P⁴→, freq)] list arrives in aggregation order; it must not matter."""
        rng = np.random.default_rng(3)
        pivots = rng.normal(size=(12, 4))
        sigs = {tuple(int(p) for p in rng.choice(12, 4, replace=False)) for _ in range(400)}
        rs_freqs = [(s, int(f)) for s, f in zip(sorted(sigs), rng.integers(1, 6, len(sigs)))]
        kw = dict(w=4, m=4, capacity=40, alpha=0.5, eps=2, max_centroids=8, seed=1)
        ref = build_skeleton(rs_freqs, pivots, **kw)
        for perm_seed in range(3):
            order = np.random.default_rng(perm_seed).permutation(len(rs_freqs))
            sk = build_skeleton([rs_freqs[i] for i in order], pivots, **kw)
            assert sk.n_partitions == ref.n_partitions
            assert _structure(sk) == _structure(ref)


class TestAssignRecords:
    def test_leaf_landing_gets_leaf_pid(self, toy_skeleton):
        sk, rs_freqs = toy_skeleton
        sigs = np.array([rs_freqs[0][0]])
        gid, pid, nodes = sk.assign_records(sigs, np.array([0]))
        g = sk.groups[int(gid[0])]
        from repro.core.trie import navigate

        node = navigate(g.trie, sigs[0])
        if node.is_leaf:
            assert pid[0] in node.pids
        else:
            assert pid[0] == g.default_pid

    def test_unseen_signature_goes_to_default_or_fallback(self, toy_skeleton):
        sk, _ = toy_skeleton
        # a signature made of the three highest pivot ids, likely unseen paths
        sigs = np.array([[9, 8, 7]])
        gid, pid, nodes = sk.assign_records(sigs, np.array([1]))
        assert 0 <= pid[0] < sk.n_partitions

    def test_batch_matches_rowwise(self, toy_skeleton):
        sk, rs_freqs = toy_skeleton
        sigs = np.array([s for s, _ in rs_freqs[:10]])
        ids = np.arange(10)
        g_all, p_all, n_all = sk.assign_records(sigs, ids)
        for i in range(10):
            g1, p1, n1 = sk.assign_records(sigs[i : i + 1], ids[i : i + 1])
            assert g1[0] == g_all[i] and p1[0] == p_all[i] and n1[0] == n_all[i]


class TestSerialization:
    def test_round_trip(self, toy_skeleton):
        sk, rs_freqs = toy_skeleton
        sk2 = Skeleton.deserialize(sk.serialize())
        assert sk2.m == sk.m and sk2.w == sk.w
        np.testing.assert_array_equal(sk2.pivots, sk.pivots)
        assert sorted(sk2.groups) == sorted(sk.groups)
        np.testing.assert_array_equal(sk2.mask, sk.mask)
        np.testing.assert_allclose(sk2.weights, sk.weights)
        # Behavioral equality: same assignments
        sigs = np.array([s for s, _ in rs_freqs[:15]])
        ids = np.arange(15)
        a = sk.assign_records(sigs, ids)
        b = sk2.assign_records(sigs, ids)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_size_is_small(self, toy_skeleton):
        sk, _ = toy_skeleton
        assert sk.size_bytes() < 200_000  # "tiny global index" (paper Fig. 8b)


class TestRefineCounts:
    def test_exact_counts_propagate(self, toy_skeleton):
        sk, _ = toy_skeleton
        g = max(sk.groups, key=lambda gid: sk.groups[gid].trie.count)
        sk.refine_counts(np.repeat([leaf.ord for leaf in leaves(sk.groups[g].trie)], 5))
        assert sk.groups[g].trie.count == 5 * len(leaves(sk.groups[g].trie))
        for other in sk.groups:
            if other != g:
                assert sk.groups[other].trie.count == 0

    def test_internal_landing_counts_included(self):
        rng = np.random.default_rng(1)
        pivots = rng.normal(size=(6, 3))
        sigs = [(0, 1, 2)] * 5 + [(0, 2, 3)] * 5
        sk = build_skeleton([(s, 1) for s in sigs], pivots, w=3, m=3,
                            capacity=4, alpha=1.0, eps=1)
        gid = next(g for g in sk.groups if g != FALLBACK_GID
                   and not sk.groups[g].trie.is_leaf)
        trie = sk.groups[gid].trie
        sk.refine_counts(np.full(7, trie.children[0].ord))
        assert trie.count == trie.children[0].count == 7
        # A landing on the internal root counts at the root only.
        sk.refine_counts(np.full(3, trie.ord))
        assert trie.count == 3 and trie.children[0].count == 0
