"""TARDIS sigTree baseline tests."""
import numpy as np
import pytest

from repro.baselines.isax import MAX_BITS, isax_symbols
from repro.baselines.tardis import MAX_TREE_BITS, build_sigtree, _iter_leaves
from tests.conftest import K_SMALL, N_SMALL


def sample_syms(seed=0, n=500, w=8):
    x = np.random.default_rng(seed).standard_normal((n, w))
    return isax_symbols(x, MAX_BITS)


class TestSigTree:
    def test_leaves_have_pids(self):
        tree = build_sigtree(sample_syms(), alpha=1.0, capacity=60)
        pids = [leaf.pid for leaf in _iter_leaves(tree.root)]
        assert all(p >= 0 for p in pids)
        assert tree.n_partitions == max(pids) + 1

    def test_dfs_packing_contiguous(self):
        """Consecutive DFS leaves share partitions until capacity is hit —
        pid sequence along DFS order is non-decreasing."""
        tree = build_sigtree(sample_syms(1), alpha=1.0, capacity=60)
        pids = [leaf.pid for leaf in _iter_leaves(tree.root)]
        assert pids == sorted(pids)

    def test_sample_rows_route_to_valid_pid(self):
        S = sample_syms(2)
        tree = build_sigtree(S, alpha=1.0, capacity=60)
        for pid in tree.pids(S):
            assert 0 <= pid < tree.n_partitions

    def test_unseen_word_nearest_sibling(self):
        S = sample_syms(3, n=100)
        tree = build_sigtree(S, alpha=1.0, capacity=30)
        # an extreme word unlikely to be in the sample still routes somewhere
        weird = np.full(8, 255, dtype=np.uint16)
        assert 0 <= tree.pids(weird[None, :])[0] < tree.n_partitions

    def test_depth_bounded(self):
        tree = build_sigtree(sample_syms(4, n=2000), alpha=1.0, capacity=5)
        def max_bits(node):
            if node.is_leaf:
                return node.bits
            return max(max_bits(c) for c in node.children.values())
        assert max_bits(tree.root) <= MAX_TREE_BITS

    def test_counts_scaled_by_alpha(self):
        S = sample_syms(5, n=100)
        tree = build_sigtree(S, alpha=0.25, capacity=10_000)
        total = sum(leaf.count for leaf in _iter_leaves(tree.root))
        assert total == pytest.approx(400)

    def test_deterministic(self):
        S = sample_syms(6)
        a, b = build_sigtree(S, alpha=1.0, capacity=50), build_sigtree(S, alpha=1.0, capacity=50)
        for pa, pb in zip(a.pids(S[:50]), b.pids(S[:50])):
            assert pa == pb


def reference_pid(tree, row, fallbacks):
    """Per-row sigTree descent: the child keyed by the row's word, else the
    sibling nearest in L1, ties to the smaller word."""
    node = tree.root
    while not node.is_leaf:
        key = tuple(int(s) >> (MAX_BITS - node.bits - 1) for s in row)
        child = node.children.get(key)
        if child is None:
            fallbacks.append(key)
            child = min(node.children.values(),
                        key=lambda c: (sum(abs(a - b) for a, b in zip(c.word, key)), c.word))
        node = child
    return node.pid


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(c) for c in node.children.values())


class TestBatchRouter:
    @pytest.mark.parametrize("seed,w,alpha,capacity", [
        (10, 4, 1.0, 3), (11, 8, 0.25, 3), (12, 8, 1.0, 5), (13, 16, 0.25, 3), (14, 16, 0.5, 1),
    ])
    def test_pids_equal_per_row_descent(self, seed, w, alpha, capacity):
        """`SigTree.pids` over a batch equals a per-row dict-then-nearest-sibling
        descent, on trees at least two levels deep, for sample rows and
        random (mostly unseen) words."""
        S = sample_syms(seed, n=800, w=w)
        tree = build_sigtree(S, alpha=alpha, capacity=capacity)
        assert depth(tree.root) >= 2
        rng = np.random.default_rng(seed)
        probe = np.vstack([S, rng.integers(0, 256, size=(500, w)).astype(np.uint16)])
        fallbacks = []
        expected = [reference_pid(tree, row, fallbacks) for row in probe]
        assert fallbacks, "no probe word took the nearest-sibling path"
        assert tree.pids(probe).tolist() == expected


class TestSparkIndex:
    def test_all_rows_stored(self, tardis_index):
        assert tardis_index.n_series == N_SMALL
        assert sum(tardis_index.pid_counts.values()) == N_SMALL

    def test_query_single_partition(self, spark, tardis_index, queries):
        _, Q = queries
        res, stats = tardis_index.knn_batch(spark, Q, K_SMALL)
        assert all(p == 1 for p in stats.partitions_touched.values())

    def test_self_query_rank1(self, spark, tardis_index, queries):
        qids, Q = queries
        res, _ = tardis_index.knn_batch(spark, Q, K_SMALL)
        for i, qid in enumerate(qids):
            assert res[i] and res[i][0][0] == qid

    def test_recall_in_range(self, spark, tardis_index, queries, ground_truth):
        from repro.harness.recall import recall_batch

        _, Q = queries
        res, _ = tardis_index.knn_batch(spark, Q, K_SMALL)
        assert 0.0 <= recall_batch(res, ground_truth) <= 1.0

    def test_global_index_is_small(self, tardis_index):
        assert 0 < tardis_index.global_index_size_bytes() < 2_000_000
