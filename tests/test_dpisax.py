"""DPiSAX baseline tests (split-table partitioning of the iSAX space)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dpisax import _Split, build_split_table
from repro.baselines.isax import MAX_BITS, isax_symbols
from tests.conftest import K_SMALL, N_SMALL


def sample_syms(seed=0, n=400, w=8):
    x = np.random.default_rng(seed).standard_normal((n, w))
    return isax_symbols(x, MAX_BITS)


class TestSplitTable:
    def test_full_coverage_any_symbol_routes(self):
        table = build_split_table(sample_syms(), alpha=1.0, capacity=50)
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 256, size=(200, 8)).astype(np.uint16)
        for pid in table.pids(rows):
            assert 0 <= pid < table.n_partitions

    def test_partition_count_near_target(self):
        S = sample_syms(n=1000)
        table = build_split_table(S, alpha=1.0, capacity=100)
        assert table.n_partitions >= 1000 // 100
        assert table.n_partitions <= 6 * (1000 // 100)  # splits halve, not equalize

    def test_capacity_bound_on_sample(self):
        S = sample_syms(n=600)
        cap = 80
        table = build_split_table(S, alpha=1.0, capacity=cap)
        counts = np.bincount(table.pids(S), minlength=table.n_partitions)
        assert counts.max() <= cap

    def test_alpha_scales_estimates(self):
        S = sample_syms(n=100)
        # alpha=0.1 → each sample row represents 10 rows → more splits
        t_small = build_split_table(S, alpha=1.0, capacity=50)
        t_big = build_split_table(S, alpha=0.1, capacity=50)
        assert t_big.n_partitions > t_small.n_partitions

    def test_single_partition_when_under_capacity(self):
        S = sample_syms(n=20)
        table = build_split_table(S, alpha=1.0, capacity=100)
        assert table.n_partitions == 1

    def test_deterministic(self):
        S = sample_syms(3)
        a = build_split_table(S, alpha=1.0, capacity=40)
        b = build_split_table(S, alpha=1.0, capacity=40)
        for pa, pb in zip(a.pids(S[:50]), b.pids(S[:50])):
            assert pa == pb

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_route_is_function_of_symbols(self, seed):
        table = build_split_table(sample_syms(seed, n=200), alpha=1.0, capacity=30)
        row = np.random.default_rng(seed + 1).integers(0, 256, size=8).astype(np.uint16)
        assert table.pids(row[None, :])[0] == table.pids(row.copy()[None, :])[0]


def reference_pid(table, row):
    """Per-row bit walk: at each split, follow the tested bit of the row's symbol."""
    node = table.root
    while isinstance(node, _Split):
        node = node.one if (int(row[node.seg]) >> (MAX_BITS - 1 - node.bit)) & 1 else node.zero
    return node.pid


class TestBatchRouter:
    @pytest.mark.parametrize("seed,w,capacity", [(20, 4, 5), (21, 8, 3), (22, 16, 10)])
    def test_pids_equal_per_row_walk(self, seed, w, capacity):
        """`SplitTable.pids` over a batch equals the per-row bit walk, for
        sample rows and random words, on tables many splits deep."""
        S = sample_syms(seed, n=800, w=w)
        table = build_split_table(S, alpha=1.0, capacity=capacity)
        assert table.n_partitions >= 800 // capacity
        probe = np.vstack([S, np.random.default_rng(seed).integers(0, 256, size=(500, w)).astype(np.uint16)])
        assert table.pids(probe).tolist() == [reference_pid(table, row) for row in probe]


class TestSparkIndex:
    def test_all_rows_stored(self, dpisax_index):
        assert dpisax_index.n_series == N_SMALL
        assert sum(dpisax_index.pid_counts.values()) == N_SMALL

    def test_global_index_is_small(self, dpisax_index):
        assert 0 < dpisax_index.global_index_size_bytes() < 500_000

    def test_query_single_partition(self, spark, dpisax_index, queries):
        _, Q = queries
        res, stats = dpisax_index.knn_batch(spark, Q, K_SMALL)
        assert all(p == 1 for p in stats.partitions_touched.values())

    def test_self_query_found_when_routed_home(self, spark, dpisax_index, queries, ground_truth):
        """DPiSAX routes a dataset member to its own partition → rank-1 self."""
        qids, Q = queries
        res, _ = dpisax_index.knn_batch(spark, Q, K_SMALL)
        for i, qid in enumerate(qids):
            ids = [j for j, _ in res[i]]
            assert res[i], "empty result"
            assert ids[0] == qid and res[i][0][1] == pytest.approx(0.0, abs=1e-5)

    def test_recall_between_0_and_1(self, spark, dpisax_index, queries, ground_truth):
        from repro.harness.recall import recall_batch

        _, Q = queries
        res, _ = dpisax_index.knn_batch(spark, Q, K_SMALL)
        assert 0.0 <= recall_batch(res, ground_truth) <= 1.0
