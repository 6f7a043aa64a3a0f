"""CLIMBER query-processing tests (paper §VI, Algorithm 3 + variants)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.query import QueryPlan, knn_scan
from repro.oracle import assert_equivalent
from tests.conftest import K_SMALL, decode_series


class TestRouting:
    def test_plan_deterministic(self, climber_index, queries):
        _, Q = queries
        for variant in ("knn", "adaptive-2x", "adaptive-4x", "od-smallest"):
            a = climber_index.plan(Q[0], K_SMALL, variant=variant, qid=0)
            b = climber_index.plan(Q[0], K_SMALL, variant=variant, qid=0)
            assert a.pids == b.pids and a.prefixes == b.prefixes

    def test_knn_targets_single_node(self, climber_index, queries):
        _, Q = queries
        for qid, q in enumerate(Q):
            plan = climber_index.plan(q, K_SMALL, variant="knn", qid=qid)
            ((lo, hi),) = plan.prefixes
            assert lo < hi
            assert plan.n_partitions >= 1

    def test_adaptive_supersets_base(self, climber_index, queries):
        _, Q = queries
        for qid, q in enumerate(Q):
            base = climber_index.plan(q, K_SMALL, variant="knn", qid=qid)
            a2 = climber_index.plan(q, K_SMALL, variant="adaptive-2x", qid=qid)
            a4 = climber_index.plan(q, K_SMALL, variant="adaptive-4x", qid=qid)
            assert set(base.pids) <= set(a2.pids) <= set(a4.pids)

    def test_adaptive_respects_partition_cap(self, climber_index, queries):
        _, Q = queries
        for qid, q in enumerate(Q):
            base = climber_index.plan(q, K_SMALL, variant="knn", qid=qid)
            for factor, variant in ((2, "adaptive-2x"), (4, "adaptive-4x")):
                plan = climber_index.plan(q, K_SMALL, variant=variant, qid=qid)
                assert plan.n_partitions <= max(base.n_partitions, factor * base.n_partitions)

    def test_od_smallest_covers_whole_groups(self, climber_index, queries):
        _, Q = queries
        sk = climber_index.skeleton
        for qid, q in enumerate(Q):
            plan = climber_index.plan(q, K_SMALL, variant="od-smallest", qid=qid)
            assert plan.expand_full
            covered = set(plan.pids)
            # plan pids must be the union of complete group partition sets
            for g in sk.groups.values():
                inter = covered & set(g.trie.pids)
                assert inter in (set(), set(g.trie.pids))

    def test_unknown_variant_raises(self, climber_index, queries):
        _, Q = queries
        with pytest.raises(ValueError):
            climber_index.plan(Q[0], K_SMALL, variant="bogus")

    def test_pids_exist_in_index(self, climber_index, queries):
        _, Q = queries
        for variant in ("knn", "adaptive-4x", "od-smallest"):
            for qid, q in enumerate(Q):
                plan = climber_index.plan(q, K_SMALL, variant=variant, qid=qid)
                assert set(plan.pids) <= set(range(climber_index.skeleton.n_partitions))


class TestResults:
    def test_self_query_rank1(self, spark, climber_index, queries, small_pdf):
        qids, Q = queries
        res, _ = climber_index.knn_batch(spark, Q, K_SMALL, variant="adaptive-4x")
        for i, qid in enumerate(qids):
            top_id, top_dist = res[i][0]
            assert top_id == qid
            assert top_dist == pytest.approx(0.0, abs=1e-5)

    def test_results_sorted_and_sized(self, spark, climber_index, queries):
        _, Q = queries
        for variant in ("knn", "adaptive-2x", "adaptive-4x", "od-smallest"):
            res, _ = climber_index.knn_batch(spark, Q, K_SMALL, variant=variant)
            for out in res.values():
                assert len(out) == K_SMALL
                d = [dist for _, dist in out]
                assert d == sorted(d)
                assert len({i for i, _ in out}) == K_SMALL  # unique ids

    def test_distances_match_bruteforce(self, spark, climber_index, queries, small_matrix):
        """Every reported distance equals the true ED to that series."""
        _, Q = queries
        res, _ = climber_index.knn_batch(spark, Q, K_SMALL, variant="adaptive-4x")
        for qi, out in res.items():
            for sid, dist in out:
                true = float(np.linalg.norm(small_matrix[sid] - Q[qi]))
                assert dist == pytest.approx(true, abs=1e-6)

    def test_recall_monotone_in_variants(self, spark, climber_index, queries, ground_truth):
        """Candidate supersets can only improve recall (see DESIGN.md §6)."""
        from repro.harness.recall import recall_batch

        _, Q = queries
        recalls = {}
        for variant in ("knn", "adaptive-2x", "adaptive-4x"):
            res, _ = climber_index.knn_batch(spark, Q, K_SMALL, variant=variant)
            recalls[variant] = recall_batch(res, ground_truth)
        assert recalls["knn"] <= recalls["adaptive-2x"] + 1e-9
        assert recalls["adaptive-2x"] <= recalls["adaptive-4x"] + 1e-9

    def test_stats_partitions_match_plans(self, spark, climber_index, queries):
        _, Q = queries
        res, stats = climber_index.knn_batch(spark, Q, K_SMALL, variant="adaptive-4x")
        for qid in range(len(Q)):
            plan = climber_index.plan(Q[qid], K_SMALL, variant="adaptive-4x", qid=qid)
            assert stats.partitions_touched[qid] == plan.n_partitions
            assert stats.rows_scanned[qid] == sum(
                climber_index.pid_counts.get(p, 0) for p in plan.pids
            )

    def test_oracle_topk_on_scanned_partitions(self, spark, climber_index, queries):
        """DuckDB oracle: the scan's top-K over the planned partitions equals
        SQL ED-top-K over the same rows (long-format sum of squares)."""
        _, Q = queries
        qid = 0
        plan = climber_index.plan(Q[qid], K_SMALL, variant="od-smallest", qid=qid)
        res = knn_scan(spark, climber_index, {qid: plan}, Q, K_SMALL)
        stored = spark.read.parquet(climber_index.data_path)
        rows = (
            stored.where(stored.pid.isin(list(plan.pids)))
            .select("id", "series")
            .toPandas()
        )
        long = pd.DataFrame(
            [
                (int(i), j, float(v))
                for i, x in zip(rows["id"], decode_series(rows["series"]))
                for j, v in enumerate(x)
            ],
            columns=["id", "idx", "val"],
        )
        qlong = pd.DataFrame(
            [(j, float(v)) for j, v in enumerate(Q[qid])], columns=["idx", "qval"]
        )
        got = spark.createDataFrame(
            pd.DataFrame(res[qid], columns=["id", "dist"]).astype({"id": "int64"})
        )
        assert_equivalent(
            got,
            f"""
            SELECT l.id AS id, sqrt(sum((l.val - q.qval) * (l.val - q.qval))) AS dist
            FROM long l JOIN qlong q ON l.idx = q.idx
            GROUP BY l.id ORDER BY dist, id LIMIT {K_SMALL}
            """,
            long=long, qlong=qlong,
        )


class TestScanOperator:
    def test_empty_plan(self, spark, climber_index, queries):
        _, Q = queries
        res = knn_scan(spark, climber_index,
                       {0: QueryPlan(pids=())}, Q, 5)
        assert res == {0: []}

    def test_prefix_filter_restricts_candidates(self, spark, climber_index, queries):
        _, Q = queries
        sk = climber_index.skeleton
        # find a group whose trie actually splits
        target = None
        for g in sk.groups.values():
            if not g.trie.is_leaf:
                pivot, child = sorted(g.trie.children.items())[0]
                target = (g, child)
                break
        if target is None:
            pytest.skip("no split trie in the small index")
        g, child = target
        narrow = QueryPlan(pids=tuple(sorted(child.pids)), prefixes=((child.ord, child.end),),
                           expand_full=False)
        wide = QueryPlan(pids=tuple(sorted(child.pids)))
        rn = knn_scan(spark, climber_index, {0: narrow}, Q, 200)
        rw = knn_scan(spark, climber_index, {0: wide}, Q, 200)
        assert len(rn[0]) <= len(rw[0])
        assert {i for i, _ in rn[0]} <= {i for i, _ in rw[0]}

    def test_baselines_store_no_node_column(self, spark, tardis_index, dpisax_index):
        """The scan reads ``node`` only for node-filtered plans, which the
        baselines never make, so they do not store it."""
        for idx in (tardis_index, dpisax_index):
            assert sorted(spark.read.parquet(idx.data_path).columns) == ["id", "pid", "series"]

    def test_multiple_queries_one_job(self, spark, climber_index, queries):
        _, Q = queries
        plans = {
            qid: climber_index.plan(Q[qid], K_SMALL, variant="knn", qid=qid)
            for qid in range(len(Q))
        }
        res = knn_scan(spark, climber_index, plans, Q, K_SMALL)
        assert set(res) == set(range(len(Q)))
