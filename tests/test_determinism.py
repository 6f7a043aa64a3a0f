"""kNN answers are exact over their rows and do not depend on how the work
is split: Spark partitioning, query batching or the engine that runs them."""
import numpy as np
import pyarrow as pa

from repro.baselines.dss import dss_knn
from repro.core.query import QueryPlan, knn_scan
from repro.memsys.odyssey import OdysseyEngine
from tests.conftest import K_SMALL


def direct_ed(row, q):
    diff = row[None, :] - q
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff))[0])


class TestExactPathsAgree:
    def test_full_knn_scan_equals_dss_and_odyssey(self, spark, small_df, climber_index,
                                                  small_matrix, queries):
        _, Q = queries
        full = QueryPlan(pids=tuple(sorted(climber_index.pid_counts)))
        scan = knn_scan(spark, climber_index, dict.fromkeys(range(len(Q)), full), Q, K_SMALL)
        dss = dss_knn(small_df, Q, K_SMALL)
        eng = OdysseyEngine()
        eng.build(small_matrix, np.arange(len(small_matrix)))
        assert scan == dss
        assert eng.knn_batch(Q, K_SMALL) == dss
        for qi, answer in dss.items():
            assert len(answer) == K_SMALL
            for nid, d in answer:
                assert d == direct_ed(small_matrix[nid], Q[qi])


class TestSplitInvariance:
    def test_dss_same_answer_for_any_partitioning(self, spark, small_matrix):
        # Every series appears twice (ids i and 1000 + i), so each query's
        # neighbours come in exact ties and K = 9 cuts through a tied pair.
        X = np.concatenate([small_matrix[:300], small_matrix[:300]])
        ids = np.concatenate([np.arange(300), np.arange(1000, 1300)])
        flat = pa.array(X.ravel())
        offsets = pa.array(np.arange(0, X.size + 1, X.shape[1], dtype=np.int32))
        df = spark.createDataFrame(pa.table({
            "id": pa.array(ids, type=pa.int64()),
            "series": pa.ListArray.from_arrays(offsets, flat),
        }))
        Q = small_matrix[[3, 150, 299]] + 0.01
        answers = [dss_knn(df.repartition(n), Q, 9) for n in (3, 7)]
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for n in (4, 32):
                spark.conf.set("spark.sql.shuffle.partitions", str(n))
                answers.append(dss_knn(df.repartition("id"), Q, 9))
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)
        assert all(a == answers[0] for a in answers[1:])
        for answer in answers[0].values():
            ids_out = [i for i, _ in answer]
            # Tied pairs are adjacent, smaller id first; the 5th pair is cut.
            assert ids_out[0:8:2] == [i - 1000 for i in ids_out[1:8:2]]
            assert ids_out[8] < 1000

    def test_knn_scan_batch_split_invariant(self, spark, climber_index, small_matrix):
        Q = small_matrix[np.random.default_rng(5).choice(len(small_matrix), 10, replace=False)]
        plans = {q: climber_index.plan(Q[q], K_SMALL, variant=v, qid=q)
                 for q, v in zip(range(10), ["knn", "adaptive-2x", "od-smallest", "adaptive-4x"] * 3)}
        whole = knn_scan(spark, climber_index, plans, Q, K_SMALL)
        first = knn_scan(spark, climber_index, {q: plans[q] for q in range(5)},
                         Q[:5], K_SMALL)
        second = knn_scan(spark, climber_index, {q - 5: plans[q] for q in range(5, 10)},
                          Q[5:], K_SMALL)
        assert all(len(whole[q]) > 0 for q in range(10))
        assert whole == {**first, **{q + 5: a for q, a in second.items()}}
