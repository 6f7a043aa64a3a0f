"""Edge inputs: a non-finite reading is a clear error on every path; an
all-constant series is an ordinary series."""
import numpy as np
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.baselines.dss import dss_knn
from repro.core.index import build_index
from repro.core.query import QueryPlan, knn_scan, route
from tests.conftest import K_SMALL, LEN_SMALL, SMALL_PARAMS

VARIANTS = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")


def with_series(df, sid, series):
    return df.withColumn("series", F.when(F.col("id") == sid, series).otherwise(F.col("series")))


def one_reading(value):
    """Reading 3 of the series replaced by ``value``."""
    return F.transform("series", lambda x, i: F.when(i == 3, F.lit(value)).otherwise(x))


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_build_rejects_series(self, spark, small_df, tmp_path, value):
        df = with_series(small_df, 5, one_reading(value))
        with pytest.raises(PythonException, match="non-finite readings"):
            build_index(spark, df, str(tmp_path / "idx"), SMALL_PARAMS)

    def test_dss_rejects_series(self, small_df, queries):
        _, Q = queries
        df = with_series(small_df, 5, one_reading(float("nan")))
        with pytest.raises(PythonException, match="non-finite readings"):
            dss_knn(df, Q, K_SMALL)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_query_rejected_on_every_path(self, spark, small_df, climber_index, tardis_index,
                                          queries, value):
        _, Q = queries
        bad = Q.copy()
        bad[2, 7] = value
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=r"non-finite query readings in query rows \[2\]"):
                climber_index.knn_batch(spark, bad, K_SMALL, variant=variant)
        with pytest.raises(ValueError, match="non-finite query"):
            tardis_index.knn_batch(spark, bad, K_SMALL)
        with pytest.raises(ValueError, match="non-finite query"):
            dss_knn(small_df, bad, K_SMALL)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_query_rejected_when_planning(self, climber_index, tardis_index, dpisax_index,
                                          queries, value):
        """Routing alone rejects it too, with the same message as the scan."""
        _, Q = queries
        bad = Q.copy()
        bad[2, 7] = value
        msg = r"non-finite query readings in query rows \[0\]"
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=msg):
                climber_index.plan(bad[2], K_SMALL, variant=variant)
        with pytest.raises(ValueError, match=msg):
            route(climber_index.skeleton, bad[2], K_SMALL, "knn", [0])
        for idx in (tardis_index, dpisax_index):
            with pytest.raises(ValueError, match=r"non-finite query readings in query rows \[2\]"):
                idx.plans(bad)


class TestConstantSeries:
    def test_builds_and_answers(self, spark, small_df, tmp_path):
        df = with_series(small_df, 5, F.array_repeat(F.lit(0.5), LEN_SMALL)).cache()
        idx = build_index(spark, df, str(tmp_path / "idx"), SMALL_PARAMS)
        assert idx.n_series == small_df.count()
        q = np.full((1, LEN_SMALL), 0.5)
        truth = dss_knn(df, q, K_SMALL)
        assert truth[0][0] == (5, 0.0)
        for variant in VARIANTS:
            res, _ = idx.knn_batch(spark, q, K_SMALL, variant=variant)
            assert len(res[0]) == K_SMALL
            assert all(np.isfinite(d) for _, d in res[0])
        full = QueryPlan(pids=tuple(sorted(idx.pid_counts)))
        assert knn_scan(spark, idx, {0: full}, q, K_SMALL) == truth
        df.unpersist()
