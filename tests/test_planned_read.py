"""The kNN scan reads only the planned ``pid=`` directories that hold rows,
under the index's stored schema: one Spark job per call, no partition
discovery, no schema inference, and the same answers as a discovery read."""
import os

import numpy as np
import pytest
from pyspark.sql import DataFrameReader
from pyspark.sql import functions as F

from repro.core.index import ClimberIndex
from repro.core.query import QueryPlan, _scan, knn_scan
from tests.conftest import K_SMALL, job_group

VARIANTS = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")


@pytest.fixture
def read_paths(monkeypatch):
    """Every path handed to ``DataFrameReader.parquet`` inside the test."""
    seen, parquet = [], DataFrameReader.parquet

    def spy(self, *paths, **kwargs):
        seen.extend(paths)
        return parquet(self, *paths, **kwargs)

    monkeypatch.setattr(DataFrameReader, "parquet", spy)
    return seen


@pytest.fixture(scope="module")
def Q(small_matrix):
    rng = np.random.default_rng(23)
    rows = rng.choice(len(small_matrix), 8, replace=False)
    return small_matrix[rows] + 0.05 * rng.standard_normal((8, small_matrix.shape[1]))


def discovery_scan(spark, idx, plans, Q, k):
    """The oracle: the same operator over a read that discovers every ``pid=``
    directory, infers the schema and filters by ``pid``."""
    pids = sorted({p for pl in plans.values() for p in pl.pids})
    rows = spark.read.parquet(idx.data_path).where(F.col("pid").isin(pids))
    return _scan(rows, plans, Q, k)


def climber_plans(idx, Q, variants):
    return {q: idx.plan(Q[q], K_SMALL, variant=v, qid=q)
            for q, v in zip(range(len(Q)), variants)}


def planned_dirs(idx, plans):
    pids = {p for pl in plans.values() for p in pl.pids}
    return sorted(os.path.join(idx.data_path, f"pid={p}") for p in pids if p in idx.pid_counts)


class TestOneJobPerCall:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_climber_variant(self, spark, climber_index, Q, variant):
        with job_group(spark, f"climber-{variant}") as jobs:
            res, _ = climber_index.knn_batch(spark, Q, K_SMALL, variant=variant)
            assert jobs() == 1
        assert set(res) == set(range(len(Q)))

    @pytest.mark.parametrize("name", ["tardis_index", "dpisax_index"])
    def test_baseline(self, spark, request, Q, name):
        idx = request.getfixturevalue(name)
        with job_group(spark, name) as jobs:
            idx.knn_batch(spark, Q, K_SMALL)
            assert jobs() == 1

    def test_more_directories_than_listing_threshold(self, spark, climber_index, Q, read_paths):
        """Past Spark's parallel-listing threshold the directories are read
        in several reads, so listing still starts no job; same answers."""
        assert len(climber_index.pid_counts) > 2
        full = QueryPlan(pids=tuple(sorted(climber_index.pid_counts)))
        plans = dict.fromkeys(range(len(Q)), full)
        key = "spark.sql.sources.parallelPartitionDiscovery.threshold"
        saved = spark.conf.get(key)
        spark.conf.set(key, "2")
        try:
            with job_group(spark, "threshold") as jobs:
                got = knn_scan(spark, climber_index, plans, Q, K_SMALL)
                assert jobs() == 1
        finally:
            spark.conf.set(key, saved)
        assert sorted(read_paths) == planned_dirs(climber_index, plans)
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)


class TestSameAnswersAsDiscovery:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_climber_variant(self, spark, climber_index, Q, variant, read_paths):
        plans = climber_plans(climber_index, Q, [variant] * len(Q))
        got = knn_scan(spark, climber_index, plans, Q, K_SMALL)
        assert sorted(read_paths) == planned_dirs(climber_index, plans)
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)

    def test_mixed_variant_batch(self, spark, climber_index, Q):
        plans = climber_plans(climber_index, Q, VARIANTS * 2)
        assert not all(pl.expand_full for pl in plans.values())  # a node filter is kept
        got = knn_scan(spark, climber_index, plans, Q, K_SMALL)
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)

    @pytest.mark.parametrize("name", ["tardis_index", "dpisax_index"])
    def test_baseline(self, spark, request, Q, name):
        idx = request.getfixturevalue(name)
        plans = idx.plans(Q)
        got = knn_scan(spark, idx, plans, Q, K_SMALL)
        assert got == discovery_scan(spark, idx, plans, Q, K_SMALL)

    def test_loaded_index(self, spark, climber_index, Q, read_paths, monkeypatch):
        """A ``load``ed index answers from its saved ``pid_counts``: one job,
        the planned directories only, nothing listed on the driver."""
        loaded = ClimberIndex.load(climber_index.out_dir)
        monkeypatch.setattr("pyarrow.dataset.dataset", None)  # no pyarrow listing
        plans = climber_plans(loaded, Q, VARIANTS * 2)
        with job_group(spark, "loaded") as jobs:
            got = knn_scan(spark, loaded, plans, Q, K_SMALL)
            assert jobs() == 1
        assert sorted(read_paths) == planned_dirs(loaded, plans)
        monkeypatch.undo()
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)
        assert got == knn_scan(spark, climber_index, plans, Q, K_SMALL)
