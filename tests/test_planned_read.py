"""The kNN scan reads only the stored files of the planned pids that hold
rows, inside its tasks: one Spark job per call, the files packed into at
most ``defaultParallelism`` bins, every page's CRC verified, and the same
answers as Spark's own discovery read."""
import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

import repro
from repro.core import query
from repro.core.index import ClimberIndex
from repro.core.query import QueryPlan, _scan, knn_scan, read_files, scan_bins
from tests.conftest import K_SMALL, job_group

VARIANTS = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")


@pytest.fixture
def bins_seen(monkeypatch):
    """The file bins of every `knn_scan` call inside the test."""
    seen, bins = [], query.scan_bins

    def spy(*args, **kwargs):
        seen.append(bins(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(query, "scan_bins", spy)
    return seen


@pytest.fixture(scope="module")
def Q(small_matrix):
    rng = np.random.default_rng(23)
    rows = rng.choice(len(small_matrix), 8, replace=False)
    return small_matrix[rows] + 0.05 * rng.standard_normal((8, small_matrix.shape[1]))


def discovery_scan(spark, idx, plans, Q, k):
    """The oracle: the same operator over Spark's own parquet read, which
    discovers every ``pid=`` directory, infers the schema and filters by
    ``pid``."""
    pids = sorted({p for pl in plans.values() for p in pl.pids})
    rows = spark.read.parquet(idx.data_path).where(F.col("pid").isin(pids))
    return _scan(rows, plans, Q, k)


def climber_plans(idx, Q, variants):
    return {q: idx.plan(Q[q], K_SMALL, variant=v, qid=q)
            for q, v in zip(range(len(Q)), variants)}


def planned_pids(plans):
    return {p for pl in plans.values() for p in pl.pids}


def check_bins(spark, idx, plans, bins):
    """Every parquet file of every planned pid that holds rows is in exactly
    one bin, under its pid; no other file is; no bin is empty."""
    pids = planned_pids(plans)
    files = sorted((f, p) for p in pids
                   for f in glob.glob(os.path.join(idx.data_path, f"pid={p}", "*.parquet")))
    assert files, "the plans reach no stored row"
    assert sorted(f for b in bins for f in b) == files
    assert all(bins) and len(bins) == min(len(files), spark.sparkContext.defaultParallelism)


def test_bins_are_deterministic(spark, climber_index, Q):
    plans = climber_plans(climber_index, Q, VARIANTS * 2)
    pids, n = planned_pids(plans), spark.sparkContext.defaultParallelism
    bins = scan_bins(climber_index, pids, n)
    check_bins(spark, climber_index, plans, bins)
    assert scan_bins(climber_index, sorted(pids, reverse=True), n) == bins
    assert scan_bins(ClimberIndex.load(climber_index.out_dir), pids, n) == bins


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

    def test_more_files_than_tasks(self, spark, climber_index, Q, bins_seen):
        """A scan of every pid packs more files than task slots into one bin
        per slot: still one job, the same answers."""
        full = QueryPlan(pids=tuple(sorted(climber_index.pid_counts)))
        plans = dict.fromkeys(range(len(Q)), full)
        with job_group(spark, "every-pid") as jobs:
            got = knn_scan(spark, climber_index, plans, Q, K_SMALL)
            assert jobs() == 1
        (bins,) = bins_seen
        check_bins(spark, climber_index, plans, bins)
        assert sum(map(len, bins)) > len(bins) == spark.sparkContext.defaultParallelism
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)


class TestSameAnswersAsDiscovery:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_climber_variant(self, spark, climber_index, Q, variant, bins_seen):
        plans = climber_plans(climber_index, Q, [variant] * len(Q))
        got = knn_scan(spark, climber_index, plans, Q, K_SMALL)
        (bins,) = bins_seen
        check_bins(spark, climber_index, plans, bins)
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

    def test_loaded_index(self, spark, climber_index, Q, bins_seen, monkeypatch):
        """A ``load``ed index answers from its saved ``pid_counts``: one job,
        the planned files only, no pyarrow dataset listing."""
        loaded = ClimberIndex.load(climber_index.out_dir)
        monkeypatch.setattr("pyarrow.dataset.dataset", None)
        plans = climber_plans(loaded, Q, VARIANTS * 2)
        with job_group(spark, "loaded") as jobs:
            got = knn_scan(spark, loaded, plans, Q, K_SMALL)
            assert jobs() == 1
        check_bins(spark, loaded, plans, bins_seen[0])
        monkeypatch.undo()
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)
        assert got == knn_scan(spark, climber_index, plans, Q, K_SMALL)

    def test_unplanned_directories_deleted(self, spark, climber_index, Q, tmp_path):
        """A copy of the index holding only the planned ``pid=`` directories
        gives the same answers: nothing else is opened."""
        copy = ClimberIndex.load(shutil.copytree(climber_index.out_dir, tmp_path / "idx"))
        plans = climber_plans(copy, Q, VARIANTS * 2)
        keep = {f"pid={p}" for p in planned_pids(plans)}
        dropped = [d for d in os.listdir(copy.data_path) if d.startswith("pid=") and d not in keep]
        assert dropped
        for d in dropped:
            shutil.rmtree(os.path.join(copy.data_path, d))
        got = knn_scan(spark, copy, plans, Q, K_SMALL)
        assert got == knn_scan(spark, climber_index, plans, Q, K_SMALL)
        assert got == discovery_scan(spark, climber_index, plans, Q, K_SMALL)


def _series_page_byte(path: str) -> int:
    """The offset of a byte in the middle of the first row group's
    ``series`` values (its dictionary page when there is one)."""
    rg = pq.ParquetFile(path).metadata.row_group(0)
    col = next(rg.column(j) for j in range(rg.num_columns) if rg.column(j).path_in_schema == "series")
    if col.has_dictionary_page:
        return (col.dictionary_page_offset + col.data_page_offset) // 2
    return col.data_page_offset + col.total_compressed_size // 2


def test_corrupted_series_page_raises(spark, climber_index, Q, tmp_path):
    """One flipped byte inside a stored ``series`` page reads back silently
    without page-CRC verification, and makes the scan raise with it: the
    scan verifies, and the writer emits the CRCs."""
    copy = ClimberIndex.load(shutil.copytree(climber_index.out_dir, tmp_path / "idx"))
    plan = copy.plan(Q[0], K_SMALL, variant="od-smallest", qid=0)
    pid = next(p for p in plan.pids if copy.pid_counts.get(p))
    path = sorted(glob.glob(os.path.join(copy.data_path, f"pid={pid}", "*.parquet")))[0]
    before = pq.read_table(path, columns=["series"])
    raw = bytearray(Path(path).read_bytes())
    raw[_series_page_byte(path)] ^= 0xFF
    Path(path).write_bytes(bytes(raw))
    assert pq.read_table(path, columns=["series"]) != before  # read back, unverified
    with pytest.raises(Exception, match="(?i)crc|checksum"):
        list(read_files([(path, pid)], ["id", "series"]))
    with pytest.raises(Exception, match="(?i)crc|checksum"):
        copy.knn_batch(spark, Q[:1], K_SMALL, variant="od-smallest")


def test_worker_read_leaves_pyarrow_dataset_unloaded(climber_index):
    """A fresh interpreter that imports the query module and reads a stored
    file never loads ``pyarrow.dataset`` (+45 MB per Python worker)."""
    pid = min(climber_index.pid_counts)
    files = [(f, pid) for f in glob.glob(os.path.join(climber_index.data_path, f"pid={pid}", "*.parquet"))]
    script = (
        "import sys\n"
        "from repro.core.query import read_files\n"
        f"rows = sum(b.num_rows for b in read_files({files!r}, ['id', 'series', 'node']))\n"
        "print(rows, 'pyarrow.dataset' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == [str(climber_index.pid_counts[pid]), "False"]
