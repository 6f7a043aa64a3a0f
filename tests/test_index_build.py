"""CLIMBER-INX end-to-end build tests on Spark (paper Fig. 6)."""
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as ds
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

import repro
from repro.core.assignment import FALLBACK_GID
from repro.baselines.dpisax import build_dpisax
from repro.baselines.tardis import build_tardis
from repro.core.index import ClimberIndex, ClimberParams, build_index, occupancy, stored_columns
from repro.core.paa import map_series, series_matrix
from repro.core.query import QueryPlan, knn_scan, route
from repro.core.trie import iter_nodes
from repro.oracle import assert_equivalent
from tests.conftest import (
    BASELINE_KW, K_SMALL, LEN_SMALL, N_SMALL, SMALL_PARAMS, decode_series, job_group)


class TestBuildOutputs:
    def test_no_rows_lost(self, climber_index):
        """Def. 12 full coverage at dataset scale: every series lands somewhere."""
        assert climber_index.n_series == N_SMALL
        assert sum(climber_index.pid_counts.values()) == N_SMALL

    def test_partition_dirs_on_disk(self, climber_index):
        dirs = {
            int(d.split("=")[1])
            for d in os.listdir(climber_index.data_path)
            if d.startswith("pid=")
        }
        assert dirs == set(climber_index.pid_counts)

    def test_pids_within_skeleton_range(self, climber_index):
        assert all(0 <= p < climber_index.skeleton.n_partitions for p in climber_index.pid_counts)

    def test_capacity_soft_constraint(self, climber_index):
        # c is soft (paper §V): allow 3x overshoot but not unbounded blowup.
        assert max(climber_index.pid_counts.values()) <= 3 * SMALL_PARAMS.capacity

    def test_build_report_phases_positive(self, climber_index):
        r = climber_index.report
        assert r.sample_s > 0 and r.skeleton_s >= 0 and r.redistribute_s > 0
        assert r.total_s == pytest.approx(r.sample_s + r.skeleton_s + r.redistribute_s + r.stats_s)

    def test_global_index_small(self, climber_index):
        assert 0 < climber_index.global_index_size_bytes() < 1_000_000

    def test_refined_counts_match_data(self, spark, climber_index):
        total = sum(g.trie.count for g in climber_index.skeleton.groups.values())
        assert total == pytest.approx(N_SMALL)


def _stored_signatures(spark, idx, limit=None):
    """Stored rows ordered by id, with P⁴ signatures recomputed from ``series``."""
    df = spark.read.parquet(idx.data_path).orderBy("id")
    pdf = (df.limit(limit) if limit else df).toPandas()
    sig_rs, sig_ri = idx.skeleton.signatures(decode_series(pdf["series"]))
    return pdf, sig_rs, sig_ri


class TestDataLayout:
    def test_stored_columns(self, spark, climber_index):
        """Only what the scan and the stats need: no paa / sig_rs / sig_ri."""
        df = spark.read.parquet(climber_index.data_path)
        assert set(df.columns) == {"id", "series", "gid", "node", "pid"}

    def test_ids_unique_and_complete(self, spark, climber_index):
        ids = spark.read.parquet(climber_index.data_path).select("id").toPandas()["id"]
        assert sorted(ids) == list(range(N_SMALL))

    def test_assignment_reproducible(self, spark, climber_index):
        """Re-running the skeleton's assignment on stored series matches stored pids."""
        pdf, sig_rs, _ = _stored_signatures(spark, climber_index, limit=200)
        gid, pid, _ = climber_index.skeleton.assign_records(sig_rs, pdf["id"].to_numpy())
        np.testing.assert_array_equal(gid, pdf["gid"].to_numpy())
        np.testing.assert_array_equal(pid, pdf["pid"].to_numpy())

    @pytest.mark.parametrize("name", ["climber_index", "tardis_index", "dpisax_index"])
    def test_stored_series_decode_to_input(self, request, name, small_matrix):
        """Every index stores ``series`` as one ``binary`` value per row that
        decodes bit for bit to the input's readings."""
        idx = request.getfixturevalue(name)
        t = pq.read_table(idx.data_path, columns=["id", "series"]).sort_by("id")
        assert t.schema.field("series").type == pa.binary()
        np.testing.assert_array_equal(t.column("id").to_numpy(), np.arange(N_SMALL))
        X = series_matrix(t.column("series").combine_chunks())
        np.testing.assert_array_equal(X.view(np.uint64), small_matrix.view(np.uint64))

    def test_node_is_a_sorted_long_ordinal(self, climber_index):
        """``node`` is stored as int64 and sorted within every partition file,
        so each subtree's rows are contiguous (paper §V Step 4 layout)."""
        files = glob.glob(os.path.join(climber_index.data_path, "pid=*", "*.parquet"))
        assert files
        for f in files:
            node = pq.read_table(f, columns=["node"]).column("node")
            assert node.type == pa.int64()
            assert (np.diff(node.to_numpy()) >= 0).all()

    def test_range_rule_is_the_prefix_rule(self, climber_index):
        """For every trie node, the rows with ``ord ≤ node < end`` are exactly
        the rows whose landing node's pivot prefix extends the node's prefix,
        within the node's group."""
        sk = climber_index.skeleton
        at = {n.ord: (gid, n) for gid, g in sk.groups.items() for n in iter_nodes(g.trie)}
        ids, gid, node = stored_columns(climber_index.data_path, "id", "gid", "node")
        assert [at[o][0] for o in node.tolist()] == gid.tolist()
        landing = [at[o][1].prefix for o in node.tolist()]
        widened = 0
        for g, n in at.values():
            by_range = ids[(n.ord <= node) & (node < n.end)]
            by_prefix = ids[[lg == g and p[:len(n.prefix)] == n.prefix
                             for lg, p in zip(gid.tolist(), landing)]]
            np.testing.assert_array_equal(np.sort(by_range), np.sort(by_prefix))
            widened += len(by_range) > (node == n.ord).sum()
        assert widened  # some subtree holds rows below its root

    def test_group_of_each_pid_unique(self, spark, climber_index):
        """Partitions are per-group physical units (paper Fig. 5)."""
        pdf = (
            spark.read.parquet(climber_index.data_path)
            .groupBy("pid")
            .agg(F.countDistinct("gid").alias("ng"))
            .toPandas()
        )
        assert (pdf["ng"] == 1).all()


class TestOracleChecks:
    def test_partition_counts_oracle(self, spark, climber_index):
        """DuckDB oracle: per-partition occupancy as a SQL aggregation."""
        stored = spark.read.parquet(climber_index.data_path).select("id", "pid", "gid")
        got = stored.groupBy("pid").agg(F.count("*").alias("cnt"))
        assert_equivalent(
            got, "SELECT pid, count(*) AS cnt FROM assigned GROUP BY pid",
            assigned=stored.toPandas(),
        )

    def test_group_counts_oracle(self, spark, climber_index):
        stored = spark.read.parquet(climber_index.data_path).select("id", "pid", "gid")
        got = stored.groupBy("gid").agg(F.count("*").alias("cnt"))
        assert_equivalent(
            got, "SELECT gid, count(*) AS cnt FROM assigned GROUP BY gid",
            assigned=stored.toPandas(),
        )

    def test_signature_frequency_oracle(self, spark, climber_index):
        """Step 2's [(P⁴, freq)] aggregation ≡ DuckDB group-by on strings."""
        _, _, sig_ri = _stored_signatures(spark, climber_index)
        sigs = spark.createDataFrame(
            pd.DataFrame({"sig": ["-".join(map(str, row)) for row in sig_ri.tolist()]})
        )
        got = sigs.groupBy("sig").agg(F.count("*").alias("freq"))
        assert_equivalent(
            got, "SELECT sig, count(*) AS freq FROM sigs GROUP BY sig",
            sigs=sigs.toPandas(),
        )


class TestDriverCounts:
    @pytest.mark.parametrize("name", ["climber_index", "tardis_index", "dpisax_index"])
    def test_counts_equal_spark_groupby(self, spark, request, name):
        """The driver-side counts of the written index ≡ Spark's ``groupBy``."""
        idx = request.getfixturevalue(name)
        stored = spark.read.parquet(idx.data_path)
        by_pid = stored.groupBy("pid").count().toPandas()
        spark_pid = dict(zip(by_pid["pid"].tolist(), by_pid["count"].tolist()))
        assert occupancy(*stored_columns(idx.data_path, "pid")) == spark_pid == idx.pid_counts
        assert idx.n_series == N_SMALL
        if name != "climber_index":
            return
        by_node = stored.groupBy("node").count().toPandas()
        spark_node = dict(zip(by_node["node"].tolist(), by_node["count"].tolist()))
        (node,) = stored_columns(idx.data_path, "node")
        assert occupancy(node) == spark_node
        for g in idx.skeleton.groups.values():
            for n in iter_nodes(g.trie):  # refined count = landings in [ord, end)
                assert n.count == sum(c for o, c in spark_node.items() if n.ord <= o < n.end)


class TestEmptyPartition:
    """G₀'s sample estimate is 0 on the tier-1 index, so its one partition is
    in the skeleton but no row is stored there."""

    def test_empty_pid_absent_and_counted_zero(self, climber_index):
        sk = climber_index.skeleton
        g0 = sk.groups[FALLBACK_GID]
        empty = set(range(sk.n_partitions)) - set(climber_index.pid_counts)
        assert empty == set(g0.trie.pids) == {g0.default_pid}
        assert not os.path.exists(os.path.join(climber_index.data_path, f"pid={g0.default_pid}"))
        assert all(n.count == 0 for n in iter_nodes(g0.trie))

    def test_knn_plan_to_empty_pid_answers_empty(self, spark, climber_index, queries, monkeypatch):
        """A query overlapping no centroid (OD = m to all) routes to G₀: the
        plan expands, and the scan and ``knn_batch`` answer ``[]``."""
        sk = climber_index.skeleton
        _, Q = queries
        monkeypatch.setattr(sk, "mask", np.zeros_like(sk.mask))  # no pivot in any centroid
        plan = route(sk, Q[:1], K_SMALL, "knn", [0])[0]
        g0 = sk.groups[FALLBACK_GID]
        assert plan.gid == FALLBACK_GID and plan.pids == (g0.default_pid,)
        assert plan.expand_full and plan.node_count == 0
        narrow = QueryPlan(pids=plan.pids, prefixes=plan.prefixes, expand_full=False)
        assert knn_scan(spark, climber_index, {0: plan, 1: narrow}, Q[:2], K_SMALL) == {
            0: [], 1: []}
        monkeypatch.setattr(climber_index, "plan", lambda *a, **kw: plan)
        res, stats = climber_index.knn_batch(spark, Q[:1], K_SMALL, variant="knn")
        assert res == {0: []} and stats.rows_scanned == {0: 0}


class TestAssignKernel:
    @pytest.mark.parametrize("name", ["climber", "tardis", "dpisax"])
    def test_matches_assign_records(self, request, small_matrix, name):
        """Each stored row sits where the system's driver-side router sends
        its series, row for row: CLIMBER's (gid, pid, node) ≡
        assign_records(signatures(X)); a baseline's ``pid=`` directory ≡ the
        one pid of its plan."""
        idx = request.getfixturevalue(f"{name}_index")
        t = ds.dataset(idx.data_path, format="parquet", partitioning="hive").to_table().sort_by("id")
        ids, X = t.column("id").to_numpy(), series_matrix(t.column("series").combine_chunks())
        np.testing.assert_array_equal(ids, np.arange(N_SMALL))
        np.testing.assert_array_equal(X, small_matrix)
        if name == "climber":
            sk = idx.skeleton
            gid, pid, nodes = sk.assign_records(sk.signatures(X)[0], ids)
            np.testing.assert_array_equal(t.column("gid").to_numpy(), gid)
            np.testing.assert_array_equal(t.column("node").to_numpy(), nodes)
        else:
            plans = idx.plans(X)
            assert all(len(pl.pids) == 1 for pl in plans.values())
            pid = [plans[q].pids[0] for q in range(len(X))]
        np.testing.assert_array_equal(t.column("pid").to_numpy(), pid)

    def test_empty_input_partitions(self, spark, small_df, tmp_path):
        """Most of the 16 input partitions are empty; no row is lost."""
        n = 300
        df = small_df.where(F.col("id") < n).repartition(16, F.col("id") % 5)
        assert df.select(F.spark_partition_id()).distinct().count() < df.rdd.getNumPartitions()
        idx = build_index(spark, df, str(tmp_path / "idx"), SMALL_PARAMS)
        ids = spark.read.parquet(idx.data_path).select("id").toPandas()["id"]
        assert sorted(ids) == list(range(n))
        assert idx.n_series == n


class TestJobsPerBuild:
    BUILDS = {
        "climber": lambda spark, df, out: build_index(spark, df, out, SMALL_PARAMS),
        "tardis": lambda spark, df, out: build_tardis(df, out, **BASELINE_KW),
        "dpisax": lambda spark, df, out: build_dpisax(df, out, **BASELINE_KW),
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_three_jobs(self, spark, small_df, tmp_path, name):
        """One pass over the data per build step: the sample's collect,
        Step 4's assign + spill and its gather + write; the stats are read
        back without a job."""
        with job_group(spark, f"build-{name}") as jobs:
            self.BUILDS[name](spark, small_df, str(tmp_path / name))
            assert jobs() == 3


def file_hashes(data_path):
    """``pid=P/part-*.parquet`` → sha1 of the file's bytes."""
    files = glob.glob(os.path.join(data_path, "pid=*", "part-*.parquet"))
    return {os.path.relpath(f, data_path): hashlib.sha1(Path(f).read_bytes()).hexdigest() for f in files}


class TestSplitInvariance:
    def test_same_rows_any_split_same_index(self, spark, small_df, queries, climber_index, tmp_path):
        """The input's partitioning and the shuffle width do not change the
        build, down to the bytes of every stored file."""
        _, Q = queries
        variants = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")

        def signature(idx):
            # repr, not ==: od-smallest plans carry a NaN node count.
            plans = [repr(idx.plan(q, 10, variant=v)) for q in Q for v in variants]
            return idx.skeleton.pivots, idx.pid_counts, plans

        ref_piv, ref_counts, ref_plans = signature(climber_index)
        ref_files = file_hashes(climber_index.data_path)
        assert len(ref_files) == len(ref_counts)
        old = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for ways, shuffle in ((3, 4), (3, 32), (7, 4), (7, 32)):
                spark.conf.set("spark.sql.shuffle.partitions", str(shuffle))
                idx = build_index(spark, small_df.repartition(ways),
                                  str(tmp_path / f"{ways}-{shuffle}"), SMALL_PARAMS)
                piv, counts, plans = signature(idx)
                np.testing.assert_array_equal(piv, ref_piv)
                assert counts == ref_counts
                assert plans == ref_plans
                assert file_hashes(idx.data_path) == ref_files
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)

    def test_baseline_same_files_any_split(self, small_df, tardis_index, tmp_path):
        ref = file_hashes(tardis_index.data_path)
        assert len(ref) == len(tardis_index.pid_counts)
        for ways in (3, 7):
            idx = build_tardis(small_df.repartition(ways), str(tmp_path / str(ways)), **BASELINE_KW)
            assert idx.pid_counts == tardis_index.pid_counts
            assert file_hashes(idx.data_path) == ref


class TestStep4Hygiene:
    def test_failed_build_leaves_no_spill(self, spark, small_df, tmp_path):
        """A NaN in a series the α-sample skips fails Step 4's spill job,
        not the sample; the spill directory is removed all the same."""
        scale = 1 << 20
        unsampled = F.pmod(F.xxhash64("id", F.lit(SMALL_PARAMS.seed)), F.lit(scale)) >= F.lit(
            SMALL_PARAMS.alpha * scale)
        bad = small_df.where(unsampled).agg(F.min("id")).first()[0]
        nan = F.when(F.col("id") == bad, F.array_repeat(F.lit(float("nan")), LEN_SMALL))
        df = small_df.withColumn("series", nan.otherwise(F.col("series")))
        out = tmp_path / "idx"
        with pytest.raises(Exception, match="non-finite readings"):
            build_index(spark, df, str(out), SMALL_PARAMS)
        assert not (out / "_spill").exists()
        assert not (out / "meta.json").exists()

    def test_rebuild_keeps_only_new_pids(self, spark, small_df, climber_index, tmp_path):
        """Building again into an index's directory with other parameters
        leaves exactly the new build's ``pid=`` directories, one file each."""
        out = shutil.copytree(climber_index.out_dir, tmp_path / "idx")
        idx = build_index(spark, small_df, str(out), replace(SMALL_PARAMS, capacity=400))
        assert len(idx.pid_counts) < len(climber_index.pid_counts)
        dirs = sorted(os.listdir(idx.data_path))
        assert dirs == sorted(f"pid={p}" for p in idx.pid_counts)
        assert all(os.listdir(os.path.join(idx.data_path, d)) == ["part-00000.parquet"] for d in dirs)
        assert sorted(os.listdir(out)) == ["data", "meta.json", "skeleton.pkl"]


def test_worker_write_leaves_pyarrow_dataset_unloaded(tmp_path):
    """A fresh interpreter that imports the index module and runs Step 4's
    task bodies (`paa.map_batch`, `index.spill_batch`, `index.write_pid`) on
    a small batch never loads ``pyarrow.dataset`` (+45 MB per Python
    worker); the written files hold every row, sorted by ``(node, id)``."""
    script = (
        "import sys\n"
        "import numpy as np, pyarrow as pa\n"
        "from repro.core.index import ClimberIndex, map_batch, spill_batch, write_pid\n"
        "X = np.arange(60.0).reshape(12, 5)\n"
        "batch = pa.RecordBatch.from_arrays([pa.array(np.arange(12)[::-1]), "
        "pa.array(list(X))], names=['id', 'series'])\n"
        "fn = lambda ids, X: {'gid': ids % 2, 'node': ids % 4, 'pid': ids % 3}\n"
        "rows = spill_batch(map_batch(batch, fn, ClimberIndex.SCHEMA), sys.argv[1], '0-0')\n"
        "for p in rows:\n"
        "    write_pid(sys.argv[1], sys.argv[2], p, ('node',))\n"
        "print(sorted(rows.items()), 'pyarrow.dataset' in sys.modules)\n"
    )
    X = np.arange(60.0).reshape(12, 5)  # as in the script, where row r holds id 11 - r
    spill, data = tmp_path / "_spill", tmp_path / "data"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script, str(spill), str(data)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split()[-1] == "False"
    assert out.startswith("[(0, 4), (1, 4), (2, 4)]")
    for p in range(3):
        (f,) = glob.glob(str(data / f"pid={p}" / "*.parquet"))
        t = pq.read_table(f)
        assert t.column_names == ["id", "series", "gid", "node"]
        ids = t.column("id").to_numpy()
        assert sorted(ids) == [i for i in range(12) if i % 3 == p]
        assert list(zip(ids % 4, ids)) == sorted(zip(ids % 4, ids))
        np.testing.assert_array_equal(series_matrix(t.column("series").combine_chunks()), X[11 - ids])


class TestPersistence:
    def test_load_round_trip(self, spark, climber_index):
        loaded = ClimberIndex.load(climber_index.out_dir)
        assert loaded.n_series == climber_index.n_series
        assert loaded.pid_counts == climber_index.pid_counts
        assert loaded.params == climber_index.params
        assert loaded.skeleton.n_partitions == climber_index.skeleton.n_partitions

    def test_meta_records_stored_schema(self, climber_index):
        with open(os.path.join(climber_index.out_dir, "meta.json")) as f:
            assert json.load(f)["schema"] == ClimberIndex.SCHEMA == (
                "id long, series binary, gid long, node long, pid long")

    @pytest.mark.parametrize("schema", [None, "id long, series array<double>, gid long, node long, pid long"])
    def test_old_layout_refused(self, climber_index, tmp_path, schema):
        """An index without the binary-series marker (built before it) or
        with another schema is refused on load, with a rebuild hint."""
        out = tmp_path / "old"
        out.mkdir()
        shutil.copy(os.path.join(climber_index.out_dir, "skeleton.pkl"), out)
        with open(os.path.join(climber_index.out_dir, "meta.json")) as f:
            meta = json.load(f)
        meta.pop("schema")
        if schema:
            meta["schema"] = schema
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rebuild it with build_index"):
            ClimberIndex.load(str(out))

    def test_loaded_index_answers_queries(self, spark, climber_index, queries, ground_truth):
        from tests.conftest import K_SMALL

        _, Q = queries
        loaded = ClimberIndex.load(climber_index.out_dir)
        res, _ = loaded.knn_batch(spark, Q, K_SMALL, variant="adaptive-4x")
        assert all(len(v) == K_SMALL for v in res.values())


class TestParamValidation:
    def test_sample_smaller_than_r_raises(self, spark, small_df, tmp_path):
        """The check runs before anything is written: no index directory."""
        bad = ClimberParams(w=8, r=5000, m=4, capacity=100, alpha=0.01)
        out = tmp_path / "should-not-exist-idx"
        with pytest.raises(ValueError, match="pivots"):
            build_index(spark, small_df, str(out), bad)
        assert not out.exists()

    def test_short_series_raises(self, spark, small_df, climber_index, tmp_path):
        """One series shorter than the rest: a clear error, not a numpy one,
        from the build and from the Step-4 kernel alone."""
        short = F.when(F.col("id") == 5, F.slice("series", 1, 40)).otherwise(F.col("series"))
        df = small_df.withColumn("series", short)
        with pytest.raises(Exception, match="ragged series"):
            build_index(spark, df, str(tmp_path / "idx"), SMALL_PARAMS)
        with pytest.raises(Exception, match="ragged series"):
            map_series(df, climber_index.skeleton.assign_rows, ClimberIndex.SCHEMA).count()
