"""Experiment-harness tests: table rendering, scale mapping, mini runs."""
import ast
import os
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.query import QueryPlan
from repro.harness import experiments
from repro.harness.experiments import (
    GB_TO_N,
    dataset_df,
    eval_distributed,
    pick_queries,
)
from repro.harness.tables import render_table
from repro.memsys.odyssey import CapacityExceeded

JOBS = Path(__file__).resolve().parents[1] / "jobs"


class TestScaleMapping:
    def test_gb_mapping_monotone(self):
        gbs = sorted(GB_TO_N)
        ns = [GB_TO_N[g] for g in gbs]
        assert ns == sorted(ns)

    def test_paper_sizes_present(self):
        assert set(GB_TO_N) == {200, 400, 600, 800, 1000, 1500}

    def test_linear_in_gb(self):
        assert GB_TO_N[400] == 2 * GB_TO_N[200]
        assert GB_TO_N[1000] == 5 * GB_TO_N[200]


class TestRenderTable:
    def test_alignment_and_header(self):
        rows = [dict(a=1, b=2.5), dict(a=10, b=None)]
        out = render_table(rows, ["a", "b"], "t")
        lines = out.splitlines()
        assert lines[0] == "== t =="
        assert "a" in lines[1] and "b" in lines[1]
        assert "X" in lines[4]  # None renders as the paper's X marker

    def test_missing_column_rendered_as_x(self):
        out = render_table([dict(a=1)], ["a", "missing"])
        assert "X" in out

    def test_float_formatting(self):
        out = render_table([dict(v=0.123456)], ["v"])
        assert "0.123" in out
        out2 = render_table([dict(v=123.456)], ["v"])
        assert "123.5" in out2


class TestDatasetHelpers:
    def test_dataset_df_unknown_name(self, spark):
        with pytest.raises(ValueError):
            dataset_df(spark, "nope", 10)

    def test_pick_queries_members_of_dataset(self, spark, small_df, small_matrix):
        Q = pick_queries(small_df, 5, seed=1)
        assert Q.shape == (5, small_matrix.shape[1])
        for q in Q:
            assert any(np.allclose(q, row) for row in small_matrix)

    def test_pick_queries_deterministic(self, small_df):
        a = pick_queries(small_df, 3, seed=9)
        b = pick_queries(small_df, 3, seed=9)
        np.testing.assert_array_equal(a, b)


class TestMiniEval:
    def test_eval_distributed_rows(self, spark, small_df, queries, tmp_path):
        from tests.conftest import K_SMALL

        _, Q = queries
        rows = eval_distributed(spark, small_df, Q, K_SMALL, str(tmp_path / "mini"))
        systems = {r["system"] for r in rows}
        assert systems == {"Dss", "CLIMBER-adaptive-4x", "TARDIS", "DPiSAX"}
        for r in rows:
            assert 0.0 <= r["recall"] <= 1.0
            assert r["query_s"] >= 0
        dss = next(r for r in rows if r["system"] == "Dss")
        assert dss["recall"] == 1.0
        for r in rows:
            if r["system"] != "Dss":
                assert r["build_s"] > 0 and r["index_bytes"] > 0
                assert r["partitions"] >= 1 and r["rows_scanned"] >= 1
        assert os.listdir(tmp_path / "mini") == []  # every index directory is removed


class TestWarmUp:
    def test_one_unmeasured_build_and_batch_per_call(self, spark, tmp_path, monkeypatch):
        """`run_eval` builds and queries CLIMBER once, unmeasured, before the
        first point's measured builds, and not again at later points."""
        events = []

        class Index:
            def knn_batch(self, spark, queries, k, variant):
                events.append(("query", len(queries), k, variant))

        @contextmanager
        def built(spark, system, df, workdir, params):
            events.append(("build", system))
            yield Index(), 0.0

        def eval_distributed(spark, df, queries, k, workdir):
            events.append(("eval",))
            return []

        monkeypatch.setattr(experiments, "built", built)
        monkeypatch.setattr(experiments, "eval_distributed", eval_distributed)
        for gb in (200, 400):
            monkeypatch.setitem(GB_TO_N, gb, 600)
        experiments.run_eval(spark, str(tmp_path), [("randomwalk", 200), ("randomwalk", 400)],
                             k=5, n_queries=2)
        assert events == [("build", "CLIMBER"), ("query", 2, 5, experiments.DEFAULT_VARIANT),
                          ("eval",), ("eval",)]

    # The other runners (run_eval: above), at two points (or two K) where
    # they take several: (call, warm-up K).
    RUNNERS = {
        "run_k_sweep": (lambda wd: experiments.run_k_sweep(None, wd, ks=(5, 7), n_queries=2), 5),
        "run_param_sweep": (lambda wd: experiments.run_param_sweep(
            None, wd, "pivots", [16, 64], [("randomwalk", 200), ("randomwalk", 400)],
            k=5, n_queries=2), 5),
        "run_adaptive_eval": (lambda wd: experiments.run_adaptive_eval(None, wd, n_queries=2),
                              experiments.DEFAULT_K),
        "run_od_smallest_eval": (lambda wd: experiments.run_od_smallest_eval(
            None, wd, k=5, n_queries=2), 5),
        "run_table1": (lambda wd: experiments.run_table1(None, wd, gbs=(200, 400), k=5,
                                                         n_queries=2), 5),
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_every_runner_warms_up_first(self, runner, tmp_path, monkeypatch):
        """Every other paper runner also builds and queries CLIMBER once,
        unmeasured, on its first dataset instance, before anything it
        measures."""
        events = []

        class Index:
            report = SimpleNamespace(sample_s=0.0, skeleton_s=0.0, redistribute_s=0.0, stats_s=0.0)
            skeleton = None

            def knn_batch(self, spark, queries, k, variant):
                events.append(("query", len(queries), k, variant))

            def global_index_size_bytes(self):
                return 1

        @contextmanager
        def instance(spark, dataset, gb, n_queries):
            events.append(("instance", gb))
            yield None, np.zeros((n_queries, 4))

        @contextmanager
        def built(spark, system, df, workdir, params):
            events.append(("build", system))
            yield Index(), 1.0

        def query_row(spark, index, queries, k, gt, variant):
            events.append(("measure",))
            return dict(query_s=1.0, recall=1.0, partitions=1.0, rows_scanned=1.0)

        def collect_matrix(df):
            raise CapacityExceeded("stub")

        def route(sk, queries, k, variant, qids):
            return [QueryPlan(pids=(0,), node_count=1.0) for _ in qids]

        for name, stub in dict(_instance=instance, built=built, query_row=query_row,
                               collect_matrix=collect_matrix, route=route,
                               timed_dss_knn=lambda df, queries, k: ({}, 0.0)).items():
            monkeypatch.setattr(experiments, name, stub)
        call, k = self.RUNNERS[runner]
        call(str(tmp_path))
        assert events[0][0] == "instance"
        assert events[1:3] == [("build", "CLIMBER"), ("query", 2, k, experiments.DEFAULT_VARIANT)]
        assert [e for e in events if e[0] == "query"] == [events[2]]
        assert ("measure",) in events[3:]


def _printed_columns(job: str):
    """The column list of each ``render_table`` call in ``jobs/<job>``, in
    source order; each must be a literal so this test can read it."""
    calls = [c for c in ast.walk(ast.parse((JOBS / job).read_text()))
             if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "render_table"]
    return [ast.literal_eval(c.args[1]) for c in sorted(calls, key=lambda c: c.lineno)]


# Each job's runner calls at tiny scale, one row list per render_table call.
RUNS = {
    "fig7_query_eval.py": lambda spark, wd: [experiments.run_eval(
        spark, wd, [("randomwalk", 200)], k=5, n_queries=2)] * 2,
    "fig9_k_sweep.py": lambda spark, wd: [experiments.run_k_sweep(
        spark, wd, ks=(5,), n_queries=2)],
    "fig10_pivots_sweep.py": lambda spark, wd: [experiments.run_param_sweep(
        spark, wd, "pivots", [16, 64], [("randomwalk", 200)], k=5, n_queries=2)],
    "fig11_adaptive.py": lambda spark, wd: [
        experiments.run_adaptive_eval(spark, wd, n_queries=1),
        experiments.run_od_smallest_eval(spark, wd, k=5, n_queries=2)],
    "fig12_prefix_sweep.py": lambda spark, wd: [experiments.run_param_sweep(
        spark, wd, "prefix", [4, 6], [("randomwalk", 400)], k=5, n_queries=2)],
    "table1_memory_systems.py": lambda spark, wd: [experiments.run_table1(
        spark, wd, gbs=(200,), k=5, n_queries=2)],
}


class TestJobColumns:
    def test_every_job_is_covered(self):
        assert set(RUNS) == {p.name for p in JOBS.glob("*.py")} - {"_common.py"}

    @pytest.mark.parametrize("job", sorted(RUNS))
    def test_printed_columns_are_row_keys(self, spark, job, tmp_path, monkeypatch):
        """Every column a job prints is a key of every row its runner returns
        (``render_table`` would print a silent X for a missing one), and the
        runner leaves the caller's files in ``workdir`` alone."""
        for gb in (200, 400):
            monkeypatch.setitem(GB_TO_N, gb, 600)
        monkeypatch.setattr(experiments, "PARLAYANN_BUDGET", 0)  # its X row, no HNSW build
        (tmp_path / "sentinel").write_text("not the harness's")
        tables = RUNS[job](spark, str(tmp_path))
        columns = _printed_columns(job)
        assert len(columns) == len(tables)
        for cols, rows in zip(columns, tables):
            assert rows
            for r in rows:
                assert set(cols) <= set(r), (job, set(cols) - set(r))
        assert os.listdir(tmp_path) == ["sentinel"]
