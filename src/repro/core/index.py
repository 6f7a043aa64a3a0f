"""CLIMBER-INX build pipeline — paper Fig. 6, Steps 1–4, on Spark DataFrames.

Step 1  sample → PAA → random pivots → rank-sensitive signatures. The
        α-sample keeps the rows whose ``pmod(xxhash64(id, seed), 2²⁰)`` is
        below ``α·2²⁰``, so it depends on the ids alone, not on how the input
        is split; only its ``(id, paa)`` leaves the executors
        (`paa.sample_paa`), and the PAA matrix is ordered by id. Pivots are
        drawn from it, and the ``[(P⁴→, freq)]`` list is counted from it in
        numpy (``np.unique``) — no second Spark job.
Step 2  Algorithm 2 on the rank-insensitive frequency list → centroids.
Step 3  Algorithm 1 assignment of the sample, per-group tries, FFD packing
        → the index *skeleton* (driver-side, tiny).
Step 4  full-dataset redistribution (:func:`write_partitions`, the one
        writer, which the iSAX baselines use too), an exchange through the
        filesystem in two Spark jobs. Job 1 (assign + spill) runs the
        build kernel's body (`paa.map_batch`) on each Arrow batch; the
        skeleton (pivots included) ships to executors inside the closure of
        its batch function (the paper's broadcast), `Skeleton.assign_rows`,
        which maps each ``(id, series)`` straight to ``(gid, node, pid)``
        (``node`` is the landing trie node's ordinal); the kernel passes
        ``id`` through and re-emits the decoded series as one fixed-width
        ``binary`` value per row (`paa.series_binary`), in
        ``ClimberIndex.SCHEMA``, and :func:`spill_batch` writes each pid's
        rows to one Arrow IPC file. Job 2 (gather + write) has
        :func:`write_pid` sort each pid's spilled rows by ``(node, id)``, so
        each subtree's records are contiguous (the paper's in-partition
        layout), and write them as the pid's one parquet file. Only ``id``,
        ``series``, ``gid``, ``node`` and the ``pid`` directory are stored.

After the write, the driver reads back the ``pid`` and ``node`` columns
(:func:`stored_columns`, no Spark job) for exact partition occupancies and
node counts (`Skeleton.refine_counts`) — Algorithm 3's ``Size(G_N)`` and
the adaptive expansion consult these at query time.
"""
from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark import TaskContext
from pyspark.sql import DataFrame, SparkSession

from .packing import lpt_pack
from .paa import _arrow, map_batch, paa_np, sample_paa, series_matrix
from .pivots import select_pivots, signatures_np
from .query import QueryPlan, route, timed_knn
from .skeleton import Skeleton, build_skeleton


@dataclass(frozen=True)
class ClimberParams:
    """Build-time knobs; defaults are the repo's scaled-down paper defaults.

    Paper defaults: r=200 pivots, prefix m=10, K=500, c = one HDFS block.
    Scaled here (see DESIGN.md §4): r=64, m=6, c=1000 series.
    """

    w: int = 16
    r: int = 64
    m: int = 6
    capacity: int = 1000
    alpha: float = 0.25  # sample fraction
    eps: int = 2
    max_centroids: int | None = 64
    decay_kind: str = "exp"
    decay_lam: float = 0.5
    seed: int = 7


@dataclass
class BuildReport:
    """Phase timings for Figs. 8 and 10(a)."""

    sample_s: float = 0.0
    skeleton_s: float = 0.0
    redistribute_s: float = 0.0
    stats_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.sample_s + self.skeleton_s + self.redistribute_s + self.stats_s


@dataclass
class ClimberIndex:
    """Handle over a built index: skeleton + parquet partitions + stats."""

    # What Step 4 writes: the input's id, its series as n float64 readings in
    # one binary value (decoded by `paa.series_matrix`), and the assignment;
    # ``pid`` is the directory. `save` records it in meta.json and `load`
    # refuses an index stored under any other schema.
    SCHEMA = "id long, series binary, gid long, node long, pid long"

    out_dir: str
    skeleton: Skeleton
    params: ClimberParams
    pid_counts: Dict[int, int] = field(default_factory=dict)
    n_series: int = 0
    report: BuildReport = field(default_factory=BuildReport)

    @property
    def data_path(self) -> str:
        return os.path.join(self.out_dir, "data")

    def global_index_size_bytes(self) -> int:
        return self.skeleton.size_bytes()

    # ---- query API (paper §VI); all variants share the scan operator ----

    def plan(self, series: np.ndarray, k: int, *, variant: str = "adaptive-4x", qid: int = 0) -> QueryPlan:
        """One query's plan: `query.route` on one row."""
        return route(self.skeleton, series, k, variant, [qid])[0]

    def knn_batch(
        self, spark: SparkSession, queries: np.ndarray, k: int, *, variant: str = "adaptive-4x"
    ):
        """Plan + execute a batch of queries; returns (results, stats), with
        routing inside ``stats.seconds``."""
        # One `plan` call per query, not one `route` over the batch: perfbench's
        # traced ``index.plan.ms_per_query`` divides by the number of calls.
        def planner(Q):
            return {i: self.plan(q, k, variant=variant, qid=i) for i, q in enumerate(Q)}

        return timed_knn(spark, self, planner, queries, k)

    # ---- persistence ----

    def save(self) -> None:
        with open(os.path.join(self.out_dir, "skeleton.pkl"), "wb") as f:
            f.write(self.skeleton.serialize())
        meta = {
            "params": self.params.__dict__,
            "pid_counts": {str(k): v for k, v in self.pid_counts.items()},
            "n_series": self.n_series,
            "schema": self.SCHEMA,
        }
        with open(os.path.join(self.out_dir, "meta.json"), "w") as f:
            json.dump(meta, f)

    @classmethod
    def load(cls, out_dir: str) -> "ClimberIndex":
        with open(os.path.join(out_dir, "skeleton.pkl"), "rb") as f:
            sk = Skeleton.deserialize(f.read())
        with open(os.path.join(out_dir, "meta.json")) as f:
            meta = json.load(f)
        if meta.get("schema") != cls.SCHEMA:  # None: built before series were stored as binary
            raise ValueError(
                f"index at {out_dir} records stored schema {meta.get('schema')!r}, "
                f"expected {cls.SCHEMA!r}; rebuild it with build_index"
            )
        params = ClimberParams(**meta["params"])
        return cls(
            out_dir=out_dir, skeleton=sk, params=params,
            pid_counts={int(k): v for k, v in meta["pid_counts"].items()},
            n_series=meta["n_series"],
        )


def stored_columns(data_path: str, *columns: str) -> List[np.ndarray]:
    """Integer columns of every stored row, read on the driver through
    ``pyarrow.dataset`` (``pid`` from the ``pid=`` directories); no Spark job.
    Imported here, not at module level: executors import this module
    (`baselines.common` does) and never read the dataset."""
    import pyarrow.dataset as ds

    t = ds.dataset(data_path, format="parquet", partitioning="hive").to_table(columns=list(columns))
    return [t.column(c).to_numpy().astype(np.int64) for c in columns]


def occupancy(pid: np.ndarray) -> Dict[int, int]:
    """``pid → stored rows``; a pid with no row is absent."""
    return {p: c for p, c in enumerate(np.bincount(pid).tolist()) if c}


def _publish(path: str, write: Callable[[str], None]) -> None:
    """Make ``path`` appear whole: ``write`` a hidden temp name in its
    directory, then ``os.replace`` it into place, so a retried task replaces
    its own file and a reader never sees a partial one."""
    d, name = os.path.split(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def _columns(batch: pa.RecordBatch) -> Dict[str, np.ndarray]:
    """A stored-schema batch's columns as numpy views, ``series`` as its
    (rows × n) matrix."""
    return {c: series_matrix(col) if c == "series" else col.to_numpy()
            for c, col in zip(batch.schema.names, batch.columns)}


def _batch(cols: Dict[str, np.ndarray], rows: np.ndarray) -> pa.RecordBatch:
    """Rows ``rows`` of numpy columns, back in the stored schema. The rows
    are gathered with numpy, not Arrow's ``take``: on the benchmark's build,
    a Python worker that sorted and took through Arrow's compute kernels
    peaked 4–6 MB higher."""
    return pa.RecordBatch.from_arrays([_arrow(v[rows]) for v in cols.values()], names=list(cols))


def spill_batch(batch: pa.RecordBatch, spill_dir: str, name: str) -> Dict[int, int]:
    """Step 4's spill, on one batch in an index's stored schema: each pid's
    rows (``pid`` dropped: it is the directory) become one Arrow IPC file,
    ``<spill_dir>/pid=P/<name>.arrow``. Returns ``pid → rows``."""
    cols = _columns(batch)
    pid = cols.pop("pid")
    order = np.argsort(pid, kind="stable")
    pids, starts, counts = np.unique(pid[order], return_index=True, return_counts=True)

    def write_ipc(part: pa.RecordBatch, path: str) -> None:
        with pa.ipc.new_file(path, part.schema) as f:
            f.write_batch(part)

    for p, rows in zip(pids.tolist(), np.split(order, starts[1:])):
        path = os.path.join(spill_dir, f"pid={p}", f"{name}.arrow")
        _publish(path, partial(write_ipc, _batch(cols, rows)))
    return dict(zip(pids.tolist(), counts.tolist()))


def write_pid(spill_dir: str, data_path: str, pid: int, order: Tuple[str, ...]) -> None:
    """Step 4's gather and write, for one pid: its spilled rows, sorted by
    ``(*order, id)`` so the file's bytes do not depend on how the input was
    split, become ``<data_path>/pid=P/part-00000.parquet``. Snappy, no
    dictionary, a CRC on every page (`query.read_files` verifies them), and
    min/max statistics on every column but ``series`` (on its 2 KB values
    they would add about 1.7% to the stored bytes)."""
    d = os.path.join(spill_dir, f"pid={pid}")
    spills = sorted(f for f in os.listdir(d) if not f.startswith((".", "_")))
    parts = [_columns(pa.ipc.open_file(pa.memory_map(os.path.join(d, f))).get_batch(0)) for f in spills]
    cols = {c: np.concatenate([part[c] for part in parts]) for c in parts[0]}
    t = _batch(cols, np.lexsort([cols[c] for c in reversed((*order, "id"))]))
    stats = [c for c in t.schema.names if c != "series"]
    _publish(os.path.join(data_path, f"pid={pid}", "part-00000.parquet"), partial(
        pq.write_table, pa.Table.from_batches([t]), compression="snappy", use_dictionary=False,
        write_page_checksum=True, write_statistics=stats))


def write_partitions(series_df: DataFrame, fn: Callable, schema: str, data_path: str,
                     *order: str) -> None:
    """Step 4 for every index: ``(id, series)`` rows → one parquet file per
    pid under ``data_path``, through the filesystem, in two Spark jobs.

    Job 1 (assign + spill) runs `paa.map_batch` with the batch function
    ``fn`` on each Arrow batch of ``series_df``, giving rows in the stored
    ``schema``, and `spill_batch`es them to ``_spill/`` next to
    ``data_path``, one file per (task, batch, pid); it returns each task's
    ``pid → rows``. The driver packs the pids by rows into at most
    ``defaultParallelism`` bins (`packing.lpt_pack`). Job 2 (gather + write)
    runs one task per bin, which calls `write_pid` on each of its pids. The
    old ``data_path`` is removed first and ``_spill`` last, also when a job
    fails. The executors and the driver must share one POSIX filesystem."""
    spark = series_df.sparkSession
    spill_dir = os.path.join(os.path.dirname(data_path), "_spill")

    def spill(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        task, rows = TaskContext.get().partitionId(), Counter()
        for seq, batch in enumerate(batches):
            if batch.num_rows:
                rows.update(spill_batch(map_batch(batch, fn, schema), spill_dir, f"{task}-{seq}"))
        yield pa.RecordBatch.from_arrays(
            [pa.array(list(rows), pa.int64()), pa.array(list(rows.values()), pa.int64())],
            names=["pid", "rows"])

    shutil.rmtree(data_path, ignore_errors=True)
    try:
        counts = series_df.select("id", "series").mapInArrow(spill, "pid long, rows long").toPandas()
        rows = counts.groupby("pid")["rows"].sum()
        sc = spark.sparkContext
        bins = lpt_pack(zip(rows.index.tolist(), rows.tolist()), sc.defaultParallelism)
        bc = sc.broadcast(bins)

        def gather(tasks: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
            for task in tasks:
                for b in task.column("id").to_pylist():
                    for p in bc.value[b]:
                        write_pid(spill_dir, data_path, p, order)
            return iter(())

        spark.range(len(bins), numPartitions=len(bins)).mapInArrow(gather, "pid long").toPandas()
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


def build_index(
    spark: SparkSession,
    series_df: DataFrame,
    out_dir: str,
    params: ClimberParams = ClimberParams(),
) -> ClimberIndex:
    """Run the full CLIMBER-INX construction (Fig. 6) and persist the index."""
    report = BuildReport()

    # -- Step 1: sample, PAA, pivots, sample signature frequencies -----------
    t0 = time.perf_counter()
    P = sample_paa(series_df, partial(paa_np, w=params.w), params.alpha, params.seed)
    if len(P) < params.r:
        raise ValueError(
            f"sample of {len(P)} rows < r={params.r} pivots; "
            "raise alpha or lower r"
        )
    pivots = select_pivots(P, params.r, seed=params.seed)
    sigs, freqs = np.unique(signatures_np(P, pivots, params.m)[0], axis=0, return_counts=True)
    rs_freqs: List[Tuple[Tuple[int, ...], int]] = [
        (tuple(sig.tolist()), int(cnt)) for sig, cnt in zip(sigs, freqs)
    ]
    report.sample_s = time.perf_counter() - t0

    # -- Steps 2 + 3: skeleton (centroids, groups, tries, packing) -----------
    t0 = time.perf_counter()
    sk = build_skeleton(
        rs_freqs, pivots, w=params.w, m=params.m, capacity=params.capacity,
        alpha=params.alpha, eps=params.eps, max_centroids=params.max_centroids,
        decay_kind=params.decay_kind, decay_lam=params.decay_lam, seed=params.seed,
    )
    report.skeleton_s = time.perf_counter() - t0

    # -- Step 4: full-data conversion + redistribution -----------------------
    t0 = time.perf_counter()
    data_path = os.path.join(out_dir, "data")
    write_partitions(series_df, sk.assign_rows, ClimberIndex.SCHEMA, data_path, "node")
    report.redistribute_s = time.perf_counter() - t0

    # -- exact stats: refine trie counts, record partition occupancy ---------
    t0 = time.perf_counter()
    pid, node = stored_columns(data_path, "pid", "node")
    pid_counts = occupancy(pid)
    sk.refine_counts(node)
    report.stats_s = time.perf_counter() - t0

    idx = ClimberIndex(
        out_dir=out_dir, skeleton=sk, params=params, pid_counts=pid_counts,
        n_series=sum(pid_counts.values()), report=report,
    )
    idx.save()
    return idx
