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
Step 4  full-dataset redistribution: the skeleton (pivots included) ships to
        executors inside the closure of the build's one kernel
        (`paa.map_series`, the paper's broadcast), whose batch function
        `Skeleton.assign_rows` maps each ``(id, series)`` straight to
        ``(gid, node, pid)`` (``node`` is the landing trie node's ordinal);
        the kernel passes ``id`` through and re-emits the decoded series as
        one fixed-width ``binary`` value per row (`paa.series_binary`), in
        ``ClimberIndex.SCHEMA``. :func:`write_partitions` — the one writer,
        which the iSAX baselines use too — shuffles by ``pid``, sorts each
        partition by ``(pid, node)`` so each subtree's records are
        contiguous (the paper's in-partition layout), and writes one ``pid=``
        directory per physical partition. Only ``id``, ``series``, ``gid``,
        ``node`` and the ``pid`` directory are stored.

After the write, the driver reads back the ``pid`` and ``node`` columns
(:func:`stored_columns`, no Spark job) for exact partition occupancies and
node counts (`Skeleton.refine_counts`) — Algorithm 3's ``Size(G_N)`` and
the adaptive expansion consult these at query time.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from .paa import map_series, paa_np, sample_paa
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


def write_partitions(rows: DataFrame, data_path: str, *order: str) -> None:
    """Step 4's shuffle and write, for every index: ``repartition(pid)``, sort
    each partition by ``pid`` and then ``order``, and write one ``pid=``
    directory of parquet per physical partition. ``rows`` are in the index's
    stored schema; ``pid`` becomes the directory."""
    (
        rows.repartition("pid")
        .sortWithinPartitions("pid", *order)
        .write.mode("overwrite")
        .partitionBy("pid")
        .parquet(data_path)
    )


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
    assigned = map_series(series_df, sk.assign_rows, ClimberIndex.SCHEMA)
    write_partitions(assigned, data_path, "node")
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
