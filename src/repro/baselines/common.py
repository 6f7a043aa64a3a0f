"""Shared build/scan scaffolding for the iSAX-based baselines.

TARDIS and DPiSAX follow the same macro-structure as CLIMBER-INX (paper
§VII-A: "they both create a global main-memory index structure and use it
for re-partitioning the data and creating local indexes"):

1. sample → z-norm → PAA → iSAX symbols (driver-side numpy over the
   collected sample, like CLIMBER's skeleton phase),
2. a global partitioning structure built from the sample,
3. full-data redistribution into parquet partitions (``partitionBy(pid)``),
4. query: route to a single partition, scan it with the same distributed
   kNN operator CLIMBER uses (full-partition plans).

Keeping the substrate identical makes the timing/recall comparison about
the *representations and partitioning*, which is what the paper varies.
"""
from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Tuple

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from ..core.paa import paa_np, sample_paa, series_binary, series_matrix, znorm_np
from ..core.query import QueryPlan, _query_matrix, occupancy, stored_columns, timed_knn
from .isax import MAX_BITS, isax_symbols


def sample_symbols(series_df: DataFrame, w: int, alpha: float, seed: int) -> np.ndarray:
    """Collect the sample's (B, w) iSAX symbols at MAX_BITS, ordered by id.

    The same id-hash α-sample as CLIMBER's Step 1 (`paa.sample_paa`), so the
    index does not depend on how the input is partitioned.
    """
    P = sample_paa(series_df, w, alpha, seed)
    if not len(P):
        raise ValueError("empty sample; raise alpha")
    return isax_symbols(P, MAX_BITS)


def query_symbols(series: np.ndarray, w: int) -> np.ndarray:
    """Raw query batch → (Q, w) symbols (same transform chain as the data)."""
    return isax_symbols(paa_np(znorm_np(series), w), MAX_BITS)


@dataclass
class BaselineIndex:
    """A built iSAX-baseline index: routing structure + parquet partitions."""

    SCHEMA = "id long, series binary, pid long"  # as CLIMBER stores them, + their pid directory

    name: str
    out_dir: str
    w: int
    router: object  # picklable structure with .route(symbols_row) -> pid
    pid_counts: Dict[int, int] = field(default_factory=dict)
    build_s: float = 0.0
    n_series: int = 0

    @property
    def data_path(self) -> str:
        return os.path.join(self.out_dir, "data")

    def global_index_size_bytes(self) -> int:
        return len(pickle.dumps(self.router, protocol=pickle.HIGHEST_PROTOCOL))

    def plans(self, queries: np.ndarray) -> Dict[int, QueryPlan]:
        """Each query's plan: the one partition its iSAX word routes to;
        ``ValueError`` on a non-finite reading."""
        syms = query_symbols(_query_matrix(queries), self.w)
        return {qid: QueryPlan(pids=(int(self.router.route(s)),)) for qid, s in enumerate(syms)}

    def knn_batch(self, spark: SparkSession, queries: np.ndarray, k: int):
        """Route each query to its single partition and scan (one Spark job)."""
        return timed_knn(spark, self, self.plans, queries, k)


def redistribute(
    series_df: DataFrame,
    router: object,
    w: int,
    out_dir: str,
) -> Tuple[Dict[int, int], int]:
    """Step 3: assign every series a pid via the (broadcast) router and write
    the physical parquet partitions, ``series`` in CLIMBER's stored ``binary``
    encoding (`paa.series_binary`). Returns (pid occupancy, total rows)."""
    blob = pickle.dumps(router, protocol=pickle.HIGHEST_PROTOCOL)

    def gen(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        local = pickle.loads(blob)
        for batch in batches:
            if not batch.num_rows:
                continue
            X = series_matrix(batch.column("series"))
            syms = isax_symbols(paa_np(znorm_np(X), w), MAX_BITS)
            pid = pa.array([int(local.route(s)) for s in syms], type=pa.int64())
            yield pa.RecordBatch.from_arrays(
                [batch.column("id"), series_binary(X), pid], names=["id", "series", "pid"])

    assigned = series_df.select("id", "series").mapInArrow(gen, schema="id long, series binary, pid long")
    data_path = os.path.join(out_dir, "data")
    assigned.repartition("pid").write.mode("overwrite").partitionBy("pid").parquet(data_path)
    (pid,) = stored_columns(data_path, "pid")
    return occupancy(pid), len(pid)


def build_baseline(
    name: str,
    spark: SparkSession,
    series_df: DataFrame,
    out_dir: str,
    make_router: Callable[[np.ndarray, float], object],
    *,
    w: int = 16,
    alpha: float = 0.25,
    seed: int = 7,
) -> BaselineIndex:
    """Common build driver: sample → router → redistribute → stats."""
    t0 = time.perf_counter()
    syms = sample_symbols(series_df, w, alpha, seed)
    router = make_router(syms, alpha)
    pid_counts, n = redistribute(series_df, router, w, out_dir)
    return BaselineIndex(
        name=name, out_dir=out_dir, w=w, router=router, pid_counts=pid_counts,
        build_s=time.perf_counter() - t0, n_series=n,
    )
