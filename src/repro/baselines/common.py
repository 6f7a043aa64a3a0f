"""Shared build/scan scaffolding for the iSAX-based baselines.

TARDIS and DPiSAX follow the same macro-structure as CLIMBER-INX (paper
§VII-A: "they both create a global main-memory index structure and use it
for re-partitioning the data and creating local indexes"), and run on the
same build substrate:

1. the id-hash α-sample of CLIMBER's Step 1 (`paa.sample_paa`), whose
   executor-side transform is :func:`isax_paa` (PAA of the z-normalised
   series); its iSAX words (`isax.isax_symbols` at MAX_BITS) are collected,
2. a global partitioning structure (the *router*) built from those words,
   whose one call ``router.pids(symbols)`` maps a (B × w) batch to pids,
3. full-data redistribution through CLIMBER's writer
   (`index.write_partitions`: assign + spill, then gather + write, with
   CLIMBER's build kernel body `paa.map_batch`): each series' ``pid`` comes
   from :meth:`BaselineIndex.pids`, its stored row is in
   ``BaselineIndex.SCHEMA``, and each partition's file is sorted by ``id``,
4. query: :meth:`BaselineIndex.pids` routes each query to a single
   partition, scanned with the same distributed kNN operator CLIMBER uses
   (full-partition plans).

The sample, the stored rows and the queries all take their iSAX words
through :func:`isax_paa`, so the router is built from the words the data
gets. Keeping the substrate identical makes the timing/recall comparison
about the *representations and partitioning*, which is what the paper
varies.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from ..core.index import occupancy, stored_columns, write_partitions
from ..core.paa import paa_np, sample_paa, znorm_np
from ..core.query import QueryPlan, _query_matrix, timed_knn
from .isax import isax_symbols


def isax_paa(X: np.ndarray, w: int) -> np.ndarray:
    """Raw series (rows × n) → the baselines' PAA: ``w`` segment means of each
    z-normalised series, the values iSAX's N(0,1) breakpoints assume."""
    return paa_np(znorm_np(X), w)


@dataclass
class BaselineIndex:
    """A built iSAX-baseline index: routing structure + parquet partitions."""

    SCHEMA = "id long, series binary, pid long"  # as CLIMBER stores them, + their pid directory

    out_dir: str
    w: int
    router: object  # picklable structure with .pids(symbols (B × w)) -> (B,) int64
    pid_counts: Dict[int, int] = field(default_factory=dict)
    n_series: int = 0

    @property
    def data_path(self) -> str:
        return os.path.join(self.out_dir, "data")

    def global_index_size_bytes(self) -> int:
        return len(pickle.dumps(self.router, protocol=pickle.HIGHEST_PROTOCOL))

    def pids(self, series: np.ndarray) -> np.ndarray:
        """Raw series (rows × n) → each one's partition: one ``router.pids``
        call over their iSAX words (:func:`isax_paa` at MAX_BITS). Step 4
        stores every row, and `plans` routes every query, through here."""
        return self.router.pids(isax_symbols(isax_paa(series, self.w)))

    def plans(self, queries: np.ndarray) -> Dict[int, QueryPlan]:
        """Each query's plan: the one partition its iSAX word routes to;
        ``ValueError`` on a non-finite reading."""
        return {qid: QueryPlan(pids=(p,)) for qid, p in enumerate(self.pids(_query_matrix(queries)).tolist())}

    def knn_batch(self, spark: SparkSession, queries: np.ndarray, k: int):
        """Route each query to its single partition and scan (one Spark job)."""
        return timed_knn(spark, self, self.plans, queries, k)


def build_baseline(
    series_df: DataFrame,
    out_dir: str,
    make_router: Callable[[np.ndarray, float], object],
    *,
    w: int = 16,
    alpha: float = 0.25,
    seed: int = 7,
) -> BaselineIndex:
    """Common build driver: sample → router → redistribute → stats."""
    P = sample_paa(series_df, partial(isax_paa, w=w), alpha, seed)
    if not len(P):
        raise ValueError("empty sample; raise alpha")
    index = BaselineIndex(out_dir=out_dir, w=w, router=make_router(isax_symbols(P), alpha))
    write_partitions(series_df, lambda ids, X: {"pid": index.pids(X)}, index.SCHEMA, index.data_path)
    (pid,) = stored_columns(index.data_path, "pid")
    index.pid_counts, index.n_series = occupancy(pid), len(pid)
    return index
