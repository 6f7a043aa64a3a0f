"""Dss — Distributed Sequential Scan (paper §VII-A).

The vanilla full-scan baseline: CLIMBER's own kNN kernel
(`core.query.scan_batch`), through its DataFrame front end (``_scan``; Dss
has rows but no stored files), over the unindexed rows, all under one
literal ``pid`` that every query's plan scans in full. Dss produces the *exact* answer set — independent of
how the rows are partitioned — and is therefore also the ground truth
against which every approximate system's recall (Def. 4) is measured.
"""
from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.query import QueryPlan, _scan


def dss_knn(series_df: DataFrame, queries: np.ndarray, k: int) -> Dict[int, List[Tuple[int, float]]]:
    """Exact kNN for a batch of queries via one full-scan Spark job."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    full = QueryPlan(pids=(0,))
    rows = series_df.select("id", "series", F.lit(0).alias("pid"))
    return _scan(rows, dict.fromkeys(range(Q.shape[0]), full), Q, k)


def timed_dss_knn(series_df: DataFrame, queries: np.ndarray, k: int):
    """``dss_knn`` plus wall-clock seconds (the Q.R.T of the Dss rows)."""
    t0 = time.perf_counter()
    res = dss_knn(series_df, queries, k)
    return res, time.perf_counter() - t0
