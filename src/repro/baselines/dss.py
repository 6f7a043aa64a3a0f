"""Dss — Distributed Sequential Scan (paper §VII-A).

The vanilla full-scan baseline: every partition is scanned in parallel,
each task computes vectorized Euclidean distances for the whole query
batch and emits each batch's exact top-K (`distances.topk`); the driver
merges partials into the global exact top-K by ``(dist, id)``
(`distances.merge_topk`), so the answer does not depend on how the rows
are partitioned. Dss produces the *exact* answer set and is
therefore also the ground truth against which every approximate system's
recall (Def. 4) is measured.
"""
from __future__ import annotations

import time
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..core.distances import merge_topk, topk


def dss_knn(series_df: DataFrame, queries: np.ndarray, k: int) -> Dict[int, List[Tuple[int, float]]]:
    """Exact kNN for a batch of queries via one full-scan Spark job."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    sc = series_df.sparkSession.sparkContext
    bc = sc.broadcast({"Q": Q, "k": int(k)})

    def scan(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        state = bc.value
        for pdf in batches:
            if len(pdf):
                X = np.stack(pdf["series"].to_numpy())
                qid, nid, dist = topk(X, pdf["id"].to_numpy(), state["Q"], state["k"])
                yield pd.DataFrame({"qid": qid, "nid": nid, "dist": dist})

    partials = (
        series_df.select("id", "series")
        .mapInPandas(scan, schema="qid long, nid long, dist double")
        .toPandas()
    )
    results: Dict[int, List[Tuple[int, float]]] = {q: [] for q in range(Q.shape[0])}
    results.update(merge_topk(partials["qid"], partials["nid"], partials["dist"], k))
    return results


def timed_dss_knn(series_df: DataFrame, queries: np.ndarray, k: int):
    """``dss_knn`` plus wall-clock seconds (the Q.R.T of the Dss rows)."""
    t0 = time.perf_counter()
    res = dss_knn(series_df, queries, k)
    return res, time.perf_counter() - t0
