"""Experiment harnesses reproducing the paper's evaluation (§VII).

Scale substitution (DESIGN.md §4): the paper's dataset *sizes in GB* map
linearly onto series counts — 200 GB → 10k series, 1 TB → 50k, 1.5 TB →
75k — at the paper's series lengths. Parameter defaults are the paper's
scaled by the same factor family: r=64 pivots (paper 200), prefix m=6
(paper 10), K=50 (paper 500), capacity c=1000 series (paper one HDFS
block). Queries are random members of the dataset; results average over
the batch (paper: 50 queries; default 10 here, configurable).

Every runner measures through two helpers: :func:`built` builds one
distributed index under one wall clock, and :func:`query_row` measures
one query batch (time, recall against Dss, data touched); each first calls
:func:`warm_up`, one unmeasured build and query batch. Each runner
returns a list of row dicts and is wrapped by a ``jobs/<name>.py``
entrypoint; the row schema is stable so EXPERIMENTS.md can cite paper
vs. measured values column by column.
"""
from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..baselines.common import BaselineIndex
from ..baselines.dpisax import build_dpisax
from ..baselines.dss import timed_dss_knn
from ..baselines.tardis import build_tardis
from ..core.index import ClimberIndex, ClimberParams, build_index
from ..core.query import QueryStats, route
from ..memsys.odyssey import CapacityExceeded, OdysseyEngine
from ..memsys.parlayann import ParlayAnnHnsw
from ..synth_data import SERIES_DATASETS
from .recall import recall_batch

#: paper GB sizes → series counts (RandomWalk rows of Figs 7–8 and Table I)
GB_TO_N = {200: 10_000, 400: 20_000, 600: 30_000, 800: 40_000, 1000: 50_000, 1500: 75_000}

#: paper defaults → scaled defaults used across harnesses
DEFAULT_K = 50  # paper: 500
DEFAULT_QUERIES = 10  # paper: 50
DEFAULT_PARAMS = ClimberParams()  # w=16, r=64, m=6, c=1000, alpha=0.25
SWEEP_GB = 400  # the RandomWalk size of Figs. 9, 11 and 12

#: Table I memory budgets (bytes of the raw float64 matrix): Odyssey fails
#: above the 800 GB-equivalent (N=40k × 256 × 8 ≈ 82 MiB), ParlayANN above
#: the 400 GB-equivalent (N=20k ≈ 41 MiB) — matching the paper's X cells.
ODYSSEY_BUDGET = 90 * 1024 * 1024
PARLAYANN_BUDGET = 45 * 1024 * 1024

SYSTEMS = ("CLIMBER", "TARDIS", "DPiSAX")  # the distributed indexes, in row order
CLIMBER_VARIANTS = ("knn", "adaptive-2x", "adaptive-4x")
DEFAULT_VARIANT = "adaptive-4x"  # the paper's CLIMBER outside Figs. 9 and 11
ADAPTIVE_RATIOS = (1, 2, 4, 6, 10)  # Fig. 11(a)'s K / target-node-size
#: swept parameter, as row key and job column → its ClimberParams field
SWEEPS = {"pivots": "r", "prefix": "m"}


def dataset_df(spark: SparkSession, name: str, n: int, seed: int = 0) -> DataFrame:
    """Materialize (and cache) one of the paper's four datasets at size n."""
    if name not in SERIES_DATASETS:
        raise ValueError(f"unknown dataset {name!r}; options: {sorted(SERIES_DATASETS)}")
    return SERIES_DATASETS[name](spark, n=n, seed=11 + seed).cache()


def pick_queries(df: DataFrame, n_queries: int, seed: int = 42) -> np.ndarray:
    """Random query objects drawn from the dataset itself (paper §VII-A)."""
    n = df.count()
    qids = np.random.default_rng(seed).choice(n, size=min(n_queries, n), replace=False)
    pdf = df.where(F.col("id").isin([int(i) for i in qids])).toPandas()
    pdf = pdf.set_index("id").loc[[int(i) for i in qids]]
    return np.stack(pdf["series"].to_numpy())


def collect_matrix(df: DataFrame) -> tuple:
    """Collect (ids, X) for the in-memory systems (their 'load into RAM')."""
    pdf = df.orderBy("id").toPandas()
    return pdf["id"].to_numpy(), np.stack(pdf["series"].to_numpy())


def _avg(d: Dict[int, int]) -> Optional[float]:
    return float(np.mean(list(d.values()))) if d else None


# ---------------------------------------------------------------------------
# The two measurement helpers every runner uses
# ---------------------------------------------------------------------------


@contextmanager
def built(
    spark: SparkSession, system: str, df: DataFrame, workdir: str, params: ClimberParams
) -> Iterator[Tuple[object, float]]:
    """Build ``system``'s index over ``df`` in a fresh directory under ``workdir``.

    Yields ``(index, build_s)``, with ``build_s`` one wall clock around the
    whole build for every system; on exit deletes that directory and
    nothing else of ``workdir``.
    """
    os.makedirs(workdir, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{system.lower()}-", dir=workdir)
    baseline = dict(w=params.w, capacity=params.capacity, alpha=params.alpha, seed=params.seed)
    try:
        t0 = time.perf_counter()
        if system == "CLIMBER":
            index = build_index(spark, df, path, params)
        elif system == "TARDIS":
            index = build_tardis(df, path, **baseline)
        elif system == "DPiSAX":
            index = build_dpisax(df, path, **baseline)
        else:
            raise ValueError(f"unknown system {system!r}; options: {SYSTEMS}")
        yield index, time.perf_counter() - t0
    finally:
        shutil.rmtree(path, ignore_errors=True)


def query_row(
    spark: SparkSession, index, queries: np.ndarray, k: int, gt, variant: Optional[str]
) -> Dict:
    """Measure one query batch against the exact answers ``gt``.

    ``index`` is a CLIMBER index (queried as ``variant``), a TARDIS or
    DPiSAX index, or a built in-memory engine. Returns the mean seconds per
    query, the recall, and the mean partitions and rows each query touched
    (None for an in-memory engine, which has no partitions).
    """
    t0 = time.perf_counter()
    if isinstance(index, ClimberIndex):
        res, stats = index.knn_batch(spark, queries, k, variant=variant)
    elif isinstance(index, BaselineIndex):
        res, stats = index.knn_batch(spark, queries, k)
    else:
        res = index.knn_batch(queries, k)
        stats = QueryStats(seconds=time.perf_counter() - t0)
    return dict(query_s=stats.seconds / max(1, len(res)), recall=recall_batch(res, gt),
                partitions=_avg(stats.partitions_touched),
                rows_scanned=_avg(stats.rows_scanned))


@contextmanager
def _instance(spark: SparkSession, dataset: str, gb: int, n_queries: int):
    """One cached dataset instance and its query batch, unpersisted on exit."""
    df = dataset_df(spark, dataset, GB_TO_N[gb])
    try:
        yield df, pick_queries(df, n_queries)
    finally:
        df.unpersist()


def warm_up(spark: SparkSession, df: DataFrame, queries: np.ndarray, k: int, workdir: str) -> None:
    """One unmeasured CLIMBER build and query batch: the session's first
    Spark Python tasks start the workers and import the kernels, which
    would otherwise be charged to a runner's first measured build and query.
    Every runner calls it once, on its first dataset instance."""
    with built(spark, "CLIMBER", df, workdir, DEFAULT_PARAMS) as (idx, _):
        idx.knn_batch(spark, queries, k, variant=DEFAULT_VARIANT)


# ---------------------------------------------------------------------------
# Core evaluation unit: one dataset instance, all distributed systems
# ---------------------------------------------------------------------------


@contextmanager
def _built_systems(spark: SparkSession, df: DataFrame, workdir: str):
    """Every distributed system built once: ``{system: (index, build_s)}``."""
    with ExitStack() as stack:
        yield {s: stack.enter_context(built(spark, s, df, workdir, DEFAULT_PARAMS))
               for s in SYSTEMS}


def _query_systems(spark, df, systems, queries, k, variants: Sequence[str]) -> List[Dict]:
    """Dss, then one row per built system (CLIMBER once per variant)."""
    gt, dss_s = timed_dss_knn(df, queries, k)
    rows = [dict(system="Dss", build_s=0.0, index_bytes=0, query_s=dss_s / max(1, len(gt)),
                 recall=1.0, partitions=None, rows_scanned=None)]
    for name, (index, build_s) in systems.items():
        for variant in variants if name == "CLIMBER" else (None,):
            rows.append(dict(system=name if variant is None else f"{name}-{variant}",
                             build_s=build_s, index_bytes=index.global_index_size_bytes(),
                             **query_row(spark, index, queries, k, gt, variant)))
    return rows


def eval_distributed(
    spark: SparkSession, df: DataFrame, queries: np.ndarray, k: int, workdir: str
) -> List[Dict]:
    """Build every distributed system on one dataset instance, then query
    Dss and each system (CLIMBER as its default variant); one row per system
    with build/query/recall metrics."""
    with _built_systems(spark, df, workdir) as systems:
        return _query_systems(spark, df, systems, queries, k, (DEFAULT_VARIANT,))


# ---------------------------------------------------------------------------
# Figs. 7 and 8: every system per dataset (a,b) and per RandomWalk size (c,d)
# ---------------------------------------------------------------------------


def run_eval(
    spark: SparkSession,
    workdir: str,
    points: Sequence[Tuple[str, int]],
    *,
    k: int = DEFAULT_K,
    n_queries: int = DEFAULT_QUERIES,
) -> List[Dict]:
    """:func:`eval_distributed` at each ``(dataset, gb)`` point, after
    :func:`warm_up` at the first."""
    rows: List[Dict] = []
    for i, (ds, gb) in enumerate(points):
        with _instance(spark, ds, gb, n_queries) as (df, queries):
            if i == 0:
                warm_up(spark, df, queries, k, workdir)
            rows += [dict(dataset=ds, gb=gb, n=GB_TO_N[gb], k=k, **r)
                     for r in eval_distributed(spark, df, queries, k, workdir)]
    return rows


# ---------------------------------------------------------------------------
# Fig. 9(a) recall + Fig. 9(b) query-time table: K sweep, all algorithms
# ---------------------------------------------------------------------------


def run_k_sweep(
    spark: SparkSession,
    workdir: str,
    *,
    gb: int = SWEEP_GB,
    ks: Sequence[int] = (10, 25, 50, 100, 200, 400),
    n_queries: int = DEFAULT_QUERIES,
) -> List[Dict]:
    """Every system built once on RandomWalk; each queried at every K."""
    with _instance(spark, "randomwalk", gb, n_queries) as (df, queries):
        warm_up(spark, df, queries, ks[0], workdir)
        with _built_systems(spark, df, workdir) as systems:
            return [dict(k=k, **r) for k in ks
                    for r in _query_systems(spark, df, systems, queries, k, CLIMBER_VARIANTS)]


# ---------------------------------------------------------------------------
# Fig. 10 (number of pivots) and Fig. 12 (prefix length): parameter sweeps
# ---------------------------------------------------------------------------


def run_param_sweep(
    spark: SparkSession,
    workdir: str,
    param: str,
    values: Sequence[int],
    points: Sequence[Tuple[str, int]],
    *,
    k: int = DEFAULT_K,
    n_queries: int = DEFAULT_QUERIES,
) -> List[Dict]:
    """CLIMBER rebuilt at each value of one parameter (a key of
    :data:`SWEEPS`) at each ``(dataset, gb)`` point.

    Rows carry the build phases of Fig. 10(a), the default variant's
    measurements, ``recall_knn``, and ``rel_*`` columns normalised to the
    point's row at the default parameter value (Fig. 12).
    """
    field = SWEEPS[param]
    rows: List[Dict] = []
    for i, (ds, gb) in enumerate(points):
        with _instance(spark, ds, gb, n_queries) as (df, queries):
            if i == 0:
                warm_up(spark, df, queries, k, workdir)
            gt, _ = timed_dss_knn(df, queries, k)
            point: List[Dict] = []
            for v in values:
                params = replace(DEFAULT_PARAMS, **{field: v})
                with built(spark, "CLIMBER", df, workdir, params) as (idx, build_s):
                    rep = idx.report
                    # CLIMBER-kNN isolates representation quality: it always
                    # scans a single target node, so its recall tracks how
                    # well the parameter preserves similarity (the paper's
                    # Fig. 10(b) effect) without the adaptive group-wide
                    # expansion masking it.
                    point.append(dict(
                        {param: v}, dataset=ds, gb=gb, k=k, build_s=build_s,
                        sample_s=rep.sample_s, skeleton_s=rep.skeleton_s,
                        redistribute_s=rep.redistribute_s + rep.stats_s,
                        index_bytes=idx.global_index_size_bytes(),
                        **query_row(spark, idx, queries, k, gt, DEFAULT_VARIANT),
                        recall_knn=query_row(spark, idx, queries, k, gt, "knn")["recall"],
                    ))
            default = getattr(DEFAULT_PARAMS, field)
            base = next((r for r in point if r[param] == default), point[0])
            for r in point:
                for col in ("build_s", "index_bytes", "query_s", "recall"):
                    r[f"rel_{col}"] = r[col] / max(1e-12, base[col])
            rows += point
    return rows


# ---------------------------------------------------------------------------
# Fig. 11(a): adaptive vs non-adaptive when K exceeds the target node size
# ---------------------------------------------------------------------------


def run_adaptive_eval(spark: SparkSession, workdir: str, *, n_queries: int = 6) -> List[Dict]:
    """Per query: find the target trie node's capacity m, then sweep K = ratio·m.

    Mirrors the paper's stress test: x-axis K/m, y-axis the recall
    improvement of the adaptive variants over CLIMBER-kNN (bubble = the
    absolute CLIMBER-kNN recall).
    """
    with _instance(spark, "randomwalk", SWEEP_GB, n_queries) as (df, queries):
        warm_up(spark, df, queries, DEFAULT_K, workdir)
        with built(spark, "CLIMBER", df, workdir, DEFAULT_PARAMS) as (idx, _):
            node_caps = [max(1, int(p.node_count))
                         for p in route(idx.skeleton, queries, 1, "knn", range(len(queries)))]
            rows: List[Dict] = []
            for ratio in ADAPTIVE_RATIOS:
                recalls = {v: [] for v in CLIMBER_VARIANTS}
                for cap, q in zip(node_caps, queries):
                    k = max(1, ratio * cap)
                    gt, _ = timed_dss_knn(df, q[None, :], k)
                    for variant, vals in recalls.items():
                        vals.append(query_row(spark, idx, q[None, :], k, gt, variant)["recall"])
                base = float(np.mean(recalls["knn"]))
                for variant, vals in recalls.items():
                    rows.append(dict(ratio=ratio, system=f"CLIMBER-{variant}",
                                     recall=float(np.mean(vals)),
                                     improvement_pct=100.0 * (float(np.mean(vals)) - base)))
            return rows


# ---------------------------------------------------------------------------
# Fig. 11(b): OD-Smallest vs CLIMBER variants (data touched / recall ratios)
# ---------------------------------------------------------------------------


def run_od_smallest_eval(
    spark: SparkSession,
    workdir: str,
    *,
    k: int = DEFAULT_K,
    n_queries: int = DEFAULT_QUERIES,
) -> List[Dict]:
    with _instance(spark, "randomwalk", SWEEP_GB, n_queries) as (df, queries):
        warm_up(spark, df, queries, k, workdir)
        with built(spark, "CLIMBER", df, workdir, DEFAULT_PARAMS) as (idx, _):
            gt, _ = timed_dss_knn(df, queries, k)
            od = query_row(spark, idx, queries, k, gt, "od-smallest")
            rows: List[Dict] = []
            for variant in CLIMBER_VARIANTS:
                r = query_row(spark, idx, queries, k, gt, variant)
                rows.append(dict(system=f"CLIMBER-{variant}", **r,
                                 od_data_ratio=od["rows_scanned"] / max(1.0, r["rows_scanned"]),
                                 od_recall_ratio=od["recall"] / max(1e-9, r["recall"])))
            rows.append(dict(system="OD-Smallest", **od, od_data_ratio=1.0, od_recall_ratio=1.0))
            return rows


# ---------------------------------------------------------------------------
# Table I: CLIMBER vs Odyssey vs ParlayANN-HNSW
# ---------------------------------------------------------------------------


def run_table1(
    spark: SparkSession,
    workdir: str,
    *,
    gbs: Sequence[int] = (200, 400, 600, 800, 1000, 1500),
    k: int = DEFAULT_K,
    n_queries: int = DEFAULT_QUERIES,
) -> List[Dict]:
    rows: List[Dict] = []
    for i, gb in enumerate(gbs):
        with _instance(spark, "randomwalk", gb, n_queries) as (df, queries):
            if i == 0:
                warm_up(spark, df, queries, k, workdir)
            gt, _ = timed_dss_knn(df, queries, k)

            # CLIMBER (default variant adaptive-4x, as in the paper)
            with built(spark, "CLIMBER", df, workdir, DEFAULT_PARAMS) as (idx, build_s):
                r = query_row(spark, idx, queries, k, gt, DEFAULT_VARIANT)
            rows.append(dict(gb=gb, system="CLIMBER", ict_s=build_s, qrt_s=r["query_s"],
                             recall=r["recall"]))

            # In-memory systems: load (collect) + build counts toward I.C.T.
            for name, engine in (
                ("Odyssey", OdysseyEngine(memory_budget_bytes=ODYSSEY_BUDGET)),
                ("ParlayANN", ParlayAnnHnsw(memory_budget_bytes=PARLAYANN_BUDGET)),
            ):
                t0 = time.perf_counter()
                try:
                    ids, X = collect_matrix(df)
                    engine.build(X, ids)
                except CapacityExceeded:
                    rows.append(dict(gb=gb, system=name, ict_s=None, qrt_s=None, recall=None))
                    continue
                ict = time.perf_counter() - t0
                r = query_row(spark, engine, queries, k, gt, None)
                rows.append(dict(gb=gb, system=name, ict_s=ict, qrt_s=r["query_s"],
                                 recall=r["recall"]))
    return rows
