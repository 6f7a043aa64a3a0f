"""CLIMBER query processing (paper §VI) — routing + distributed kNN scan.

Routing (driver side, against the broadcast-size skeleton): :func:`route`
plans a batch of queries. It computes the batch's signatures once and runs
Algorithm 3's lines 5–9 — Algorithm 1's OD → WD rules — through the build's
own kernel, `assignment.candidates`, once; then each query takes its
variant's rule from :data:`VARIANTS`:

* ``knn`` — Algorithm 3: deepest-trie-path → largest-node → random
  tie-breaks over the WD-tied groups; the target trie node's partitions.
* ``adaptive-2x`` / ``adaptive-4x`` — CLIMBER-kNN-Adaptive-NX: expand over
  the memorized next-best trie nodes of the smallest-OD groups, capped at
  N × the base algorithm's partition count.
* ``od-smallest`` — the §VII-C comparison point: scan *all* groups at the
  minimum OD.

Scanning (executor side): :func:`knn_scan` is the custom kNN operator —
one job; the executors read the planned files themselves. On the driver,
:func:`scan_bins` lists the parquet files of the planned pids that hold
rows (the index's ``pid_counts``; one ``os.listdir`` per ``pid=``
directory) and packs them by stored rows into at most
``defaultParallelism`` bins. The queries, the plans inverted into a
``pid → queries`` map (:func:`plans_by_pid`), the bins and the column list
are broadcast, and one ``mapInArrow`` job over ``spark.range(#bins)`` has
each task read its bin with pyarrow (:func:`read_files`: one row group at a
time, every page's CRC verified, the file's ``pid`` appended) and run
:func:`scan_batch` on each Arrow batch: decode the series once (the stored
``binary`` of n float64 readings, by `paa.series_matrix`), group the rows by
``pid``, and make one multi-query `distances.topk` per pid for the
queries that scan the whole partition, plus one per query that keeps the
trie-node filter (§VI "Localized Record-Level Similarity"): the rows whose
``node`` ordinal lies in the target node's range ``[ord, end)``; ``node`` is
read only then. The driver merges the partials by ``(dist, id)``
(`distances.merge_topk`), so no answer depends on how the rows are split.
Dss (`baselines.dss`), which has rows but no stored files, runs the same
`scan_batch` over a DataFrame (``_scan``). :func:`timed_knn` routes and
scans a batch under one clock.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession

from .assignment import FALLBACK_GID, candidates
from .distances import merge_topk, topk
from .packing import lpt_pack
from .paa import series_matrix
from .skeleton import Skeleton
from .trie import TrieNode, navigate


@dataclass
class QueryPlan:
    """Driver-side routing outcome for one query."""

    pids: Tuple[int, ...]
    prefixes: Tuple[Tuple[int, int], ...] = ()  # node-ordinal ranges [ord, end) to keep
    expand_full: bool = True  # scan whole partitions (node smaller than K, or baseline)
    gid: int = -1
    node_path: Tuple[int, ...] = ()  # the target node's pivot prefix
    node_count: float = 0.0

    @property
    def n_partitions(self) -> int:
        return len(self.pids)


def _gids(row: np.ndarray) -> List[int]:
    """Group ids marked in one row of a `candidates` mask; ``[G₀]`` if none."""
    return [int(c) + 1 for c in np.flatnonzero(row)] or [FALLBACK_GID]


def _knn(
    sk: Skeleton, sig_rs: np.ndarray, at_od: np.ndarray, tied: np.ndarray, k: int, qid: int
) -> QueryPlan:
    """Algorithm 3 lines 10–19: traverse each WD-tied group's trie, prefer the
    longest matched path, then the largest node, then a seeded random pick."""
    best: List[Tuple[int, TrieNode]] = [(g, navigate(sk.groups[g].trie, sig_rs)) for g in _gids(tied)]
    if len(best) > 1:
        max_len = max(n.depth() for _, n in best)
        best = [(g, n) for g, n in best if n.depth() == max_len]
    if len(best) > 1:
        max_size = max(n.count for _, n in best)
        best = [(g, n) for g, n in best if n.count == max_size]
    if len(best) > 1:
        rng = np.random.default_rng((sk.seed * 7_919 + qid) & 0x7FFFFFFF)
        best = [best[int(rng.integers(len(best)))]]
    gid, node = best[0]
    # §VI localized similarity: compare only the node's records; if the node
    # holds fewer than K, CLIMBER-kNN expands within the same partition(s).
    expand = node.count < k
    return QueryPlan(
        pids=tuple(sorted(node.pids)), prefixes=((node.ord, node.end),), expand_full=expand,
        gid=gid, node_path=node.prefix, node_count=node.count,
    )


def _adaptive(
    factor: int, sk: Skeleton, sig_rs: np.ndarray, at_od: np.ndarray, tied: np.ndarray, k: int, qid: int
) -> QueryPlan:
    """CLIMBER-kNN-Adaptive-NX (paper §VI).

    The paper triggers expansion when the target trie node "may contain
    less than k high-quality answers". At the paper's density (K=500 of
    10⁹ series) that risk only materializes when the node holds < K
    objects; at this repo's density (K=50 of 10⁴–10⁵) a node numerically
    covering K still routinely misses the true neighbours that a trie
    split or a group tie placed one partition over — so the expansion runs
    on every query and the NX partition budget, not the trigger, bounds
    the cost (see DESIGN.md §4, "query-density adaptation").

    Expansion accumulates the memorized best-matching trie nodes — the
    matched ancestor chain of every smallest-OD group, ranked by (path
    length desc, node size desc, gid) — up to ``factor`` × the base plan's
    partition count (the ``MaxNumPartitions`` cap), and evaluates every
    record of the partitions it loads.
    """
    base = _knn(sk, sig_rs, at_od, tied, k, qid)

    # Memorized candidates: the matched ancestor chain (the node `navigate`
    # reaches on each prefix of the matched path) of every smallest-OD group
    # — the "longest and 2nd longest best matches" of §VI, generalized to the
    # full chain so the NX partition budget, not the memo depth, is the
    # binding constraint.
    cands: List[Tuple[int, float, int, TrieNode]] = []  # sort key + node
    for g in _gids(at_od):
        trie = sk.groups[g].trie
        chain = (navigate(trie, sig_rs[:d]) for d in range(navigate(trie, sig_rs).depth() + 1))
        cands += [(-n.depth(), -n.count, g, n) for n in chain]
    cands.sort(key=lambda t: t[:3])

    max_parts = max(base.n_partitions, factor * max(1, base.n_partitions))
    pids = set(base.pids)
    for *_, n in cands:
        new_pids = n.pids - pids
        if len(pids) + len(new_pids) <= max_parts:
            pids |= new_pids
    # Expansion already paid the I/O for these partitions; evaluating every
    # loaded record (not just the memorized subtrees) is the paper's
    # "expands the search within the same partition" at zero extra I/O.
    return QueryPlan(
        pids=tuple(sorted(pids)), gid=base.gid, node_path=base.node_path,
        node_count=base.node_count,
    )


def _od_smallest(
    sk: Skeleton, sig_rs: np.ndarray, at_od: np.ndarray, tied: np.ndarray, k: int, qid: int
) -> QueryPlan:
    """Scan every partition of every smallest-OD group (Fig. 11(b) reference)."""
    groups = _gids(at_od)
    pids = frozenset().union(*(sk.groups[g].trie.pids for g in groups))
    return QueryPlan(pids=tuple(sorted(pids)), gid=groups[0], node_count=float("nan"))


# Each variant's per-query rule: (skeleton, sig_rs, at_od, tied, k, qid) → plan.
VARIANTS = {
    "knn": _knn,
    "adaptive-2x": partial(_adaptive, 2),
    "adaptive-4x": partial(_adaptive, 4),
    "od-smallest": _od_smallest,
}


def route(sk: Skeleton, queries: np.ndarray, k: int, variant: str, qids: Iterable[int]) -> List[QueryPlan]:
    """Plan a batch of raw query series (Q × n, or one series) with
    ``variant``: one plan per row, row ``i`` under query id ``qids[i]`` (the
    seed of its random tie-break). ``ValueError`` on an unknown variant or a
    non-finite reading."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    sig_rs, _ = sk.signatures(_query_matrix(queries))
    at_od, tied = candidates(sig_rs, sk.mask, sk.weights)
    rule = VARIANTS[variant]
    return [rule(sk, s, a, t, k, int(q)) for s, a, t, q in zip(sig_rs, at_od, tied, qids)]


# ---------------------------------------------------------------------------
# Distributed scan operator
# ---------------------------------------------------------------------------


def plans_by_pid(plans: Dict[int, QueryPlan]) -> Dict[int, list]:
    """``qid → QueryPlan`` inverted for the scan: ``pid → [(qid, node-ordinal
    ranges, or None when the query scans the whole partition)]``."""
    by_pid: Dict[int, list] = defaultdict(list)
    for q, pl in sorted(plans.items()):
        for p in pl.pids:
            by_pid[int(p)].append((q, None if pl.expand_full else pl.prefixes))
    return dict(by_pid)


def scan_batch(batch: pa.RecordBatch, Q: np.ndarray, by_pid: Dict[int, list], k: int) -> pa.RecordBatch:
    """The kNN operator's body: one Arrow batch of ``(id, series, pid[, node])``
    → its exact top-``k`` partials ``(qid, nid, dist)`` for `merge_topk`."""
    X = series_matrix(batch.column("series"))
    ids, pid = batch.column("id").to_numpy(), batch.column("pid").to_numpy()
    parts = []
    for p in np.unique(pid).tolist():
        if p not in by_pid:
            continue
        rows = np.flatnonzero(pid == p)
        Xp, idp = (X, ids) if len(rows) == len(ids) else (X[rows], ids[rows])
        full = np.array([q for q, ranges in by_pid[p] if ranges is None], dtype=np.int64)
        if len(full):
            j, nid, dist = topk(Xp, idp, Q[full], k)
            parts.append((full[j], nid, dist))
        filtered = [(q, ranges) for q, ranges in by_pid[p] if ranges is not None]
        node = batch.column("node").to_numpy()[rows] if filtered else None
        for q, ranges in filtered:
            sel = np.any([(lo <= node) & (node < hi) for lo, hi in ranges], axis=0)
            if sel.any():
                _, nid, dist = topk(Xp[sel], idp[sel], Q[q], k)
                parts.append((np.full(len(nid), q), nid, dist))
    qid, nid, dist = (np.concatenate(c) for c in zip(*parts)) if parts else ([], [], [])
    return pa.RecordBatch.from_arrays(
        [pa.array(qid, pa.int64()), pa.array(nid, pa.int64()), pa.array(dist, pa.float64())],
        names=["qid", "nid", "dist"])


def _query_matrix(queries: np.ndarray) -> np.ndarray:
    """The (Q × n) float64 query batch; ``ValueError`` on a non-finite reading."""
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    bad = np.flatnonzero(~np.isfinite(Q).all(axis=1))
    if len(bad):
        raise ValueError(f"non-finite query readings in query rows {bad.tolist()}")
    return Q


PARTIALS = "qid long, nid long, dist double"  # the schema of `scan_batch`'s output


def _operator(plans: Dict[int, QueryPlan], queries: np.ndarray, k: int):
    """The operator's broadcast ``(Q, pid → queries, k)`` and the stored
    columns it reads: ``id, series``, plus ``node`` when some plan keeps
    the trie-node filter."""
    by_pid = plans_by_pid(plans)
    filtered = any(pre is not None for entries in by_pid.values() for _, pre in entries)
    return (_query_matrix(queries), by_pid, int(k)), ["id", "series"] + (["node"] if filtered else [])


def _merged(partials, plans: Dict[int, QueryPlan], k: int) -> Dict[int, List[Tuple[int, float]]]:
    merged = merge_topk(partials["qid"], partials["nid"], partials["dist"], k)
    return {q: merged.get(q, []) for q in plans}


def _scan(rows: DataFrame, plans: Dict[int, QueryPlan], queries: np.ndarray, k: int):
    """The operator over a DataFrame ``rows`` (``id, series, pid[, node]``):
    one ``mapInArrow`` job of `scan_batch`, then one `merge_topk`. Dss's
    front end, which has rows but no stored files."""
    args, cols = _operator(plans, queries, k)
    bc = rows.sparkSession.sparkContext.broadcast(args)

    def gen(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        return (scan_batch(batch, *bc.value) for batch in batches)

    return _merged(rows.select(*cols, "pid").mapInArrow(gen, PARTIALS).toPandas(), plans, k)


def scan_bins(index, pids: Iterable[int], n_bins: int) -> List[List[Tuple[str, int]]]:
    """The stored files of the planned ``pids`` that hold rows (by
    ``index.pid_counts``; names starting with ``.`` or ``_`` skipped, as
    Hadoop does), as ``(path, pid)``, packed into ``min(#files, n_bins)``
    bins by stored rows (`packing.lpt_pack`, ties by pid). A pid's rows are
    split evenly over its files."""
    files = []
    for p in sorted({int(p) for p in pids if index.pid_counts.get(p)}):
        d = os.path.join(index.data_path, f"pid={p}")
        names = sorted(f for f in os.listdir(d) if not f.startswith((".", "_")))
        files += [((p, os.path.join(d, f)), index.pid_counts[p] / len(names)) for f in names]
    return [[(path, p) for p, path in b] for b in lpt_pack(files, n_bins)]


def read_files(files: Iterable[Tuple[str, int]], columns: List[str]) -> Iterator[pa.RecordBatch]:
    """The ``columns`` of stored files ``(path, pid)``, one Arrow batch per
    row group or less, each with its file's constant ``pid`` appended. Every
    page's CRC is verified, so a corrupted file raises."""
    for path, p in files:
        with pq.ParquetFile(path, page_checksum_verification=True) as f:
            for batch in f.iter_batches(columns=columns):
                yield batch.append_column("pid", pa.array(np.full(batch.num_rows, p, dtype=np.int64)))


def knn_scan(
    spark: SparkSession,
    index,
    plans: Dict[int, QueryPlan],
    queries: np.ndarray,
    k: int,
) -> Dict[int, List[Tuple[int, float]]]:
    """Execute a batch of planned kNN scans over ``index`` (a `ClimberIndex`
    or `BaselineIndex`) in a single Spark job, or none when no planned pid
    holds rows.

    ``plans[qid]`` indexes row ``qid`` of ``queries`` (Q × n). Returns
    ``qid → [(series id, ED distance)]`` sorted ascending, length ≤ k.
    """
    args, cols = _operator(plans, queries, k)
    sc = spark.sparkContext
    bins = scan_bins(index, {p for pl in plans.values() for p in pl.pids}, sc.defaultParallelism)
    if not bins:
        return {q: [] for q in plans}
    bc = sc.broadcast((args, bins, cols))

    def gen(tasks: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        args, bins, cols = bc.value  # from the broadcast: the closure holds only `bc`
        for task in tasks:
            for b in task.column("id").to_pylist():
                for batch in read_files(bins[b], cols):
                    yield scan_batch(batch, *args)

    partials = spark.range(len(bins), numPartitions=len(bins)).mapInArrow(gen, PARTIALS).toPandas()
    return _merged(partials, plans, k)


@dataclass
class QueryStats:
    """Per-batch execution metrics used by the experiment harness."""

    seconds: float = 0.0
    partitions_touched: Dict[int, int] = field(default_factory=dict)
    rows_scanned: Dict[int, int] = field(default_factory=dict)


def timed_knn(spark, index, planner, queries, k):
    """Route (``planner(Q) → {qid: QueryPlan}``) and :func:`knn_scan` a batch
    over ``index`` under one clock; returns ``(results, QueryStats)``."""
    t0 = time.perf_counter()
    Q = _query_matrix(queries)
    plans = planner(Q)
    res = knn_scan(spark, index, plans, Q, k)
    stats = QueryStats(seconds=time.perf_counter() - t0)
    for qid, pl in plans.items():
        stats.partitions_touched[qid] = pl.n_partitions
        stats.rows_scanned[qid] = int(sum(index.pid_counts.get(p, 0) for p in pl.pids))
    return res, stats
