"""Outside-in facts about a built CLIMBER index and its query plans.

Everything is read through the public ``ClimberIndex`` / ``Skeleton`` /
``QueryPlan`` API, the ``pid=`` directories and the parquet footers. No
stored column other than ``id`` is read, so dropping or renaming the
``gid``, ``node``, ``paa`` and ``sig_*`` columns does not break it.
"""
from __future__ import annotations

import glob
import hashlib
import math
import os
import time

import numpy as np
import pyarrow.dataset as ds
import pyarrow.parquet as pq

from repro.core.assignment import FALLBACK_GID
from repro.core.distances import ed_np
from repro.core.index import ClimberIndex
from repro.core.paa import paa_np
from repro.core.pivots import signatures_np

from layers import VARIANTS


def read_layout(data_path: str) -> tuple[np.ndarray, np.ndarray]:
    """``(id, pid)`` of every stored row, the pid taken from its directory."""
    t = ds.dataset(data_path, format="parquet", partitioning="hive").to_table(columns=["id", "pid"])
    return t.column("id").to_numpy(), t.column("pid").to_numpy().astype(np.int64)


def stored_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files)


def fingerprint(idx: ClimberIndex) -> str:
    """Pivots, partition count and partition sizes, hashed: equal builds match."""
    piv = hashlib.sha1(np.ascontiguousarray(idx.skeleton.pivots).tobytes()).hexdigest()[:12]
    counts = hashlib.sha1(repr(sorted(idx.pid_counts.items())).encode()).hexdigest()[:12]
    return f"pivots={piv} n_partitions={idx.skeleton.n_partitions} pid_counts={counts}"


def eligible_rows(plan, pid_counts: dict) -> int:
    """Rows a plan lets the scan compare: whole partitions when it expands,
    otherwise at most the target node's (exact, refined) count."""
    rows = sum(pid_counts.get(p, 0) for p in plan.pids)
    return rows if plan.expand_full else min(rows, int(plan.node_count))


def _same_plan(a, b) -> bool:
    return ((a.pids, a.prefixes, a.expand_full, a.gid, a.node_path)
            == (b.pids, b.prefixes, b.expand_full, b.gid, b.node_path)
            and (a.node_count == b.node_count
                 or (math.isnan(a.node_count) and math.isnan(b.node_count))))


def check_build(idx: ClimberIndex, layout, n: int, Q: np.ndarray, k: int) -> list[str]:
    """Reasons why a built index is wrong; empty when it passes."""
    ids, pids = layout
    bad = []
    if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
        bad.append("ids are not each in exactly one pid= directory")
    u, c = np.unique(pids, return_counts=True)
    if dict(zip(u.tolist(), c.tolist())) != idx.pid_counts:
        bad.append("pid_counts disagree with the pid= directories")
    if sum(idx.pid_counts.values()) != n:
        bad.append(f"sum(pid_counts) = {sum(idx.pid_counts.values())}, expected {n}")
    loaded = ClimberIndex.load(idx.out_dir)
    for v in VARIANTS:
        if not all(_same_plan(idx.plan(q, k, variant=v, qid=i), loaded.plan(q, k, variant=v, qid=i))
                   for i, q in enumerate(Q)):
            bad.append(f"loaded index plans differ ({v})")
    return bad


def index_counters(idx: ClimberIndex, X: np.ndarray, layout, scanned_columns: set) -> dict:
    sk, n = idx.skeleton, X.shape[0]
    pid_gid = {}
    for gid, g in sk.groups.items():
        for p in set(g.trie.pids) | {g.default_pid}:
            pid_gid[p] = gid
    fallback = sum(c for p, c in idx.pid_counts.items() if pid_gid.get(p) == FALLBACK_GID)

    # A record stops at an internal trie node when its rank-sensitive
    # signature leaves the trie early; such records go to a default partition.
    ids, pids = layout
    pid_of = np.empty(n, dtype=np.int64)
    pid_of[ids] = pids
    sig_rs, _ = sk.signatures(X)
    internal = 0
    for i in range(n):
        node = sk.groups[pid_gid[int(pid_of[i])]].trie
        for p in sig_rs[i]:
            child = node.children.get(int(p))
            if child is None:
                break
            node = child
        internal += bool(node.children)

    col_bytes: dict[str, int] = {}
    for f in glob.glob(os.path.join(idx.data_path, "pid=*", "*.parquet")):
        md = pq.read_metadata(f)
        for rg in range(md.num_row_groups):
            for c in range(md.num_columns):
                col = md.row_group(rg).column(c)
                name = col.path_in_schema.split(".")[0]
                col_bytes[name] = col_bytes.get(name, 0) + col.total_compressed_size
    unscanned = sum(b for name, b in col_bytes.items() if name not in scanned_columns)

    fill_max = max(idx.pid_counts.values())
    return {
        "skeleton.n_groups": len(sk.groups),
        "skeleton.n_partitions": sk.n_partitions,
        "skeleton.size_bytes": idx.global_index_size_bytes(),
        "index.fallback_share": fallback / n,
        "index.internal_node_share": internal / n,
        "index.partition_fill_max_over_mean": fill_max * sk.n_partitions / n,
        "index.partition_fill_max_over_capacity": fill_max / idx.params.capacity,
        "index.unscanned_column_bytes_share": unscanned / sum(col_bytes.values()),
    }


def _median_seconds(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def kernel_counters(idx: ClimberIndex, X: np.ndarray, rows: int = 5000) -> dict:
    """The executor kernels, timed on the driver over the benchmark's matrix."""
    sk = idx.skeleton
    Xs = X[:rows]
    paa = paa_np(Xs, sk.w)
    sig_rs, _ = signatures_np(paa, sk.pivots, sk.m)
    ids = np.arange(len(Xs))
    ns = 1e9 / len(Xs)
    return {
        "paa.paa_np.ns_per_row": ns * _median_seconds(lambda: paa_np(Xs, sk.w)),
        "pivots.signatures_np.ns_per_row": ns * _median_seconds(lambda: signatures_np(paa, sk.pivots, sk.m)),
        "skeleton.assign_records.ns_per_row": ns * _median_seconds(lambda: sk.assign_records(sig_rs, ids), 3),
        "distances.ed_np.ns_per_row": ns * _median_seconds(lambda: ed_np(Xs, X[-1])),
    }


def route_counters(idx: ClimberIndex, Q: np.ndarray, k: int) -> dict:
    """Driver-only routing cost and fan-out of every variant."""
    out = {}
    for v in VARIANTS:
        t = time.perf_counter()
        plans = [idx.plan(q, k, variant=v, qid=i) for i, q in enumerate(Q)]
        out[f"route.{v}.ms_per_query"] = 1e3 * (time.perf_counter() - t) / len(Q)
        out[f"route.{v}.partitions_per_query"] = float(np.mean([p.n_partitions for p in plans]))
    return out


def plan_counters(calls, pid_counts: dict, pid_of: np.ndarray, truths: dict, recall: float,
                  n: int, k: int) -> dict:
    """Fan-out and waste of the plans behind the checked answers.

    ``calls`` is one ``[(query id, plan)]`` list per ``knn_batch`` call;
    ``truths`` maps a query id to its exact neighbour ids; ``pid_of`` maps a
    series id to the partition it is stored in.
    """
    plans = [(qid, p) for call in calls for qid, p in call]
    rows = [eligible_rows(p, pid_counts) for _, p in plans]
    routed = [np.isin(pid_of[truths[qid]], p.pids).mean() for qid, p in plans]
    scan = [sum(pid_counts.get(pid, 0) for pid in {x for _, p in call for x in p.pids}) / n
            for call in calls]
    routing_recall = float(np.mean(routed))
    return {
        "query.partitions_per_query": float(np.mean([p.n_partitions for _, p in plans])),
        "query.rows_planned_per_query": float(np.mean(rows)),
        "query.rows_planned_per_result": float(np.mean(rows)) / k,
        "query.batch_scan_fraction": float(np.mean(scan)),
        "query.expand_full_share": float(np.mean([p.expand_full for _, p in plans])),
        "query.routing_recall": routing_recall,
        "query.ranking_miss_share": routing_recall - recall,
    }
