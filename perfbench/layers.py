"""The per-layer metrics of a traced run, and how spans become them.

Values are medians over the traced ops of a run: builds for the build
spans, ``knn_batch`` calls for the query spans.
"""
from __future__ import annotations

import statistics

BUILD_CALLS = ("pivots.select_pivots", "skeleton.build_skeleton", "centroids.compute_centroids",
               "assignment.assign_batch", "trie.build_trie", "packing.ffd_pack",
               "skeleton.refine_counts", "index.save")
BUILD_SPARK = ("spark.toPandas", "spark.write_parquet", "spark.read_parquet")
REPORT_PHASES = ("sample_s", "skeleton_s", "redistribute_s", "stats_s")
QUERY_SPARK = ("spark.read_parquet", "spark.broadcast", "spark.toPandas")
VARIANTS = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")

PER_LAYER = {
    "index.build_index.s": "s",
    **{f"index.{p}": "s" for p in REPORT_PHASES},
    **{f"{name}.s": "s" for name in BUILD_CALLS},
    **{f"build.{name}.{kind}": unit for name in BUILD_SPARK
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "paa.paa_np.ns_per_row": "ns",
    "pivots.signatures_np.ns_per_row": "ns",
    "skeleton.assign_records.ns_per_row": "ns",
    "distances.ed_np.ns_per_row": "ns",
    "index.knn_batch.s": "s",
    "index.plan.ms_per_query": "ms",
    "skeleton.signatures.s": "s",
    "query.knn_scan.s": "s",
    **{f"query.{name}.s": "s" for name in QUERY_SPARK},
    "query.merge.s": "s",
    "query.partitions_per_query": "count",
    "query.rows_planned_per_query": "count",
    "query.rows_planned_per_result": "ratio",
    "query.batch_scan_fraction": "share",
    "query.expand_full_share": "share",
    "query.routing_recall": "share",
    "query.ranking_miss_share": "share",
    **{f"route.{v}.{kind}": unit for v in VARIANTS
       for kind, unit in (("partitions_per_query", "count"), ("ms_per_query", "ms"))},
    "skeleton.n_groups": "count",
    "skeleton.n_partitions": "count",
    "skeleton.size_bytes": "bytes",
    "index.fallback_share": "share",
    "index.internal_node_share": "share",
    "index.partition_fill_max_over_mean": "ratio",
    "index.partition_fill_max_over_capacity": "ratio",
    "index.unscanned_column_bytes_share": "share",
    "index.fingerprint_split_invariant": "bool",
    "trace.overhead_s": "s",
}


def _median_over(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def build_metrics(tracer, indexes) -> dict:
    """Build spans of every traced ``build_index`` call, and their reports."""
    rows = []
    for root, idx in zip(tracer.roots("index.build_index"), indexes):
        row = {"index.build_index.s": root.seconds}
        row.update({f"index.{p}": getattr(idx.report, p) for p in REPORT_PHASES})
        for name in BUILD_CALLS:
            row[f"{name}.s"] = tracer.inclusive(root, name)[0]
        for name in BUILD_SPARK:
            row[f"build.{name}.s"], row[f"build.{name}.calls"] = tracer.inclusive(root, name)
        rows.append(row)
    return _median_over(rows)


def query_metrics(tracer) -> dict:
    """Query spans of every traced ``knn_batch`` call."""
    rows = []
    for root in tracer.roots("index.knn_batch"):
        plan_s, plans = tracer.inclusive(root, "index.plan")
        scan = [s for s in tracer.descendants(root) if s.name == "query.knn_scan"][0]
        row = {
            "index.knn_batch.s": root.seconds,
            "index.plan.ms_per_query": 1e3 * plan_s / plans,
            "skeleton.signatures.s": tracer.inclusive(root, "skeleton.signatures")[0],
            "query.knn_scan.s": scan.seconds,
            "query.merge.s": tracer.self_seconds(scan),
        }
        for name in QUERY_SPARK:
            row[f"query.{name}.s"] = tracer.inclusive(scan, name)[0]
        rows.append(row)
    return _median_over(rows)
