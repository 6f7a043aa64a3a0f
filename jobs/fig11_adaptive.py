"""Fig. 11 — (a) adaptive variants vs CLIMBER-kNN under K > node capacity;
(b) OD-Smallest vs CLIMBER variants (data touched / recall ratios).

Usage: python jobs/fig11_adaptive.py [--part a|b|both]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import base_parser, emit, resolve_workdir  # noqa: E402

from repro.harness.experiments import run_adaptive_eval, run_od_smallest_eval  # noqa: E402
from repro.harness.session import get_spark  # noqa: E402
from repro.harness.tables import render_table  # noqa: E402


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--part", choices=["a", "b", "both"], default="both")
    args = p.parse_args()
    spark = get_spark("fig11")
    wd = resolve_workdir(args)
    rows, tables = [], []
    if args.part in ("a", "both"):
        a = run_adaptive_eval(spark, wd, n_queries=min(args.queries, 6))
        rows += a
        tables.append(render_table(
            a, ["ratio", "system", "recall", "improvement_pct"],
            "Fig. 11(a) — adaptive improvement at K = ratio × node size"))
    if args.part in ("b", "both"):
        b = run_od_smallest_eval(spark, wd, k=args.k, n_queries=args.queries)
        rows += b
        tables.append(render_table(
            b, ["system", "recall", "rows_scanned", "od_data_ratio", "od_recall_ratio"],
            "Fig. 11(b) — OD-Smallest relative scores"))
    emit(rows, args, "\n\n".join(tables))
    spark.stop()


if __name__ == "__main__":
    main()
