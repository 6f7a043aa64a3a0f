"""Fig. 10 — impact of the number of pivots on build phases and accuracy.

Usage: python jobs/fig10_pivots_sweep.py [--pivots 16 32 64 128 256]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import base_parser, emit, resolve_workdir  # noqa: E402

from repro.harness.experiments import run_param_sweep  # noqa: E402
from repro.harness.session import get_spark  # noqa: E402
from repro.harness.tables import render_table  # noqa: E402
from repro.synth_data import SERIES_DATASETS  # noqa: E402


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--pivots", type=int, nargs="+", default=[16, 32, 64, 128, 256])
    p.add_argument("--datasets", nargs="+", default=list(SERIES_DATASETS))
    args = p.parse_args()
    spark = get_spark("fig10")
    rows = run_param_sweep(spark, resolve_workdir(args), "pivots", args.pivots,
                           [(ds, 200) for ds in args.datasets],
                           k=args.k, n_queries=args.queries)
    emit(rows, args, render_table(
        rows,
        ["pivots", "dataset", "sample_s", "skeleton_s", "redistribute_s",
         "build_s", "query_s", "recall", "recall_knn", "rows_scanned"],
        "Fig. 10 — number-of-pivots sweep"))
    spark.stop()


if __name__ == "__main__":
    main()
