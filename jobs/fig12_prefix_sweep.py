"""Fig. 12 — impact of the pivot-prefix length m (relative to the default).

Usage: python jobs/fig12_prefix_sweep.py [--prefixes 3 4 6 8 10 12]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import base_parser, emit, resolve_workdir  # noqa: E402

from repro.harness.experiments import SWEEP_GB, run_param_sweep  # noqa: E402
from repro.harness.session import get_spark  # noqa: E402
from repro.harness.tables import render_table  # noqa: E402


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--prefixes", type=int, nargs="+", default=[3, 4, 6, 8, 10, 12])
    args = p.parse_args()
    spark = get_spark("fig12")
    rows = run_param_sweep(spark, resolve_workdir(args), "prefix", args.prefixes,
                           [("randomwalk", SWEEP_GB)], k=args.k, n_queries=args.queries)
    emit(rows, args, render_table(
        rows,
        ["prefix", "build_s", "index_bytes", "query_s", "recall",
         "rel_build_s", "rel_index_bytes", "rel_query_s", "rel_recall"],
        "Fig. 12 — prefix-length sweep (rel_* normalized to the default m)"))
    spark.stop()


if __name__ == "__main__":
    main()
