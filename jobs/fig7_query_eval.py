"""Fig. 7 — query time + recall, and Fig. 8 — index construction time +
global index size, per dataset (a,b) and per size (c,d), from one run.

Usage: python jobs/fig7_query_eval.py [--sweep datasets|size]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import base_parser, emit, resolve_workdir  # noqa: E402

from repro.harness.experiments import run_eval  # noqa: E402
from repro.harness.session import get_spark  # noqa: E402
from repro.harness.tables import render_table  # noqa: E402
from repro.synth_data import SERIES_DATASETS  # noqa: E402


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--sweep", choices=["datasets", "size"], default="datasets")
    p.add_argument("--gbs", type=int, nargs="+", default=[200, 400, 600, 800, 1000])
    args = p.parse_args()
    spark = get_spark("fig7")
    if args.sweep == "datasets":
        points = [(ds, 200) for ds in SERIES_DATASETS]
        what = "per-dataset evaluation (200GB-equiv)"
    else:
        points = [("randomwalk", gb) for gb in args.gbs]
        what = "RandomWalk size sweep"
    rows = run_eval(spark, resolve_workdir(args), points, k=args.k, n_queries=args.queries)
    indexed = [r for r in rows if r["system"] != "Dss"]  # Dss builds no index
    emit(rows, args, "\n\n".join([
        render_table(rows, ["dataset", "gb", "system", "query_s", "recall"],
                     f"Fig. 7 — query time and recall, {what}"),
        render_table(indexed, ["dataset", "gb", "system", "build_s", "index_bytes"],
                     f"Fig. 8 — index construction time and global index size, {what}"),
    ]))
    spark.stop()


if __name__ == "__main__":
    main()
