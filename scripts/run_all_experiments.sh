#!/usr/bin/env bash
# Regenerate every table/figure dataset for EXPERIMENTS.md.
# Each job creates its own local SparkSession; they run sequentially.
# Exits 1, naming the failed jobs, if any job fails.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
failed=()
run() {
  name=$1; shift
  echo "=== $name: $* ==="
  if "$@" > "results/${name}.txt" 2> "results/${name}.log"; then
    echo "--- ${name} OK"
  else
    echo "--- ${name} FAILED (see results/${name}.log)"
    failed+=("$name")
  fi
}

run fig7_datasets  python jobs/fig7_query_eval.py --sweep datasets --queries 10 --out-json results/fig7_datasets.json
run fig7_size      python jobs/fig7_query_eval.py --sweep size --queries 10 --out-json results/fig7_size.json
run fig9_ksweep    python jobs/fig9_k_sweep.py --queries 10 --out-json results/fig9.json
run fig10_pivots   python jobs/fig10_pivots_sweep.py --queries 8 --out-json results/fig10.json
run fig11_adaptive python jobs/fig11_adaptive.py --queries 8 --out-json results/fig11.json
run fig12_prefix   python jobs/fig12_prefix_sweep.py --queries 10 --out-json results/fig12.json
run table1         python jobs/table1_memory_systems.py --queries 10 --out-json results/table1.json
if ((${#failed[@]})); then
  echo "FAILED: ${failed[*]}"
  exit 1
fi
echo "ALL DONE"
