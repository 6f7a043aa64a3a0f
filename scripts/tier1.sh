#!/usr/bin/env bash
# Tier-1 verify: the whole tests/ suite, as ROADMAP.md states it.
# Run from anywhere: bash scripts/tier1.sh [extra pytest args]
# The driver JVM gets half the machine's memory, between 2g and 8g; Spark's
# scratch space is /tmp/spark-local; the run is cut after 2670 s.
cd "$(dirname "$0")/.." || exit 1
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)" SPARK_LOCAL_DIRS=/tmp/spark-local
exec timeout -k 10 2670 python -m pytest tests/ -q --continue-on-collection-errors -p no:cacheprovider "$@"
