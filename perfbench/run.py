#!/usr/bin/env python3
"""CLIMBER benchmark: one workload, one fresh process, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 6 --trace 0

The input is a seed-drawn RandomWalk (20 000 series x 256 points,
z-normalised) handed to the program as a cached DataFrame. The program is
driven only through its public API (``build_index``,
``ClimberIndex.knn_batch`` / ``.plan`` / ``.load``, ``Skeleton``), by one
client in a closed loop. Every build and every answer is checked against
the benchmark's own exact oracle (``exact.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced ops and prints the per-layer metrics (``tracing.py``,
``counters.py``) instead. See README.md for the metric definitions.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import exact  # noqa: E402

WORKLOADS = {
    # name: (variant, queries per op, untimed warm-up ops); build has no variant.
    # Query ops keep getting faster for about five calls after the index build.
    "build": (None, 0, 0),
    "query_point": ("knn", 1, 8),
    "query_batch": ("adaptive-4x", 50, 6),
}
WARMUP_BUILDS = 1  # untimed builds before the timed ones; the first is cold
MIN_BUILDS = 2  # timed builds per run, even past --seconds
RECALL_ANSWERS = 400  # recall and checks cover at least this many answers
PLAN_CHECK_QUERIES = 20  # queries whose plans must survive save/load

E2E = {
    "setup_s": "s",
    "op_p50_s": "s",
    "recall": "share",
    "stored_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}


def mark(what: str) -> None:
    """Log how far into set-up the run is."""
    print(f"# {time.perf_counter() - _T0:7.2f}s {what}", flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--master", default="local[2]")
    p.add_argument("--driver-memory", default="2g")
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--conf", action="append", default=[], metavar="KEY=VALUE",
                   help="Spark setting, repeatable")
    p.add_argument("--n", type=int, default=20_000, help=argparse.SUPPRESS)  # self-test size
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Spark process lifetime
# ---------------------------------------------------------------------------


def start_spark(args, root: Path, work: Path):
    """A local SparkSession whose JVM, workers and scratch files stay in ``work``."""
    for d in ("tmp", "spark-local", "warehouse"):
        (work / d).mkdir(parents=True, exist_ok=True)
    threads = str(args.blas_threads)
    os.environ.update({
        "PYTHONPATH": str(root / "src"),
        "TMPDIR": str(work / "tmp"),
        "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
        "PYSPARK_PYTHON": sys.executable,
        # spark-submit's launcher JVM, which computes the driver command line.
        "SPARK_LAUNCHER_OPTS": f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData",
        "PYSPARK_SUBMIT_ARGS": " ".join([
            "--master", shlex.quote(args.master),
            "--driver-memory", shlex.quote(args.driver_memory),
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"),
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", shlex.quote(f"spark.local.dir={work / 'spark-local'}"),
            "--conf", shlex.quote(f"spark.sql.warehouse.dir={work / 'warehouse'}"),
            *[x for kv in args.conf for x in ("--conf", shlex.quote(kv))],
            "pyspark-shell",
        ]),
    })
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children(pid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    if int(f.read().rsplit(")", 1)[1].split()[1]) == pid:
                        out.append(int(d))
            except (OSError, IndexError, ValueError):
                continue
    return out


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        kids = _children(todo.pop())
        out += kids
        todo += kids
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _comm(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return ""


def python_peak_rss_mb() -> float:
    """Peak RSS of this process plus every live Spark Python worker (not the JVM)."""
    kb = _status_kb(os.getpid(), "VmHWM")
    kb += sum(_status_kb(p, "VmHWM") for p in descendants(os.getpid())
              if _comm(p).startswith("python"))
    return kb / 1024


def cpu_seconds() -> dict[str, float]:
    """CPU seconds used so far by this process, the JVM and the Python workers."""
    out = {"driver": 0.0, "jvm": 0.0, "python_workers": 0.0}
    me = os.getpid()
    for p in [me] + descendants(me):
        try:
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kind = "driver" if p == me else "jvm" if _comm(p) == "java" else "python_workers"
        out[kind] += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return out


def stop_spark(spark) -> None:
    """Stop Spark, end the JVM and wait until every process it started is gone."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    started = descendants(os.getpid())
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while True:
        alive = [p for p in started if os.path.exists(f"/proc/{p}")]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 30
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, args, spark, work: Path):
        import counters  # imports repro, so only once PYTHONPATH is set up
        from tracing import Tracer

        self.args, self.spark, self.work = args, spark, work
        self.counters = counters
        self.variant, self.per_op, self.warmup_ops = WORKLOADS[args.workload]
        self.tracer = Tracer() if args.trace else None
        self.n = args.n
        self.X = exact.random_walk(args.seed, self.n)
        # Distinct queries; only a tiny self-test N can run out and wrap.
        self.queries = itertools.cycle(exact.query_order(args.seed, self.n).tolist())
        self.df = self._frame(self.X)
        mark("input cached")
        self.attempted = self.failed = 0
        self.answers = []  # (query ids, result dict, variant) per knn_batch call
        self.recalls = []

    def _frame(self, X, partitions: int | None = None):
        import pyarrow as pa

        flat = pa.array(X.ravel())
        offsets = pa.array(np.arange(0, X.size + 1, X.shape[1], dtype=np.int32))
        table = pa.table({"id": pa.array(np.arange(len(X), dtype=np.int64)),
                          "series": pa.ListArray.from_arrays(offsets, flat)})
        df = self.spark.createDataFrame(table)
        if partitions:
            df = df.repartition(partitions)
        df = df.cache()
        df.count()
        return df

    def take_queries(self, count: int) -> np.ndarray:
        return np.array([next(self.queries) for _ in range(count)], dtype=np.int64)

    # ---- ops ----

    def traced(self, on: bool):
        from contextlib import nullcontext

        return self.tracer.installed(self.spark, self.df) if on else nullcontext()

    def build(self, name: str, df=None, trace: bool = False):
        from repro.core import index  # looked up per call, so a trace sees it

        with self.traced(trace):
            return index.build_index(self.spark, self.df if df is None else df,
                                     str(self.work / name))

    def query(self, idx, qids, variant: str, trace: bool = False):
        with self.traced(trace):
            res, _ = idx.knn_batch(self.spark, self.X[qids], exact.K, variant=variant)
        self.answers.append((qids, res, variant))

    def timed(self, op, min_ops: int):
        """Closed loop: run ``op(i, traced)`` until ``--seconds`` have passed."""
        cpu0 = cpu_seconds()
        times, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or len(times) < min_ops:
            on = bool(self.tracer) and len(times) % 2 == 1
            t = time.perf_counter()
            try:
                op(len(times), on)
            except Exception:
                traceback.print_exc()
                self.failed += max(1, self.per_op)
                self.attempted += max(1, self.per_op)
            times.append(time.perf_counter() - t)
            traced.append(on)
        cpu = cpu_seconds()
        print("# cpu seconds per op: " + " ".join(
            f"{k}={(cpu[k] - cpu0[k]) / len(times):.3f}" for k in cpu))
        return np.array(times), np.array(traced)

    # ---- checks ----

    def check_answers(self, idx) -> None:
        """Check every answer returned so far against the exact oracle."""
        oracle = exact.Oracle(self.X)
        layout = self.counters.read_layout(idx.data_path)
        self.pid_of = np.empty(self.n, dtype=np.int64)
        self.pid_of[layout[0]] = layout[1]
        self.truths, self.calls = {}, []
        for qids, res, variant in self.answers:
            truth = oracle.knn(self.X[qids], exact.K)
            call = []
            for i, qid in enumerate(qids):
                plan = idx.plan(self.X[qid], exact.K, variant=variant, qid=i)
                call.append((int(qid), plan))
                self.truths[int(qid)] = truth[i][0]
                answer = res.get(i, [])
                bad = exact.check_answer(answer, self.X[qid], self.X, exact.K,
                                         self.counters.eligible_rows(plan, idx.pid_counts))
                self.attempted += 1
                if bad:
                    self.failed += 1
                    print(f"# answer for query {qid} failed: {'; '.join(bad)}", file=sys.stderr)
                self.recalls.append(exact.recall(answer, truth[i][0], exact.K))
            self.calls.append(call)

    def check_build(self, idx) -> None:
        layout = self.counters.read_layout(idx.data_path)
        bad = self.counters.check_build(idx, layout, self.n, self.X[self.plan_check_ids],
                                        exact.K)
        self.attempted += 1
        if bad:
            self.failed += 1
            print(f"# build {idx.out_dir} failed: {'; '.join(bad)}", file=sys.stderr)
        print(f"# fingerprint {Path(idx.out_dir).name}: {self.counters.fingerprint(idx)}")

    # ---- workloads ----

    def run(self) -> dict:
        args = self.args
        self.plan_check_ids = self.take_queries(PLAN_CHECK_QUERIES)
        builds = []
        if args.workload == "build":
            for i in range(WARMUP_BUILDS):
                self.build(f"warmup-{i}")
                mark(f"warm-up build {i}")
                shutil.rmtree(self.work / f"warmup-{i}")

            def op(i, on):
                builds.append((self.build(f"build-{i}", trace=on), on))

            setup_s = time.perf_counter() - _T0
            times, traced = self.timed(op, MIN_BUILDS + bool(self.tracer))
            peak = python_peak_rss_mb()
            for idx, _ in builds:
                self.check_build(idx)
            idx = builds[-1][0]
            qids = self.take_queries(RECALL_ANSWERS)
            self.query(idx, qids, "adaptive-4x", trace=bool(self.tracer))
            per_op_items = 1
        else:
            idx = self.build("index", trace=bool(self.tracer))
            builds.append((idx, bool(self.tracer)))
            mark("index built")
            self.check_build(idx)
            for _ in range(self.warmup_ops):
                idx.knn_batch(self.spark, self.X[self.take_queries(self.per_op)], exact.K,
                              variant=self.variant)

            def op(i, on):
                self.query(idx, self.take_queries(self.per_op), self.variant, trace=on)

            setup_s = time.perf_counter() - _T0
            times, traced = self.timed(op, 2)
            peak = python_peak_rss_mb()
            topped = RECALL_ANSWERS - sum(len(q) for q, _, _ in self.answers)
            if topped > 0:
                self.query(idx, self.take_queries(topped), self.variant)
            per_op_items = self.per_op
        self.check_answers(idx)
        recall = float(np.mean(self.recalls))
        untraced = times[~traced]
        print("# op seconds: " + " ".join(f"{t:.3f}" for t in times))
        summary = {
            "setup_s": setup_s,
            "op_p50_s": float(np.median(untraced)),
            "op_p90_s": float(np.percentile(untraced, 90)),
            "queries_per_s": len(untraced) * per_op_items / float(untraced.sum()),
            "recall": recall,
            "stored_bytes_per_input_byte": self.counters.stored_bytes(idx.out_dir)
            / (self.n * exact.LENGTH * 8),
            "peak_rss_mb": peak,
        }
        unit = dict(E2E, op_p90_s="s", queries_per_s="1/s")
        for name, v in summary.items():
            if args.workload == "build" and name in ("op_p90_s", "queries_per_s"):
                continue
            print(f"# {args.workload} {name} = {v:.6g} {unit[name]}")
        print(f"# {args.workload} ops = {len(untraced)}, failed_share = "
              f"{self.failed}/{self.attempted} = {self.failed / max(1, self.attempted):.6g}")
        if not self.tracer:
            return {k: {"value": summary[k], "unit": u} for k, u in E2E.items()}
        return self.layer_metrics(idx, builds, times, traced, recall)

    # ---- traced run ----

    def layer_metrics(self, idx, builds, times, traced, recall) -> dict:
        import layers

        t, c = self.tracer, self.counters
        m = layers.build_metrics(t, [b for b, on in builds if on])
        m.update(layers.query_metrics(t))
        m.update(c.kernel_counters(idx, self.X))
        m.update(c.route_counters(idx, self.X[self.plan_check_ids], exact.K))
        m.update(c.plan_counters(self.calls, idx.pid_counts, self.pid_of, self.truths, recall,
                                 self.n, exact.K))
        m.update(c.index_counters(idx, self.X, c.read_layout(idx.data_path), t.scanned_columns))
        # Same rows, another input partitioning: does the build come out the same?
        split = self.build("split", df=self._frame(self.X, partitions=5))
        print(f"# fingerprint split: {c.fingerprint(split)}")
        m["index.fingerprint_split_invariant"] = float(c.fingerprint(split) == c.fingerprint(idx))
        m["trace.overhead_s"] = float(np.median(times[traced]) - np.median(times[~traced]))
        for root_name in ("index.build_index", "index.knn_batch"):
            roots = t.roots(root_name)
            if roots:
                print(f"# span tree of the last {root_name}:")
                for line in t.tree(roots[-1]):
                    print(f"#   {line}")
        return {k: {"value": float(m[k]), "unit": u} for k, u in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "core" / "index.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spark = None
    try:
        spark = start_spark(args, root, work)
        mark("spark up")
        print(f"# settings: master={args.master} driver_memory={args.driver_memory} "
              f"blas_threads={args.blas_threads} conf={args.conf} n={args.n}")
        run = Run(args, spark, work)
        metrics = run.run()
        result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
