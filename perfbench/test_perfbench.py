"""Self-test of the benchmark harness (tiny N; not part of the repo's test suite).

    python3 -m pytest perfbench -q

The oracle and answer checks are tested on their own; the harness is run
end to end at N=1500 for each workload, and once outside a repository.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exact

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_oracle_is_exact():
    X = exact.random_walk(3, 700, length=32)
    Q = X[exact.query_order(3, 700)[:5]] + 0.01
    for q, (ids, d) in zip(Q, exact.Oracle(X).knn(Q, 10)):
        full = exact.direct_ed(X, q)
        want = np.lexsort((np.arange(len(X)), full))[:10]
        assert ids.tolist() == want.tolist()
        assert np.array_equal(d, full[want])


def test_check_answer_catches_each_defect():
    X = exact.random_walk(4, 300, length=16)
    q = X[7]
    ids, d = exact.Oracle(X).knn(q[None, :], 5)[0]
    good = list(zip(ids.tolist(), d.tolist()))
    assert exact.check_answer(good, q, X, 5, rows_planned=300) == []
    # A Gram-form rounding error on a self-match is tolerated.
    assert exact.check_answer([(7, 5.8e-7)] + good[1:], q, X, 5, 300) == []
    assert exact.check_answer(good[:4], q, X, 5, rows_planned=4) == []
    bad = {
        "short": good[:4],
        "duplicate": good[:4] + [good[3]],
        "out of range": good[:4] + [(300, 9.0)],
        "unsorted": good[::-1],
        "wrong distance": good[:4] + [(good[4][0], good[4][1] + 1e-3)],
    }
    for name, answer in bad.items():
        assert exact.check_answer(answer, q, X, 5, rows_planned=300), name
    assert exact.recall(good[:4] + [(299, 9.0)], ids, 5) == 0.8


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--n", "1500"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("build", 0), ("query_point", 0), ("query_batch", 1)])
def test_run_reports_every_metric(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_run").exists()


def test_run_fails_outside_a_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "build", 0)
    assert p.returncode != 0 and p.stdout.strip() == ""
