"""The kNN operator's per-batch body, called on Arrow batches without Spark,
and what the modules an executor imports load."""
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

import repro
from repro.core.distances import merge_topk
from repro.core.query import QueryPlan, plans_by_pid, scan_batch

N_LEN = 8
K = 4
# One trie, its nodes numbered in DFS pre-order with children in pivot
# order: node ordinal i has pivot prefix PREFIXES[i], and its subtree is the
# ordinal range RANGE[PREFIXES[i]].
PREFIXES = [(), (1,), (1, 2), (1, 2, 5), (1, 3), (2,), (2, 1), (12,)]
RANGE = {(): (0, 8), (1,): (1, 5), (1, 2): (2, 4), (1, 2, 5): (3, 4), (1, 3): (4, 5),
         (2,): (5, 7), (2, 1): (6, 7), (12,): (7, 8)}
NODES = list(range(len(PREFIXES)))


def make_batch(ids, series, pids, nodes) -> pa.RecordBatch:
    X = np.asarray(series, dtype=np.float64).reshape(len(ids), N_LEN)
    offsets = pa.array(np.arange(0, X.size + 1, N_LEN, dtype=np.int32))
    return pa.RecordBatch.from_arrays(
        [pa.array(ids, pa.int64()), pa.ListArray.from_arrays(offsets, pa.array(X.ravel())),
         pa.array(pids, pa.int64()), pa.array(nodes, pa.int64())],
        names=["id", "series", "pid", "node"],
    )


def in_subtree(node: int, ranges) -> bool:
    """The prefix rule: the node's pivot prefix extends a planned node's."""
    prefix = PREFIXES[node]
    return any(prefix[:len(PREFIXES[lo])] == PREFIXES[lo] for lo, _ in ranges)


def brute_force(batch, plan: QueryPlan, q: np.ndarray, k: int):
    """Direct-form top-k by ``(dist, id)`` over the rows the plan selects."""
    ids = batch.column("id").to_pylist()
    X = np.array(batch.column("series").to_pylist())
    rows = [i for i, (p, n) in enumerate(zip(batch.column("pid").to_pylist(),
                                             batch.column("node").to_pylist()))
            if p in plan.pids and (plan.expand_full or in_subtree(n, plan.prefixes))]
    diff = X[rows] - q
    scored = zip(np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist(), [ids[i] for i in rows])
    return [(i, d) for d, i in sorted(scored)[:k]]


def answers(batch, plans, Q, k):
    out = scan_batch(batch, Q, plans_by_pid(plans), k)
    assert out.schema.names == ["qid", "nid", "dist"]
    res = {q: [] for q in plans}
    res.update(merge_topk(*(out.column(c).to_numpy() for c in out.schema.names), k))
    return res


@pytest.fixture(scope="module")
def mixed():
    """40 rows of pids 10/20/30 in shuffled order; every 5th series is a copy
    of the one before it under another id, so ties occur at the k-th place.
    Series ``i`` lands in node ``NODES[i % 8]``; query 2 sits next to series
    21, whose node 5 (prefix ``(2,)``) is the first ordinal past the range
    [1, 5) of ``(1,)``."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, N_LEN))
    X[4::5] = X[3::5]
    pids = np.repeat([10, 20, 30], [15, 13, 12])
    nodes = np.array(NODES * 5)
    order = rng.permutation(40)
    ids = np.arange(100, 140)
    batch = make_batch(ids[order], X[order], pids, nodes[order])
    Q = np.concatenate([X[[0, 3, 21, 33]] + 0.01, rng.normal(size=(4, N_LEN))])
    return batch, Q


PLANS = {
    0: QueryPlan(pids=(10, 20)),
    1: QueryPlan(pids=(20, 30)),  # overlaps 0 on pid 20
    2: QueryPlan(pids=(10, 20, 30), prefixes=(RANGE[(1,)],), expand_full=False),  # (2,) is not under (1,)
    3: QueryPlan(pids=(40,)),  # no row in the batch
    4: QueryPlan(pids=(10, 30), prefixes=(RANGE[(1, 2)], RANGE[(2,)]), expand_full=False),
    5: QueryPlan(pids=(20,), prefixes=(RANGE[()],), expand_full=False),  # root node: whole pid
    6: QueryPlan(pids=()),  # planned nowhere
    7: QueryPlan(pids=(10,), prefixes=(RANGE[(1, 3)],), expand_full=False),  # fewer rows than k
}


class TestScanBatch:
    def test_ranges_are_the_prefix_rule(self):
        for lo, hi in RANGE.values():
            assert [n for n in NODES if in_subtree(n, [(lo, hi)])] == list(range(lo, hi))

    def test_mixed_plans_match_brute_force(self, mixed):
        batch, Q = mixed
        got = answers(batch, PLANS, Q, K)
        for q, plan in PLANS.items():
            assert got[q] == brute_force(batch, plan, Q[q], K), q
        assert got[3] == [] and got[6] == []
        assert 0 < len(got[7]) < K

    def test_batch_split_and_row_order_do_not_matter(self, mixed):
        batch, Q = mixed
        whole = answers(batch, PLANS, Q, K)
        by_pid = plans_by_pid(PLANS)
        flipped = batch.take(pa.array(np.arange(batch.num_rows)[::-1]))
        parts = [scan_batch(b, Q, by_pid, K) for b in (flipped.slice(0, 17), flipped.slice(17))]
        merged = merge_topk(*(np.concatenate([p.column(c).to_numpy() for p in parts])
                              for c in ("qid", "nid", "dist")), K)
        assert {q: merged.get(q, []) for q in PLANS} == whole

    def test_node_column_optional_without_filtered_plans(self, mixed):
        batch, Q = mixed
        full = {q: p for q, p in PLANS.items() if p.expand_full}
        no_node = batch.select(["id", "series", "pid"])
        assert (scan_batch(no_node, Q, plans_by_pid(full), K).to_pydict()
                == scan_batch(batch, Q, plans_by_pid(full), K).to_pydict())

    def test_plans_by_pid(self):
        by_pid = plans_by_pid(PLANS)
        assert sorted(by_pid) == [10, 20, 30, 40]
        assert by_pid[20] == [(0, None), (1, None), (2, ((1, 5),)), (5, ((0, 8),))]
        assert by_pid[10] == [(0, None), (2, ((1, 5),)), (4, ((2, 4), (5, 7))), (7, ((4, 5),))]
        assert plans_by_pid({}) == {}

    def test_empty_batch(self, mixed):
        batch, Q = mixed
        out = scan_batch(batch.slice(0, 0), Q, plans_by_pid(PLANS), K)
        assert out.num_rows == 0 and out.schema.names == ["qid", "nid", "dist"]

    def test_batch_with_no_planned_pid(self, mixed):
        batch, Q = mixed
        plans = {0: QueryPlan(pids=(99,)),
                 1: QueryPlan(pids=(98,), prefixes=(RANGE[(1,)],), expand_full=False)}
        assert scan_batch(batch, Q, plans_by_pid(plans), K).num_rows == 0

    def test_non_finite_reading_rejected(self, mixed):
        batch, Q = mixed
        X = np.array(batch.column("series").to_pylist())
        X[5, 2] = np.nan
        bad = make_batch(batch.column("id").to_pylist(), X, batch.column("pid").to_pylist(),
                         batch.column("node").to_pylist())
        with pytest.raises(ValueError, match="non-finite"):
            scan_batch(bad, Q, plans_by_pid(PLANS), K)


def test_executor_modules_leave_pyarrow_dataset_unloaded():
    """The modules a scan or build worker imports do not load
    ``pyarrow.dataset``: only the driver reads the stored dataset
    (`index.stored_columns`)."""
    code = ("import sys, repro.core.query, repro.core.skeleton, repro.baselines.tardis, "
            "repro.baselines.dpisax; print('pyarrow.dataset' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
