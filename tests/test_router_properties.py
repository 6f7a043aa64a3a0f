"""Router guarantees over several small seeded builds (paper §VI).

What holds by construction, checked on three builds over different data
and parameters rather than on the one fixture index:

* CLIMBER-kNN's partitions lie inside those of Adaptive-2X, Adaptive-4X and
  OD-Smallest (its target node is in one of the smallest-OD groups, and the
  adaptive expansion starts from its plan);
* Adaptive-NX opens at most N × the base plan's partitions
  (``MaxNumPartitions``);
* every planned pid is a skeleton partition that holds rows, or an empty
  one that the scan answers ``[]`` for;
* a saved and reloaded index plans and answers ``==``;
* routing a batch plans each query as routing it alone does.

``A2X ⊆ A4X`` is not among them: the greedy budget does not nest.
"""
import numpy as np
import pytest

from repro.core.index import ClimberIndex, ClimberParams, build_index, occupancy, stored_columns
from repro.core.query import QueryPlan, knn_scan, route
from repro.synth_data import eeg_series, random_walk_series, sift_like_series
from tests.conftest import K_SMALL

VARIANTS = ("knn", "adaptive-2x", "adaptive-4x", "od-smallest")
N_ROWS, LENGTH, N_QUERIES = 600, 64, 12
BUILDS = {
    "randomwalk": (random_walk_series, 21, ClimberParams(w=8, r=16, m=4, capacity=80, alpha=0.4, seed=1)),
    "sift": (sift_like_series, 22, ClimberParams(w=8, r=24, m=3, capacity=150, alpha=0.4, seed=2)),
    "eeg": (eeg_series, 23, ClimberParams(w=16, r=16, m=5, capacity=60, alpha=0.5, seed=3)),
}


@pytest.fixture(scope="module", params=sorted(BUILDS))
def built(request, spark, tmp_path_factory):
    """One build and its queries: stored series and perturbed copies."""
    make, data_seed, params = BUILDS[request.param]
    df = make(spark, n=N_ROWS, length=LENGTH, seed=data_seed).cache()
    X = np.stack(df.orderBy("id").toPandas()["series"].to_numpy())
    idx = build_index(spark, df, str(tmp_path_factory.mktemp(request.param)), params)
    rng = np.random.default_rng(params.seed)
    picks = rng.choice(N_ROWS, size=N_QUERIES, replace=False)
    Q = np.vstack([X[picks[::2]], X[picks[1::2]] + 0.3 * rng.standard_normal((N_QUERIES // 2, LENGTH))])
    yield idx, Q
    df.unpersist()


def _plans(idx, Q):
    return {v: [idx.plan(q, K_SMALL, variant=v, qid=i) for i, q in enumerate(Q)] for v in VARIANTS}


class TestRouterProperties:
    def test_knn_inside_wider_variants(self, built):
        idx, Q = built
        plans = _plans(idx, Q)
        for i, base in enumerate(plans["knn"]):
            for v in VARIANTS[1:]:
                assert set(base.pids) <= set(plans[v][i].pids), (v, i)

    def test_adaptive_partition_cap(self, built):
        idx, Q = built
        plans = _plans(idx, Q)
        for i, base in enumerate(plans["knn"]):
            for factor, v in ((2, "adaptive-2x"), (4, "adaptive-4x")):
                assert plans[v][i].n_partitions <= factor * max(1, base.n_partitions), (v, i)

    def test_planned_pids_hold_rows_or_answer_empty(self, spark, built):
        idx, Q = built
        assert occupancy(*stored_columns(idx.data_path, "pid")) == idx.pid_counts
        skeleton_pids = set(range(idx.skeleton.n_partitions))
        planned = {p for plans in _plans(idx, Q).values() for pl in plans for p in pl.pids}
        assert planned <= skeleton_pids
        empty = sorted(skeleton_pids - set(idx.pid_counts))
        plans = {i: QueryPlan(pids=(p,)) for i, p in enumerate(empty)}
        plans.update({len(empty) + i: QueryPlan(pids=(p,), prefixes=((0, 1 << 62),), expand_full=False)
                      for i, p in enumerate(empty)})
        res = knn_scan(spark, idx, plans, np.repeat(Q[:1], len(plans), axis=0), K_SMALL)
        assert res == {q: [] for q in plans}

    def test_save_load_plans_and_answers_equal(self, spark, built):
        idx, Q = built
        loaded = ClimberIndex.load(idx.out_dir)
        # repr, not ==: od-smallest plans carry a NaN node count.
        assert repr(_plans(loaded, Q)) == repr(_plans(idx, Q))
        for v in VARIANTS:
            res, _ = idx.knn_batch(spark, Q, K_SMALL, variant=v)
            assert loaded.knn_batch(spark, Q, K_SMALL, variant=v)[0] == res, v

    def test_batch_route_equals_single_plans(self, built):
        """One `route` over the batch gives each query the plan `plan` gives
        it alone (perfbench's answer check re-plans each query with `plan`)."""
        idx, Q = built
        for v in VARIANTS:
            batch = route(idx.skeleton, Q, K_SMALL, v, range(len(Q)))
            assert repr(batch) == repr(_plans(idx, Q)[v]), v
