"""Shared fixtures: tiny datasets and prebuilt indexes, built once per session.

The root ``conftest.py`` provides the session-scoped ``spark`` fixture;
everything here layers small, cached workloads on top so the several
hundred tests don't rebuild Spark state per test.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pytest

from repro.baselines.dpisax import build_dpisax
from repro.baselines.dss import dss_knn
from repro.baselines.tardis import build_tardis
from repro.core.index import ClimberParams, build_index
from repro.core.paa import series_matrix
from repro.synth_data import random_walk_series

# Tiny-but-structured default workload for index/query tests.
N_SMALL = 1200
LEN_SMALL = 64
SMALL_PARAMS = ClimberParams(w=8, r=16, m=4, capacity=120, alpha=0.35, seed=7)
K_SMALL = 10
# The same knobs for the iSAX baselines' builders.
BASELINE_KW = dict(w=SMALL_PARAMS.w, capacity=SMALL_PARAMS.capacity,
                   alpha=SMALL_PARAMS.alpha, seed=SMALL_PARAMS.seed)


def decode_series(values) -> np.ndarray:
    """Stored ``series`` values (the bytes of a pandas column) → (rows × n) matrix."""
    return series_matrix(pa.array(list(values), pa.binary()))


@contextmanager
def job_group(spark, name):
    """Tag the Spark jobs started inside the block; yields a job counter."""
    sc = spark.sparkContext
    sc.setJobGroup(name, name)
    try:
        yield lambda: len(sc.statusTracker().getJobIdsForGroup(name))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


@pytest.fixture(scope="session")
def small_df(spark):
    df = random_walk_series(spark, n=N_SMALL, length=LEN_SMALL).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def small_pdf(small_df):
    return small_df.orderBy("id").toPandas()


@pytest.fixture(scope="session")
def small_matrix(small_pdf):
    return np.stack(small_pdf["series"].to_numpy())


@pytest.fixture(scope="session")
def queries(small_matrix):
    rng = np.random.default_rng(42)
    qids = rng.choice(small_matrix.shape[0], size=4, replace=False)
    return qids, small_matrix[qids]


@pytest.fixture(scope="session")
def ground_truth(small_df, queries):
    _, Q = queries
    return dss_knn(small_df, Q, K_SMALL)


@pytest.fixture(scope="session")
def climber_index(spark, small_df, tmp_path_factory):
    d = tmp_path_factory.mktemp("climber-idx")
    return build_index(spark, small_df, str(d), SMALL_PARAMS)


@pytest.fixture(scope="session")
def tardis_index(small_df, tmp_path_factory):
    d = tmp_path_factory.mktemp("tardis-idx")
    return build_tardis(small_df, str(d), **BASELINE_KW)


@pytest.fixture(scope="session")
def dpisax_index(small_df, tmp_path_factory):
    d = tmp_path_factory.mktemp("dpisax-idx")
    return build_dpisax(small_df, str(d), **BASELINE_KW)
