"""Microbenchmarks of the CLIMBER-FX kernels (PAA, P⁴ signatures, metrics).

These are the per-record costs that Fig. 10(a) attributes the build-time
growth to ("pivot-based conversions and comparisons"); measured here as
pure numpy kernels over a 10k×256 batch. The Arrow series decode,
Algorithm 1 on a tie-heavy batch, the exact top-K of the query scans, the
driver's query router and the TARDIS / DPiSAX batch routers are here too,
so a regression in these kernels shows without a Spark run.
"""
import numpy as np
import pyarrow as pa
import pytest

from repro.baselines.dpisax import build_split_table
from repro.baselines.isax import isax_symbols
from repro.baselines.tardis import build_sigtree
from repro.core.assignment import assign_batch
from repro.core.distances import centroid_mask, decay_weights, ed_np, od_matrix, topk, wd_matrix
from repro.core.paa import paa_np, series_matrix, znorm_np
from repro.core.pivots import signatures_np
from repro.core.query import VARIANTS, route
from repro.core.skeleton import build_skeleton

B, N, W, R, M = 10_000, 256, 16, 64, 6


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    X = np.cumsum(rng.normal(size=(B, N)), axis=1)
    paa = paa_np(znorm_np(X), W)
    pivots = paa[rng.choice(B, R, replace=False)]
    sigs, _ = signatures_np(paa, pivots, M)
    cents = [tuple(sorted(rng.choice(R, M, replace=False))) for _ in range(16)]
    return X, paa, pivots, sigs, centroid_mask(cents, R)


def test_paa_kernel(benchmark, batch):
    X, *_ = batch
    benchmark(paa_np, X, W)


def test_znorm_kernel(benchmark, batch):
    X, *_ = batch
    benchmark(znorm_np, X)


def test_signature_kernel(benchmark, batch):
    _, paa, pivots, _, _ = batch
    benchmark(signatures_np, paa, pivots, M)


@pytest.mark.parametrize("r", [32, 64, 128, 256])
def test_signature_kernel_vs_pivot_count(benchmark, batch, r):
    """Fig. 10(a): conversion cost grows with the number of pivots."""
    _, paa, _, _, _ = batch
    rng = np.random.default_rng(r)
    pivots = paa[rng.choice(B, r, replace=False)]
    benchmark(signatures_np, paa, pivots, M)


def test_od_matrix_kernel(benchmark, batch):
    *_, sigs, mask = batch
    benchmark(od_matrix, sigs, mask)


def test_wd_matrix_kernel(benchmark, batch):
    *_, sigs, mask = batch
    w = decay_weights(M, "exp", 0.5)
    benchmark(wd_matrix, sigs, mask, w)


def test_ed_refinement_kernel(benchmark, batch):
    X, *_ = batch
    Q = X[:8]
    benchmark(ed_np, X, Q)


def test_topk_scan_shape(benchmark, batch):
    """Exact top-K of one CLIMBER scan batch: 4 000 rows, one query, K=50."""
    X, *_ = batch
    benchmark(topk, X[:4000], np.arange(4000), X[-1], 50)


def test_topk_dss_shape(benchmark):
    """Exact top-K of one Dss / Odyssey batch: 20 000 rows, 50 queries, K=50."""
    X = np.cumsum(np.random.default_rng(2).normal(size=(20_000, N)), axis=1)
    benchmark(topk, X, np.arange(len(X)), X[:50], 50)


@pytest.fixture(scope="module")
def series_column(batch):
    X, *_ = batch
    return pa.array(list(X), type=pa.list_(pa.float64()))


def test_series_decode_arrow(benchmark, series_column):
    """Zero-copy (rows × n) view of a 10k×256 Arrow list column."""
    benchmark(series_matrix, series_column)


def test_series_decode_pandas_stack(benchmark, series_column):
    """The path it replaced: Arrow → pandas object column → ``np.stack``."""
    benchmark(lambda col: np.stack(col.to_pandas().to_numpy()), series_column)


def test_assign_batch_tie_heavy(benchmark):
    """Algorithm 1 on 10k rows over 3 centroids of 3 pivots out of 9: most
    rows tie on OD, and many stay tied after WD (random tie-break)."""
    rng = np.random.default_rng(1)
    sigs = np.stack([rng.choice(9, 3, replace=False) for _ in range(B)])
    mask = centroid_mask([(0, 1, 2), (2, 3, 4), (4, 5, 6)], 9)
    benchmark(assign_batch, sigs, mask, decay_weights(3, "exp", 0.5), ids=np.arange(B), seed=7)


@pytest.fixture(scope="module")
def skeleton(batch):
    """A skeleton built from the batch's signatures as a 25 % sample."""
    _, _, pivots, sigs, _ = batch
    rs, freq = np.unique(sigs, axis=0, return_counts=True)
    return build_skeleton(list(zip(map(tuple, rs.tolist()), freq.tolist())), pivots, w=W, m=M,
                          capacity=1000, alpha=0.25, max_centroids=64, seed=7)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_route_batch(benchmark, batch, skeleton, variant):
    """Algorithm 3 and its variants for one 50-query batch (K=50): signatures,
    `assignment.candidates` once, then each query's rule."""
    Q = znorm_np(batch[0][:50])
    benchmark(route, skeleton, Q, 50, variant, range(50))


@pytest.mark.parametrize("router", ["tardis", "dpisax"])
def test_baseline_router(benchmark, batch, router):
    """`router.pids` over the batch's 10k iSAX words (of its z-normalised
    PAA), the router built from every fourth word as a 25 % sample."""
    words = isax_symbols(batch[1])
    build = build_sigtree if router == "tardis" else build_split_table
    benchmark(build(words[::4], 0.25, 1000).pids, words)
