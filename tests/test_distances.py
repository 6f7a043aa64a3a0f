"""Dual-representation metric tests (paper Defs 3, 7, 9, 10, 11)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import (
    MARGIN,
    centroid_mask,
    decay_weights,
    ed_np,
    merge_topk,
    od_matrix,
    overlap_distance,
    topk,
    total_weight,
    wd_matrix,
    weight_distance,
)


class TestOverlapDistance:
    def test_paper_example(self):
        # §IV-C: P_X=<1,3,6,8>, P_Y=<2,3,4,6> → OD = 4 − 2 = 2.
        assert overlap_distance([1, 3, 6, 8], [2, 3, 4, 6]) == 2

    def test_identical_sets_zero(self):
        assert overlap_distance([1, 2, 3], [3, 2, 1]) == 0

    def test_disjoint_is_m(self):
        assert overlap_distance([1, 2, 3], [4, 5, 6]) == 3

    def test_range(self):
        for a, b in [([1, 2], [2, 3]), ([5, 9], [9, 5]), ([0, 1], [2, 3])]:
            assert 0 <= overlap_distance(a, b) <= 2

    def test_symmetric(self):
        assert overlap_distance([1, 4, 7], [2, 4, 9]) == overlap_distance([2, 4, 9], [1, 4, 7])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            overlap_distance([1, 2], [1, 2, 3])


class TestDecayWeights:
    def test_exponential_paper_sequence(self):
        # λ=1/2 → [1, 1/2, 1/4, ...] (paper Def. 9 example)
        np.testing.assert_allclose(decay_weights(4, "exp", 0.5), [1, 0.5, 0.25, 0.125])

    def test_linear_paper_sequence(self):
        # λ=1/m → [1, (m−1)/m, (m−2)/m, ...]
        np.testing.assert_allclose(decay_weights(4, "linear"), [1, 0.75, 0.5, 0.25])

    @pytest.mark.parametrize("kind,lam", [("exp", 0.3), ("exp", 0.9), ("linear", 0.5)])
    def test_strictly_decreasing(self, kind, lam):
        w = decay_weights(6, kind, lam)
        assert (np.diff(w) < 0).all()

    def test_first_weight_is_one(self):
        assert decay_weights(5, "exp", 0.5)[0] == 1.0
        assert decay_weights(5, "linear")[0] == 1.0

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_exp_lambda(self, lam):
        with pytest.raises(ValueError):
            decay_weights(4, "exp", lam)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decay_weights(4, "banana")


class TestWeightDistance:
    def test_paper_example1_Y(self):
        # Example 1: P_Y⁴→ = <4,2,1>, exp λ=1/2 → W(4)=1, W(2)=.5, W(1)=.25,
        # TW = 1.75; WD(Y,G1=<1,2,3>) = 1.75 − (W(1)+W(2)) = 1;
        # WD(Y,G2=<2,4,5>) = 1.75 − (W(4)+W(2)) = 0.25.
        w = decay_weights(3, "exp", 0.5)
        assert total_weight(w) == pytest.approx(1.75)
        assert weight_distance([4, 2, 1], [1, 2, 3], w) == pytest.approx(1.0)
        assert weight_distance([4, 2, 1], [2, 4, 5], w) == pytest.approx(0.25)

    def test_paper_example1_Z_tie(self):
        # Z = <6,2,7>: WD to both centroids is 1.25 (a second tie).
        w = decay_weights(3, "exp", 0.5)
        assert weight_distance([6, 2, 7], [1, 2, 3], w) == pytest.approx(1.25)
        assert weight_distance([6, 2, 7], [2, 4, 5], w) == pytest.approx(1.25)

    def test_full_overlap_is_zero(self):
        w = decay_weights(3, "exp", 0.5)
        assert weight_distance([3, 1, 2], [1, 2, 3], w) == pytest.approx(0.0)

    def test_no_overlap_is_total_weight(self):
        w = decay_weights(3, "exp", 0.5)
        assert weight_distance([7, 8, 9], [1, 2, 3], w) == pytest.approx(total_weight(w))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            weight_distance([1, 2, 3], [1, 2], decay_weights(2, "exp", 0.5))


class TestCentroidMask:
    def test_membership(self):
        mask = centroid_mask([(1, 3), (0, 2)], r=5)
        assert mask.shape == (2, 5)
        assert mask[0, 1] and mask[0, 3] and not mask[0, 0]
        assert mask[1, 0] and mask[1, 2] and not mask[1, 4]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            centroid_mask([(1, 9)], r=5)

    def test_empty_centroid_list(self):
        assert centroid_mask([], r=4).shape == (0, 4)


class TestMatrixForms:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_od_matrix_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        r, m, B, C = 12, 4, 8, 3
        sigs = np.stack([rng.choice(r, m, replace=False) for _ in range(B)])
        cents = [tuple(rng.choice(r, m, replace=False)) for _ in range(C)]
        mat = od_matrix(sigs, centroid_mask(cents, r))
        for b in range(B):
            for c in range(C):
                assert mat[b, c] == overlap_distance(sigs[b], cents[c])

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_wd_matrix_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        r, m, B, C = 10, 3, 6, 4
        sigs = np.stack([rng.choice(r, m, replace=False) for _ in range(B)])
        cents = [tuple(rng.choice(r, m, replace=False)) for _ in range(C)]
        w = decay_weights(m, "exp", 0.5)
        mat = wd_matrix(sigs, centroid_mask(cents, r), w)
        for b in range(B):
            for c in range(C):
                assert mat[b, c] == pytest.approx(weight_distance(sigs[b], cents[c], w))


class TestEuclidean:
    def test_matches_norm_single(self):
        rng = np.random.default_rng(7)
        X, q = rng.normal(size=(20, 16)), rng.normal(size=16)
        np.testing.assert_allclose(ed_np(X, q), np.linalg.norm(X - q, axis=1), atol=1e-8)

    def test_matches_norm_batch(self):
        rng = np.random.default_rng(8)
        X, Q = rng.normal(size=(15, 10)), rng.normal(size=(4, 10))
        d = ed_np(X, Q)
        assert d.shape == (15, 4)
        for j in range(4):
            np.testing.assert_allclose(d[:, j], np.linalg.norm(X - Q[j], axis=1), atol=1e-8)

    def test_self_distance_zero(self):
        X = np.random.default_rng(9).normal(size=(5, 8))
        np.testing.assert_allclose(np.diag(ed_np(X, X)), 0, atol=1e-6)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        a, b, c = rng.normal(size=(3, 12))
        ab = ed_np(a[None], b)[0]
        bc = ed_np(b[None], c)[0]
        ac = ed_np(a[None], c)[0]
        assert ac <= ab + bc + 1e-9


def direct_ed(X, q):
    diff = X - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def brute_topk(X, ids, q, k):
    """Reference answer: every row in the direct form, ordered by (dist, id)."""
    d = direct_ed(X, q)
    top = np.lexsort((ids, d))[:k]
    return ids[top].tolist(), d[top].tolist()


class TestTopK:
    def test_matches_brute_force_per_query(self):
        rng = np.random.default_rng(11)
        X, Q = rng.normal(size=(500, 24)), rng.normal(size=(3, 24))
        ids = rng.permutation(500) + 7
        qrow, nid, d = topk(X, ids, Q, 20)
        assert qrow.tolist() == sorted(qrow.tolist()) and len(qrow) == 60
        for j in range(3):
            assert (nid[qrow == j].tolist(), d[qrow == j].tolist()) == brute_topk(X, ids, Q[j], 20)

    def test_single_query_shape(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 8))
        qrow, nid, d = topk(X, np.arange(300), X[4], 5)
        assert set(qrow.tolist()) == {0}
        assert nid[0] == 4 and d[0] == 0.0

    def test_duplicate_rows_tied_at_kth_take_smaller_id(self):
        rng = np.random.default_rng(13)
        X, q, k = rng.normal(size=(300, 16)), rng.normal(size=16), 10
        assert k + MARGIN < len(X)  # the Gram selection path
        order = np.argsort(direct_ed(X, q))
        X[order[k]] = X[order[k - 1]]  # the (k+1)-th is now a copy of the k-th
        ids = np.arange(300) + 10
        ids[order[k]], ids[order[k - 1]] = 1, 2  # the copy has the smaller id
        _, nid, d = topk(X, ids, q, k)
        assert nid[-1] == 1 and 2 not in nid.tolist()
        assert d[-1] == direct_ed(X[order[k - 1]][None], q)[0]
        assert (nid.tolist(), d.tolist()) == brute_topk(X, ids, q, k)

    def test_k_larger_than_rows_returns_every_row_sorted(self):
        rng = np.random.default_rng(14)
        X, q = rng.normal(size=(30, 8)), rng.normal(size=8)
        ids = rng.permutation(30)
        _, nid, d = topk(X, ids, q, 100)
        assert sorted(nid.tolist()) == list(range(30))
        assert (nid.tolist(), d.tolist()) == brute_topk(X, ids, q, 30)

    def test_empty_batch_returns_nothing(self):
        qrow, nid, d = topk(np.empty((0, 8)), np.empty(0, dtype=np.int64), np.zeros((2, 8)), 5)
        assert len(qrow) == len(nid) == len(d) == 0
        assert merge_topk(qrow, nid, d, 5) == {}

    def test_identical_rows_trigger_full_direct_guard(self):
        # All 200 rows tie, so the Gram pre-selection of k + MARGIN rows
        # (which ignores ids) cannot be trusted: the answer must still be the
        # 50 smallest ids, which only a full direct re-score finds.
        rng = np.random.default_rng(15)
        X = np.tile(rng.normal(size=32), (200, 1))
        ids = rng.permutation(200)
        q = rng.normal(size=32)
        assert 50 + MARGIN < 200
        _, nid, d = topk(X, ids, q, 50)
        assert nid.tolist() == list(range(50))
        assert (nid.tolist(), d.tolist()) == brute_topk(X, ids, q, 50)

    @pytest.mark.parametrize("rows, k", [(300, 10), (20, 20)])
    def test_nan_row_never_ahead_of_finite(self, rows, k):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(rows, 12))
        q = X[3].copy()
        X[3, 5] = np.nan  # otherwise the exact match
        _, nid, d = topk(X, np.arange(rows), q, k)
        finite = np.isfinite(d)
        assert finite[:finite.sum()].all()  # NaNs only at the tail
        if k < rows:
            assert 3 not in nid.tolist()
        else:
            assert nid[-1] == 3 and np.isnan(d[-1])

    def test_constant_series_finite(self):
        X = np.repeat(np.arange(150, dtype=np.float64)[:, None], 16, axis=1)
        q = np.full(16, 7.0)
        _, nid, d = topk(X, np.arange(150), q, 5)
        assert np.isfinite(d).all()
        assert nid.tolist() == [7, 6, 8, 5, 9]
        np.testing.assert_allclose(d, [0, 4, 4, 8, 8])

    @given(st.integers(1, 400), st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_chunked_then_merged_equals_whole(self, chunk, k, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(400, 8)), 1)  # coarse values: many ties
        X[rng.integers(400, size=40)] = X[rng.integers(400, size=40)]
        Q, ids = X[:3] + 0.05, rng.permutation(400)
        whole = merge_topk(*topk(X, ids, Q, k), k)
        parts = [topk(X[lo:lo + chunk], ids[lo:lo + chunk], Q, k) for lo in range(0, 400, chunk)]
        assert merge_topk(*(np.concatenate(a) for a in zip(*parts)), k) == whole
        for j in range(3):
            assert whole[j] == list(zip(*brute_topk(X, ids, Q[j], k)))


class TestMergeTopK:
    def test_orders_by_dist_then_id_and_cuts_at_k(self):
        qid = np.array([1, 0, 1, 1, 0, 1])
        nid = np.array([9, 4, 3, 5, 2, 7])
        dist = np.array([0.5, 1.0, 0.5, 0.1, 1.0, 2.0])
        assert merge_topk(qid, nid, dist, 3) == {
            0: [(2, 1.0), (4, 1.0)],
            1: [(5, 0.1), (3, 0.5), (9, 0.5)],
        }

    def test_plain_python_values(self):
        res = merge_topk(np.array([0]), np.array([3], dtype=np.int64), np.array([1.5]), 1)
        (i, d), = res[0]
        assert type(i) is int and type(d) is float
