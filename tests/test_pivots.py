"""P⁴ dual-signature tests (paper Defs 5–6, Fig. 4)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paa import paa_np
from repro.core.pivots import pivot_distances, select_pivots, signatures_np


class TestSelectPivots:
    def test_deterministic(self):
        P = np.random.default_rng(0).normal(size=(100, 8))
        a, b = select_pivots(P, 10, seed=3), select_pivots(P, 10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        P = np.random.default_rng(0).normal(size=(100, 8))
        assert not np.array_equal(select_pivots(P, 10, seed=1), select_pivots(P, 10, seed=2))

    def test_rows_come_from_sample(self):
        P = np.random.default_rng(1).normal(size=(50, 4))
        piv = select_pivots(P, 5, seed=0)
        for row in piv:
            assert any(np.allclose(row, p) for p in P)

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError):
            select_pivots(np.zeros((3, 4)), 5)

    def test_exact_r_rows(self):
        P = np.random.default_rng(2).normal(size=(30, 4))
        assert select_pivots(P, 30, seed=0).shape == (30, 4)


class TestPivotDistances:
    def test_matches_cdist(self):
        rng = np.random.default_rng(3)
        X, P = rng.normal(size=(20, 6)), rng.normal(size=(7, 6))
        expect = ((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pivot_distances(X, P), expect, atol=1e-8)

    def test_self_distance_zero(self):
        P = np.random.default_rng(4).normal(size=(5, 3))
        d = pivot_distances(P, P)
        np.testing.assert_allclose(np.diag(d), 0, atol=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        assert (pivot_distances(rng.normal(size=(10, 4)) * 100, rng.normal(size=(3, 4))) >= 0).all()


class TestSignaturesNp:
    def _setup(self, seed=0, B=30, w=6, r=12):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(B, w)), rng.normal(size=(r, w))

    def test_rank_sensitive_is_m_nearest_in_order(self):
        X, P = self._setup()
        rs, _ = signatures_np(X, P, 4)
        d = ((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
        for b in range(X.shape[0]):
            expect = np.argsort(d[b], kind="stable")[:4]
            np.testing.assert_array_equal(rs[b], expect)

    def test_rank_insensitive_is_sorted_rank_sensitive(self):
        X, P = self._setup(1)
        rs, ri = signatures_np(X, P, 5)
        np.testing.assert_array_equal(ri, np.sort(rs, axis=1))

    def test_def5_distance_ordering(self):
        """Def. 5: md(p_i, o) <= md(p_{i+1}, o) along the prefix."""
        X, P = self._setup(2)
        rs, _ = signatures_np(X, P, 6)
        d = ((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
        for b in range(X.shape[0]):
            dists = d[b, rs[b]]
            assert (np.diff(dists) >= -1e-12).all()

    def test_tie_break_by_pivot_id(self):
        # Two identical pivots: the smaller id must come first.
        P = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        X = np.array([[0.0, 0.0]])
        rs, _ = signatures_np(X, P, 3)
        assert list(rs[0]) == [0, 2, 1]

    def test_m_equals_r_full_permutation(self):
        X, P = self._setup(3, r=5)
        rs, _ = signatures_np(X, P, 5)
        for b in range(X.shape[0]):
            assert sorted(rs[b]) == list(range(5))

    @pytest.mark.parametrize("m", [0, 13])
    def test_invalid_m_raises(self, m):
        X, P = self._setup()
        with pytest.raises(ValueError):
            signatures_np(X, P, m)

    def test_figure4_semantics(self):
        """Fig. 4: objects near the same pivots share P⁴⇉ but not P⁴→."""
        # pivots 1,2,4 arranged so X is closest to 1 then 4, Y to 4 then 1.
        P = np.array([[0.0, 0.0], [10.0, 10.0], [4.0, 0.0]])  # ids 0,1,2
        X = np.array([[1.0, 0.0]])  # d0=1 < d2=3 < d1
        Y = np.array([[3.0, 0.0]])  # d2=1 < d0=3 < d1
        rsx, rix = signatures_np(X, P, 2)
        rsy, riy = signatures_np(Y, P, 2)
        assert list(rsx[0]) == [0, 2] and list(rsy[0]) == [2, 0]
        np.testing.assert_array_equal(rix, riy)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_signature_ids_in_range(self, seed):
        X, P = self._setup(seed)
        rs, ri = signatures_np(X, P, 4)
        for arr in (rs, ri):
            assert arr.min() >= 0 and arr.max() < P.shape[0]
            # no duplicate pivots within one signature
            for row in arr:
                assert len(set(row.tolist())) == 4


class TestAssignKernelSpark:
    def test_matches_numpy(self, small_df, small_matrix):
        """The fused Step-4 kernel's Spark signatures ≡ the numpy chain's."""
        from repro.core.index import ClimberIndex
        from repro.core.paa import map_series
        from repro.core.skeleton import build_skeleton

        paa = paa_np(small_matrix, 8)
        P = select_pivots(paa, 12, seed=0)
        rs, _ = signatures_np(paa, P, 4)
        sigs, freqs = np.unique(rs, axis=0, return_counts=True)
        sk = build_skeleton(list(zip(sigs, freqs)), P, w=8, m=4, capacity=100, alpha=1.0)
        pdf = map_series(small_df, sk.assign_rows, ClimberIndex.SCHEMA).orderBy("id").toPandas()
        gid, pid, nodes = sk.assign_records(rs, np.arange(len(rs)))
        np.testing.assert_array_equal(pdf["id"].to_numpy(), np.arange(len(rs)))
        np.testing.assert_array_equal(pdf["gid"].to_numpy(), gid)
        np.testing.assert_array_equal(pdf["pid"].to_numpy(), pid)
        np.testing.assert_array_equal(pdf["node"].to_numpy(), nodes)
