"""Algorithm 1 (group assignment) tests, including the paper's Example 1."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import FALLBACK_GID, assign_batch, candidates
from repro.core.distances import centroid_mask, decay_weights, od_matrix


def tied_groups(sig, mask, w):
    """Group ids (1-based) still tied after OD + WD for one signature."""
    return np.flatnonzero(candidates(sig[None], mask, w)[1][0]) + 1


@pytest.fixture()
def example1():
    """Paper Example 1: centroids G1=<1,2,3>, G2=<2,4,5>; X,Y,Z objects."""
    mask = centroid_mask([(1, 2, 3), (2, 4, 5)], r=10)
    w = decay_weights(3, "exp", 0.5)
    sigs = np.array([[3, 4, 1], [4, 2, 1], [6, 2, 7]])  # X, Y, Z rank-sensitive
    return mask, w, sigs


class TestExample1:
    def test_X_assigned_to_G1(self, example1):
        mask, w, sigs = example1
        gid = assign_batch(sigs[:1], mask, w)
        assert gid[0] == 1  # OD(X,G1)=1 < OD(X,G2)=2 — unique smallest

    def test_Y_assigned_to_G2_via_WD(self, example1):
        mask, w, sigs = example1
        gid = assign_batch(sigs[1:2], mask, w)
        # OD tie (both 1); WD(Y,G1)=1 > WD(Y,G2)=0.25 → G2.
        assert gid[0] == 2

    def test_Z_random_between_G1_G2(self, example1):
        mask, w, sigs = example1
        gid = assign_batch(sigs[2:3], mask, w, ids=np.array([99]))
        assert gid[0] in (1, 2)
        assert set(tied_groups(sigs[2], mask, w).tolist()) == {1, 2}

    def test_Z_assignment_deterministic_per_id(self, example1):
        mask, w, sigs = example1
        a = assign_batch(sigs[2:3], mask, w, ids=np.array([5]), seed=1)
        b = assign_batch(sigs[2:3], mask, w, ids=np.array([5]), seed=1)
        assert a[0] == b[0]

    def test_Z_varies_across_ids(self, example1):
        mask, w, sigs = example1
        picks = {
            int(assign_batch(sigs[2:3], mask, w, ids=np.array([i]), seed=1)[0])
            for i in range(40)
        }
        assert picks == {1, 2}  # rule 4 really is random over the tied pair


class TestFallback:
    def test_zero_overlap_goes_to_G0(self, example1):
        mask, w, _ = example1
        sig = np.array([7, 8, 9])
        gid = assign_batch(sig[None], mask, w)
        assert gid[0] == FALLBACK_GID
        assert tied_groups(sig, mask, w).size == 0

    def test_mixed_batch(self, example1):
        mask, w, sigs = example1
        batch = np.vstack([sigs, [[7, 8, 9]]])
        gid = assign_batch(batch, mask, w, ids=np.arange(4))
        assert gid[3] == FALLBACK_GID
        assert gid[0] == 1 and gid[1] == 2


class TestTiedGroups:
    def test_unique_min_single_candidate(self, example1):
        mask, w, sigs = example1
        cands = tied_groups(sigs[0], mask, w)
        assert list(cands) == [1]

    def test_wd_resolves_tie(self, example1):
        mask, w, sigs = example1
        cands = tied_groups(sigs[1], mask, w)
        assert list(cands) == [2]

    def test_double_tie_returns_both(self, example1):
        mask, w, sigs = example1
        cands = tied_groups(sigs[2], mask, w)
        assert sorted(cands.tolist()) == [1, 2]

    def test_no_overlap_empty(self, example1):
        mask, w, _ = example1
        sig = np.array([7, 8, 9])
        assert tied_groups(sig, mask, w).size == 0

    def test_masks_per_rule(self, example1):
        """``at_od`` keeps every smallest-OD group, ``tied`` only the WD
        winners among them; both are empty for a fall-back row."""
        mask, w, sigs = example1
        at_od, tied = candidates(np.vstack([sigs, [[7, 8, 9]]]), mask, w)
        assert at_od.tolist() == [[True, False], [True, True], [True, True], [False, False]]
        assert tied.tolist() == [[True, False], [False, True], [True, True], [False, False]]


class TestBatchSemantics:
    def _reference(self, sigs, mask, w, ids, seed):
        """Row-at-a-time Algorithm 1 as an independent reference."""
        from repro.core.distances import overlap_distance, weight_distance

        m = sigs.shape[1]
        cents = [tuple(np.flatnonzero(mask[c])) for c in range(mask.shape[0])]
        out = []
        for b in range(sigs.shape[0]):
            ods = [overlap_distance(sigs[b], c) for c in cents]
            if min(ods) >= m:
                out.append(FALLBACK_GID)
                continue
            best = [i for i, d in enumerate(ods) if d == min(ods)]
            if len(best) == 1:
                out.append(best[0] + 1)
                continue
            wds = [weight_distance(sigs[b], cents[i], w) for i in best]
            tied = [best[i] for i, d in enumerate(wds) if d == min(wds)]
            if len(tied) == 1:
                out.append(tied[0] + 1)
            else:
                obj_seed = (seed * 1_000_003 + int(ids[b])) & 0x7FFFFFFF
                out.append(
                    int(np.random.default_rng(obj_seed).choice(np.asarray(tied) + 1))
                )
        return np.asarray(out)

    @staticmethod
    def _case(seed, B, C, r=9, m=3):
        rng = np.random.default_rng(seed)
        sigs = np.stack([rng.choice(r, m, replace=False) for _ in range(B)])
        cents = [tuple(sorted(rng.choice(r, m, replace=False))) for _ in range(C)]
        return sigs, centroid_mask(cents, r), decay_weights(m, "exp", 0.5)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, seed):
        # 12 rows over 4 centroids, and a tie-heavy 200-row batch over 3.
        for B, C in ((12, 4), (200, 3)):
            sigs, mask, w = self._case(seed, B, C)
            ids = np.arange(B)
            got = assign_batch(sigs, mask, w, ids=ids, seed=seed)
            np.testing.assert_array_equal(got, self._reference(sigs, mask, w, ids, seed))

    def test_tie_heavy_batch_mixes_every_rule(self):
        """One batch holds unique-OD, WD-resolved, random-tie and fall-back
        rows, and every one matches the row-wise reference."""
        sigs, mask, w = self._case(0, 200, 3)
        m = sigs.shape[1]
        od = od_matrix(sigs, mask)
        n_tied = candidates(sigs, mask, w)[1].sum(axis=1)
        n_best = (od == od.min(axis=1)[:, None]).sum(axis=1)
        fallback = od.min(axis=1) >= m
        unique = ~fallback & (n_best == 1)
        wd_resolved = ~fallback & (n_best > 1) & (n_tied == 1)
        random_tie = n_tied > 1
        assert min(fallback.sum(), unique.sum(), wd_resolved.sum(), random_tie.sum()) > 0
        ids = np.arange(200)
        got = assign_batch(sigs, mask, w, ids=ids, seed=3)
        np.testing.assert_array_equal(got, self._reference(sigs, mask, w, ids, 3))

    def test_batching_invariance(self):
        rng = np.random.default_rng(11)
        sigs = np.stack([rng.choice(8, 3, replace=False) for _ in range(10)])
        mask = centroid_mask([(0, 1, 2), (2, 3, 4), (4, 5, 6)], r=8)
        w = decay_weights(3, "exp", 0.5)
        ids = np.arange(10)
        whole = assign_batch(sigs, mask, w, ids=ids)
        parts = np.concatenate(
            [assign_batch(sigs[i : i + 3], mask, w, ids=ids[i : i + 3]) for i in range(0, 10, 3)]
        )
        np.testing.assert_array_equal(whole, parts)
