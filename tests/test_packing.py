"""FFD node-packing tests (paper Def. 13), and the LPT task packing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packing import ffd_pack, lpt_pack


class TestBasics:
    def test_single_item(self):
        assert ffd_pack([("a", 3)], 10) == [["a"]]

    def test_empty(self):
        assert ffd_pack([], 10) == []

    def test_perfect_fit(self):
        bins = ffd_pack([("a", 5), ("b", 5), ("c", 5), ("d", 5)], 10)
        assert len(bins) == 2
        assert sorted(len(b) for b in bins) == [2, 2]

    def test_oversized_item_own_bin(self):
        bins = ffd_pack([("big", 15), ("s1", 2), ("s2", 2)], 10)
        big_bin = next(b for b in bins if "big" in b)
        assert big_bin == ["big"]

    def test_zero_size_items_pack_together(self):
        bins = ffd_pack([("a", 0), ("b", 0), ("c", 1)], 10)
        assert len(bins) == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_invalid_capacity(self, cap):
        with pytest.raises(ValueError):
            ffd_pack([("a", 1)], cap)

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            ffd_pack([("a", -2)], 10)

    def test_deterministic(self):
        """Only the order among equal sizes can change the result."""
        items = [(f"i{k}", (k * 37) % 9 + 1) for k in range(30)]
        assert ffd_pack(items, 12) == ffd_pack(sorted(items, key=lambda kv: kv[1]), 12)

    def test_ties_keep_input_order(self):
        """Equal sizes are packed in the caller's order, whatever the key type."""
        assert ffd_pack([("b", 5), ("a", 5), ("c", 5)], 10) == [["b", "a"], ["c"]]
        assert ffd_pack([("c", 5), ("a", 5), ("b", 5)], 10) == [["c", "a"], ["b"]]
        assert ffd_pack([((2,), 4), ((12,), 4), ((3,), 6)], 10) == [[(3,), (2,)], [(12,)]]


class TestFFDQuality:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.integers(40, 100))
    @settings(max_examples=60, deadline=None)
    def test_capacity_respected_and_all_packed(self, sizes, cap):
        items = [(f"i{k}", s) for k, s in enumerate(sizes)]
        bins = ffd_pack(items, cap)
        size_of = dict(items)
        packed = [k for b in bins for k in b]
        assert sorted(packed) == sorted(size_of)  # full coverage, no dup
        for b in bins:
            assert sum(size_of[k] for k in b) <= cap  # no item > cap here

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_not_worse_than_ffd_bound(self, sizes):
        """FFD uses at most 1.5·OPT + 1 bins; OPT >= ceil(total/cap)."""
        cap = 60
        items = [(f"i{k}", s) for k, s in enumerate(sizes)]
        bins = ffd_pack(items, cap)
        lower = math.ceil(sum(sizes) / cap)
        assert len(bins) <= 1.5 * max(lower, 1) + 1

    def test_first_fit_decreasing_order(self):
        # Classic FFD behavior: big items seed bins, small items fill gaps.
        bins = ffd_pack([("a", 7), ("b", 6), ("c", 4), ("d", 3)], 10)
        assert len(bins) == 2
        assert {"a", "c"} in map(set, bins) or {"a", "d"} in map(set, bins)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_bin_count_at_least_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 20, size=25).tolist()
        cap = 25
        bins = ffd_pack([(f"i{k}", s) for k, s in enumerate(sizes)], cap)
        assert len(bins) >= math.ceil(sum(sizes) / cap)


class TestLptPack:
    def test_largest_first_to_lightest_bin(self):
        items = [("a", 5), ("b", 3), ("c", 3), ("d", 2), ("e", 1)]
        assert lpt_pack(items, 2) == [["a", "d"], ["b", "c", "e"]]

    def test_any_input_order_same_bins(self):
        items = [(p, float(p % 4)) for p in range(11)]
        assert lpt_pack(items[::-1], 3) == lpt_pack(items, 3)

    def test_no_more_bins_than_items(self):
        assert lpt_pack([(7, 1.0)], 4) == [[7]]
        assert lpt_pack([], 4) == []
