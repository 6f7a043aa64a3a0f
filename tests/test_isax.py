"""iSAX representation tests (baseline substrate, paper §III-B Fig. 1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.isax import MAX_BITS, breakpoints, coarsen, isax_symbols


class TestBreakpoints:
    @pytest.mark.parametrize("card", [2, 4, 8, 16, 256])
    def test_count_and_sorted(self, card):
        bp = breakpoints(card)
        assert len(bp) == card - 1
        assert (np.diff(bp) > 0).all()

    def test_symmetric_around_zero(self):
        bp = breakpoints(8)
        np.testing.assert_allclose(bp, -bp[::-1], atol=1e-12)

    def test_median_breakpoint_zero(self):
        assert breakpoints(2)[0] == pytest.approx(0.0)
        assert breakpoints(4)[1] == pytest.approx(0.0)

    def test_known_gaussian_quartiles(self):
        np.testing.assert_allclose(breakpoints(4), [-0.6744897, 0, 0.6744897], atol=1e-6)

    @pytest.mark.parametrize("card", [0, 1, 3, 6, 100])
    def test_invalid_cardinality(self, card):
        with pytest.raises(ValueError):
            breakpoints(card)


class TestSymbols:
    def test_monotone_in_value(self):
        vals = np.linspace(-3, 3, 50)[None, :]
        sym = isax_symbols(vals, 3)
        assert (np.diff(sym[0].astype(int)) >= 0).all()

    def test_equiprobable_for_gaussian(self):
        x = np.random.default_rng(0).standard_normal((1, 200_000))
        sym = isax_symbols(x, 2)
        counts = np.bincount(sym[0], minlength=4) / x.size
        np.testing.assert_allclose(counts, 0.25, atol=0.01)

    def test_range(self):
        x = np.random.default_rng(1).normal(0, 10, size=(5, 20))
        for bits in (1, 4, 8):
            sym = isax_symbols(x, bits)
            assert sym.min() >= 0 and sym.max() < (1 << bits)

    @pytest.mark.parametrize("bits", [0, 9])
    def test_invalid_bits(self, bits):
        with pytest.raises(ValueError):
            isax_symbols(np.zeros((1, 4)), bits)

    def test_zero_maps_to_upper_middle(self):
        # searchsorted(side="right") puts the 0 boundary into the upper stripe
        assert isax_symbols(np.array([[0.0]]), 1)[0, 0] == 1


class TestCoarsen:
    @given(st.integers(0, 400), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_prefix_property(self, seed, bits):
        """iSAX key invariant: coarse symbols are prefixes of fine symbols."""
        x = np.random.default_rng(seed).normal(size=(10, 6))
        fine = isax_symbols(x, MAX_BITS)
        direct = isax_symbols(x, bits)
        np.testing.assert_array_equal(coarsen(fine, MAX_BITS, bits), direct)

    def test_refine_raises(self):
        with pytest.raises(ValueError):
            coarsen(np.zeros((1, 4), dtype=np.uint16), 2, 4)

    def test_identity(self):
        s = isax_symbols(np.random.default_rng(2).normal(size=(3, 4)), 5)
        np.testing.assert_array_equal(coarsen(s, 5, 5), s)
