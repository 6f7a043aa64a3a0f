"""PAA segmentation tests (paper §IV-B Step 1, Fig. 3)."""
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paa import (
    map_series, paa_np, sample_paa, segment_bounds, series_binary, series_matrix, znorm_np,
)
from repro.oracle import assert_equivalent


class TestSegmentBounds:
    @pytest.mark.parametrize("n,w", [(12, 4), (16, 4), (64, 8), (256, 16), (10, 10), (7, 1)])
    def test_covers_range(self, n, w):
        b = segment_bounds(n, w)
        assert b[0] == 0 and b[-1] == n and len(b) == w + 1

    @pytest.mark.parametrize("n,w", [(12, 4), (13, 4), (100, 7), (256, 16)])
    def test_segments_nonempty_and_balanced(self, n, w):
        lengths = np.diff(segment_bounds(n, w))
        assert lengths.min() >= 1
        assert lengths.max() - lengths.min() <= 1

    @pytest.mark.parametrize("n,w", [(4, 5), (4, 0), (4, -1)])
    def test_invalid_w_raises(self, n, w):
        with pytest.raises(ValueError):
            segment_bounds(n, w)


class TestPaaNp:
    def test_paper_figure3_shape(self):
        # Fig. 3: n=12 → w=4, each PAA value is the mean of 3 readings.
        x = np.arange(12.0)
        out = paa_np(x, 4)
        assert out.shape == (1, 4)
        np.testing.assert_allclose(out[0], [1.0, 4.0, 7.0, 10.0])

    def test_single_segment_is_global_mean(self):
        x = np.random.default_rng(0).normal(size=(5, 32))
        np.testing.assert_allclose(paa_np(x, 1)[:, 0], x.mean(axis=1))

    def test_w_equals_n_is_identity(self):
        x = np.random.default_rng(1).normal(size=(3, 8))
        np.testing.assert_allclose(paa_np(x, 8), x)

    def test_1d_input_promoted(self):
        assert paa_np(np.ones(8), 2).shape == (1, 2)

    def test_constant_series(self):
        np.testing.assert_allclose(paa_np(np.full((2, 12), 3.5), 4), 3.5)

    @pytest.mark.parametrize("n,w", [(12, 4), (13, 5), (100, 16), (256, 16)])
    def test_matches_manual_segmentation(self, n, w):
        x = np.random.default_rng(2).normal(size=(4, n))
        b = segment_bounds(n, w)
        expect = np.stack([[x[i, b[j]:b[j + 1]].mean() for j in range(w)] for i in range(4)])
        np.testing.assert_allclose(paa_np(x, w), expect)

    @given(st.integers(2, 40), st.integers(1, 10), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_mean_preservation_property(self, n, w, seed):
        # Length-weighted mean of PAA values equals the series mean.
        w = min(w, n)
        x = np.random.default_rng(seed).normal(size=(2, n))
        lengths = np.diff(segment_bounds(n, w))
        approx = (paa_np(x, w) * lengths).sum(axis=1) / n
        np.testing.assert_allclose(approx, x.mean(axis=1), atol=1e-9)

    @given(st.integers(4, 32), st.floats(-5, 5), st.floats(0.1, 3))
    @settings(max_examples=30, deadline=None)
    def test_affine_equivariance(self, n, shift, scale):
        x = np.random.default_rng(3).normal(size=(2, n))
        np.testing.assert_allclose(
            paa_np(scale * x + shift, 4), scale * paa_np(x, 4) + shift, atol=1e-9
        )


class TestZnorm:
    def test_zero_mean_unit_std(self):
        x = np.random.default_rng(4).normal(5, 3, size=(6, 50))
        z = znorm_np(x)
        np.testing.assert_allclose(z.mean(axis=1), 0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=1), 1, atol=1e-9)

    def test_constant_series_maps_to_zero(self):
        np.testing.assert_allclose(znorm_np(np.full((2, 10), 7.0)), 0.0)

    def test_idempotent(self):
        x = np.random.default_rng(5).normal(size=(3, 20))
        np.testing.assert_allclose(znorm_np(znorm_np(x)), znorm_np(x), atol=1e-9)


class TestSeriesMatrix:
    @staticmethod
    def _lists(rows):
        return pa.array(rows, type=pa.list_(pa.float64()))

    def test_decodes_rows(self):
        X = np.random.default_rng(6).normal(size=(5, 7))
        np.testing.assert_array_equal(series_matrix(self._lists(X.tolist())), X)

    def test_zero_copy_view(self):
        col = self._lists(np.arange(12.0).reshape(4, 3).tolist())
        assert np.shares_memory(series_matrix(col), col.values.to_numpy())

    def test_sliced_array_decodes_only_its_rows(self):
        X = np.arange(30.0).reshape(6, 5)
        col = self._lists(X.tolist()).slice(2, 3)
        assert col.offset == 2
        np.testing.assert_array_equal(series_matrix(col), X[2:5])

    def test_empty_array(self):
        M = series_matrix(self._lists([]))
        assert M.shape[0] == 0 and M.dtype == np.float64

    def test_ragged_raises(self):
        with pytest.raises(ValueError, match="ragged series"):
            series_matrix(self._lists([[1.0, 2.0, 3.0], [4.0, 5.0]]))

    def test_null_series_raises(self):
        with pytest.raises(ValueError, match="null series"):
            series_matrix(self._lists([[1.0, 2.0], None, [3.0, 4.0]]))

    def test_null_reading_raises(self):
        with pytest.raises(ValueError, match="null readings"):
            series_matrix(self._lists([[1.0, None], [3.0, 4.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_raises(self, value):
        with pytest.raises(ValueError, match="non-finite readings: 1 values"):
            series_matrix(self._lists([[1.0, 2.0], [3.0, value]]))


class TestSeriesBinary:
    """The stored layout: one ``binary`` value of n little-endian float64
    readings per series, built by `series_binary`, decoded by `series_matrix`."""

    @staticmethod
    def _bits(M):
        return np.ascontiguousarray(M).view(np.uint64)

    @staticmethod
    def _values(rows):
        return pa.array(rows, type=pa.binary())

    def test_round_trip_bit_exact(self):
        X = np.random.default_rng(7).normal(size=(9, 11))
        X[0, :4] = [-0.0, 5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).tiny]
        col = series_binary(X)
        assert col.type == pa.binary() and len(col) == 9
        assert col[3].as_py() == X[3].astype("<f8").tobytes()
        np.testing.assert_array_equal(self._bits(series_matrix(col)), self._bits(X))

    def test_sliced_array_decodes_only_its_rows(self):
        X = np.random.default_rng(8).normal(size=(6, 5))
        col = series_binary(X).slice(2, 3)
        assert col.offset == 2
        np.testing.assert_array_equal(self._bits(series_matrix(col)), self._bits(X[2:5]))

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 12), n=st.integers(1, 9), start=st.integers(0, 12), seed=st.integers(0, 2**16),
    )
    def test_slices_round_trip(self, rows, n, start, seed):
        X = np.random.default_rng(seed).normal(size=(rows, n))
        start = min(start, rows - 1)
        col = series_binary(X).slice(start)
        np.testing.assert_array_equal(self._bits(series_matrix(col)), self._bits(X[start:]))

    def test_zero_copy(self):
        """A C-contiguous float64 matrix is encoded and decoded without a copy."""
        X = np.arange(12.0).reshape(4, 3)
        assert np.shares_memory(series_matrix(series_binary(X)), X)

    def test_non_contiguous_matrix(self):
        X = np.arange(40.0).reshape(5, 8)[:, ::2]
        np.testing.assert_array_equal(series_matrix(series_binary(X)), X)

    def test_empty_array(self):
        M = series_matrix(self._values([]))
        assert M.shape == (0, 0) and M.dtype == np.float64
        assert series_matrix(series_binary(np.empty((0, 4)))).shape == (0, 0)

    def test_null_series_raises(self):
        with pytest.raises(ValueError, match="null series"):
            series_matrix(self._values([b"\0" * 8, None]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_raises(self, value):
        with pytest.raises(ValueError, match="non-finite readings: 1 values"):
            series_matrix(series_binary(np.array([[1.0, 2.0], [3.0, value]])))

    def test_length_not_whole_readings_raises(self):
        with pytest.raises(ValueError, match="not a whole number of float64 readings"):
            series_matrix(self._values([b"\0" * 12, b"\0" * 12]))

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="ragged series"):
            series_matrix(self._values([b"\0" * 16, b"\0" * 8]))

    def test_builder_raises_past_int32_offsets(self):
        """2²⁰ rows × 257 readings is 2 155 872 256 bytes, past 2³¹ − 1: the
        builder refuses before copying, rather than wrap the offsets (the
        matrix is a broadcast view, so nothing of that size is allocated)."""
        M = np.broadcast_to(np.zeros((1, 1)), (1 << 20, 257))
        with pytest.raises(ValueError, match="exceed the binary offset range"):
            series_binary(M)


def paa_rows(df, w):
    """``(id, paa)`` through the build's shared kernel, as Step 1's sample runs it."""
    return map_series(df, lambda ids, X: {"paa": paa_np(X, w)}, "id long, paa binary")


class TestWithPaaSpark:
    def test_matches_numpy(self, spark, small_df, small_matrix):
        got = sample_paa(small_df, partial(paa_np, w=8), 1.0, 0)  # α = 1: every row, by id
        np.testing.assert_allclose(got, paa_np(small_matrix, 8), atol=1e-9)

    def test_empty_input(self, small_df):
        assert paa_rows(small_df.limit(0), 4).count() == 0

    def test_oracle_segment_means(self, spark, small_df):
        """DuckDB oracle: PAA segment means == SQL AVG over exploded points."""
        src = small_df.orderBy("id").limit(50)
        pdf = src.join(paa_rows(src, 4), "id").toPandas()
        assert len(pdf) == 50
        pdf["paa"] = list(series_matrix(pa.array(pdf["paa"], pa.binary())))
        long_rows = []
        for _, row in pdf.iterrows():
            for j, v in enumerate(row["series"]):
                long_rows.append((int(row["id"]), j // (len(row["series"]) // 4), float(v)))
        long_df = pd.DataFrame(long_rows, columns=["id", "seg", "val"])
        spark_long = pd.DataFrame(
            [
                (int(row["id"]), seg, float(v))
                for _, row in pdf.iterrows()
                for seg, v in enumerate(row["paa"])
            ],
            columns=["id", "seg", "paa_val"],
        )
        assert_equivalent(
            spark.createDataFrame(spark_long),
            "SELECT id, seg, avg(val) AS paa_val FROM long GROUP BY id, seg",
            long=long_df,
        )
