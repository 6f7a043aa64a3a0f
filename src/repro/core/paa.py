"""Piecewise Aggregate Approximation (PAA) — CLIMBER-FX Step 1 (paper §IV-B).

PAA divides a length-``n`` data series into ``w`` equal-size segments and
represents each segment by its mean value (paper Fig. 3). It is the
dimensionality-reduction front end shared by CLIMBER's P⁴ signatures and by
the iSAX-based baselines (TARDIS, DPiSAX).

Two forms are provided:

* :func:`paa_np` — the vectorized numpy kernel (batch of series → batch of
  PAA vectors). This is the reference implementation used by tests and by
  driver-side query transformation.
* :func:`with_paa` — the Spark operator: maps a DataFrame of
  ``(id, series)`` rows to ``(id, paa)`` via ``mapInArrow`` so the kernel
  runs on executors straight over the Arrow batches.

:func:`series_matrix` is the one decoder of a ``series`` column: it views
an Arrow array as a (rows × n) matrix without a per-row copy, in either
layout — the input's ``list<double>``, or the stored ``binary`` whose values
each hold a series' n little-endian float64 readings, as
:func:`series_binary` builds it. Every executor kernel (PAA, the Step-4
assignment, the baselines' redistribution, the kNN scan) reads its series
through it, so each rejects a non-finite reading. :func:`sample_paa` is
Step 1's α-sample, shared by CLIMBER and the iSAX baselines.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, DoubleType, StructField, StructType


def segment_bounds(n: int, w: int) -> np.ndarray:
    """Segment boundaries for a length-``n`` series split into ``w`` pieces.

    Returns ``w + 1`` integer offsets. When ``w`` does not divide ``n`` the
    remainder is spread as evenly as possible (linspace rounding), matching
    the standard PAA generalization; every segment is non-empty.
    """
    if not 1 <= w <= n:
        raise ValueError(f"need 1 <= w <= n, got w={w}, n={n}")
    return np.round(np.linspace(0, n, w + 1)).astype(np.int64)


def paa_np(series: np.ndarray, w: int) -> np.ndarray:
    """PAA transform of a batch of series.

    Parameters
    ----------
    series : (B, n) float array — B series of length n.
    w : number of segments.

    Returns
    -------
    (B, w) float64 array of segment means.
    """
    X = np.asarray(series, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    n = X.shape[1]
    bounds = segment_bounds(n, w)
    lengths = np.diff(bounds).astype(np.float64)
    # reduceat sums each [bounds[i], bounds[i+1]) slice along axis 1.
    sums = np.add.reduceat(X, bounds[:-1], axis=1)
    return sums / lengths


def znorm_np(series: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Z-normalize each series (mean 0, std 1); constant series map to 0.

    iSAX breakpoints assume N(0,1)-distributed values, so baselines apply
    this before PAA. CLIMBER's generators already emit z-normalized series
    but the kernel is idempotent and safe to reuse.
    """
    X = np.asarray(series, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    mu = X.mean(axis=1, keepdims=True)
    sd = X.std(axis=1, keepdims=True)
    sd = np.where(sd < eps, 1.0, sd)
    return (X - mu) / sd


def series_matrix(col: pa.Array) -> np.ndarray:
    """View an Arrow ``series`` column as a (rows × n) float64 matrix.

    ``col`` is ``list<double>`` (the input) or ``binary`` holding each
    series' n little-endian float64 readings (the stored rows). No per-row
    copy: the result is a view of the list's child values or of the binary
    values buffer. Slice offsets are honoured, so a sliced array
    decodes exactly its own rows. An empty array gives a (0 × 0) matrix.
    Raises ``ValueError`` on a null series, a null or non-finite (NaN, ±inf)
    reading, series of unequal length, or a binary value whose byte length
    is not a multiple of 8.
    """
    rows = len(col)
    if col.null_count:
        raise ValueError(f"null series: {col.null_count} of {rows} rows are null")
    if not rows:
        return np.empty((0, 0))
    binary = pa.types.is_binary(col.type)
    if binary:  # offsets not rebased by a slice: start at the slice's first row
        offsets = np.frombuffer(col.buffers()[1], np.int32, rows + 1, col.offset * 4)
    else:
        offsets = col.offsets.to_numpy()
    lengths = np.diff(offsets)
    if (lengths != lengths[0]).any():
        raise ValueError(
            f"ragged series: lengths range from {lengths.min()} to {lengths.max()}; "
            "every series must have the same length"
        )
    if binary:
        if lengths[0] % 8:
            raise ValueError(f"series of {lengths[0]} bytes: not a whole number of float64 readings")
        n = int(lengths[0]) // 8
        M = np.frombuffer(col.buffers()[2], np.dtype("<f8"), rows * n, int(offsets[0]))
    else:
        values = col.flatten()  # exactly this slice's readings
        if values.null_count:
            raise ValueError(f"null readings: {values.null_count} values are null")
        n = int(lengths[0])
        M = np.asarray(values.to_numpy(zero_copy_only=False), dtype=np.float64)
    M = M.reshape(rows, n)
    if not np.isfinite(M).all():
        raise ValueError(f"non-finite readings: {(~np.isfinite(M)).sum()} values are NaN or infinite")
    return M


def series_binary(M: np.ndarray) -> pa.BinaryArray:
    """(rows × n) matrix → the stored ``series`` column: one ``binary`` value
    per row holding its n little-endian float64 readings, built over the
    matrix's bytes with no per-row work (no copy when ``M`` is already
    C-contiguous float64). Raises ``ValueError`` when the bytes exceed the
    int32 offset range of one Arrow ``binary`` array."""
    rows, n = M.shape
    offsets = np.arange(rows + 1, dtype=np.int64) * (8 * n)
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError(
            f"{offsets[-1]} bytes of series in one batch exceed the binary offset range; "
            "use smaller Arrow batches"
        )
    values = np.ascontiguousarray(M, dtype=np.dtype("<f8"))
    return pa.Array.from_buffers(
        pa.binary(), rows, [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(values)]
    )


def _list_column(M: np.ndarray) -> pa.ListArray:
    """(rows × k) matrix → Arrow ``list<double>`` array, one row per list."""
    rows, k = M.shape
    offsets = pa.array(np.arange(0, rows * k + 1, k, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(M.ravel(), type=pa.float64()))


def with_paa(df: DataFrame, w: int, *, series_col: str = "series", out_col: str = "paa") -> DataFrame:
    """Spark operator: ``(id, series)`` → ``(id, out_col)``, PAA on executors.

    Only the key and the PAA come back; the series stays behind.
    """
    out_schema = StructType([df.schema["id"], StructField(out_col, ArrayType(DoubleType()), False)])

    def gen(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            if batch.num_rows:
                P = paa_np(series_matrix(batch.column(series_col)), w)
                yield pa.RecordBatch.from_arrays(
                    [batch.column("id"), _list_column(P)], names=["id", out_col]
                )

    return df.select("id", series_col).mapInArrow(gen, schema=out_schema)


def sample_paa(df: DataFrame, w: int, alpha: float, seed: int) -> np.ndarray:
    """Step 1's α-sample: the (rows × w) PAA matrix of the sampled series.

    A row is kept when ``pmod(xxhash64(id, seed), 2²⁰) < α·2²⁰``, so the
    sample depends on the ids alone, not on how the input is split into
    partitions; the rows come back ordered by id.
    """
    scale = 1 << 20
    keep = F.pmod(F.xxhash64("id", F.lit(seed)), F.lit(scale)) < F.lit(alpha * scale)
    pdf = with_paa(df.where(keep), w).toPandas()
    if not len(pdf):
        return np.empty((0, w))
    return np.stack(pdf.sort_values("id")["paa"].to_numpy())
