"""Piecewise Aggregate Approximation (PAA) — CLIMBER-FX Step 1 (paper §IV-B).

PAA divides a length-``n`` data series into ``w`` equal-size segments and
represents each segment by its mean value (paper Fig. 3). It is the
dimensionality-reduction front end shared by CLIMBER's P⁴ signatures and by
the iSAX-based baselines (TARDIS, DPiSAX). :func:`paa_np` is the vectorized
numpy kernel (batch of series → batch of PAA vectors), used on executors
and on the driver alike.

:func:`series_matrix` is the one decoder of a ``series`` column: it views
an Arrow array as a (rows × n) matrix without a per-row copy, in either
layout — the input's ``list<double>``, or the stored ``binary`` whose values
each hold a series' n little-endian float64 readings, as
:func:`series_binary` (the one encoder) builds it. Every executor kernel
reads its series through it, so each rejects a non-finite reading.

:func:`map_batch` is the build kernel's body: per Arrow batch it decodes
``series`` once, applies the caller's batch function, and encodes every
matrix-valued column it returns. Step 1's α-sample (:func:`map_series`
over :func:`sample_paa`: CLIMBER's PAA, the baselines' z-normalised PAA)
and Step 4's assignment (CLIMBER's ``(gid, node, pid)``, the baselines'
``pid``, in `index.write_partitions`'s spill tasks) both run through it;
Step 4's gather (`index.write_pid`) and the kNN scan (`query.scan_batch`)
are the only other executor task bodies.

Every executor kernel imports this module, so it also installs
:func:`_keep_zip_directories` in each Spark Python worker: a task no longer
re-reads the unchanged zip archives on the worker's path.
"""
from __future__ import annotations

import functools
import os
import zipimport
from typing import Callable, Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _keep_zip_directories() -> None:
    """Make ``zipimporter.invalidate_caches`` skip an unchanged archive.

    PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
    every task, and CPython 3.11's ``zipimporter.invalidate_caches`` re-reads
    its whole archive directory each time: about 27 000 central-directory
    entries per task over PySpark's own archives, 0.1–0.2 CPU-s. The wrapper
    keeps the directory cached in ``zipimport._zip_directory_cache`` while
    the archive's ``(st_mtime_ns, st_size, st_ino)`` matches the stamp taken
    when it was last read; a changed, replaced or missing archive takes the
    stock path, so a changed archive is still re-read. Installs once per
    interpreter, and not at all where those internals are missing.
    """
    cls, cache = zipimport.zipimporter, getattr(zipimport, "_zip_directory_cache", None)
    stock = getattr(cls, "invalidate_caches", None)
    if stock is None or not isinstance(cache, dict) or hasattr(stock, "__wrapped__"):
        return
    stamps = {}  # archive path → stat stamp taken just before its last read

    @functools.wraps(stock)
    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
        except OSError:
            return stock(self)
        stamp = (st.st_mtime_ns, st.st_size, st.st_ino)
        files = cache.get(self.archive)
        if files is not None and stamps.get(self.archive) == stamp:
            self._files = files
            return
        stock(self)
        stamps[self.archive] = stamp

    cls.invalidate_caches = invalidate_caches


_keep_zip_directories()


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


def znorm_np(series: np.ndarray) -> np.ndarray:
    """Z-normalize each series (mean 0, std 1); constant series map to 0.

    iSAX breakpoints assume N(0,1)-distributed values, so baselines apply
    this before PAA. The dataset generators (`synth_data`) emit their rows
    through it too; the kernel is idempotent and safe to reuse.
    """
    X = np.asarray(series, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    mu = X.mean(axis=1, keepdims=True)
    sd = X.std(axis=1, keepdims=True)
    sd = np.where(sd < 1e-12, 1.0, sd)
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


def _arrow(col) -> pa.Array:
    """A batch function's column → Arrow: a matrix as `series_binary`, any
    other array as it is."""
    if isinstance(col, pa.Array):
        return col
    col = np.asarray(col)
    return series_binary(col) if col.ndim == 2 else pa.array(col)


def map_batch(batch: pa.RecordBatch, fn: Callable, schema: str) -> pa.RecordBatch:
    """The build kernel's body, on one non-empty Arrow batch of ``(id,
    series)`` rows: decode ``series`` once (`series_matrix`) and call
    ``fn(ids, X)`` for a ``name → array`` dict. The output has the columns
    ``schema`` names, in its order, taken from that dict or from ``id``
    (passed through) and ``series`` (the decoded matrix); every
    matrix-valued column leaves as `series_binary`."""
    names = [f.split()[0] for f in schema.split(",")]
    ids, X = batch.column("id"), series_matrix(batch.column("series"))
    cols = {"id": ids, "series": X, **fn(ids.to_numpy(), X)}
    return pa.RecordBatch.from_arrays([_arrow(cols[c]) for c in names], names=names)


def map_series(df: DataFrame, fn: Callable, schema: str) -> DataFrame:
    """The build's one executor kernel: ``(id, series)`` rows → ``schema``,
    one `map_batch` per non-empty Arrow batch. Step 1's sample, of CLIMBER
    and of the iSAX baselines, runs through it; Step 4's exchange
    (`index.write_partitions`) runs `map_batch` in its own tasks."""

    def gen(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            if batch.num_rows:
                yield map_batch(batch, fn, schema)

    return df.select("id", "series").mapInArrow(gen, schema=schema)


def sample_paa(df: DataFrame, paa: Callable[[np.ndarray], np.ndarray], alpha: float, seed: int) -> np.ndarray:
    """Step 1's α-sample: the (rows × w) matrix ``paa(X)`` of the sampled
    series — CLIMBER's PAA, or the baselines' z-normalised PAA.

    A row is kept when ``pmod(xxhash64(id, seed), 2²⁰) < α·2²⁰``, so the
    sample depends on the ids alone, not on how the input is split into
    partitions; only ``(id, paa)`` leaves the executors, and the rows come
    back ordered by id. An empty sample gives a (0 × 0) matrix.
    """
    scale = 1 << 20
    keep = F.pmod(F.xxhash64("id", F.lit(seed)), F.lit(scale)) < F.lit(alpha * scale)
    pdf = map_series(df.where(keep), lambda ids, X: {"paa": paa(X)}, "id long, paa binary").toPandas()
    return series_matrix(pa.array(pdf.sort_values("id")["paa"], pa.binary()))
