"""Data-series datasets for the CLIMBER reproduction (paper §VII-A).

The paper evaluates on RandomWalk (1B × 256), Texmex SIFT (1B × 128),
UCSC DNA (× 192), and Seizure EEG (× 256). The public corpora are not
available offline, so each generator below synthesizes series with the
same length and the same salient statistical character (see DESIGN.md §4
for the substitution rationale). All series are z-normalized, matching
the standard preprocessing of the cited index papers.

Each generator returns a DataFrame ``(id: long, series: array<double>)``
produced distributedly via ``spark.range(...).mapInPandas`` and is
deterministic per ``(seed, id)`` — independent of Spark partitioning.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .core.paa import znorm_np

SERIES_SCHEMA = "id long, series array<double>"


def _series_df(spark: SparkSession, n: int, make_batch, partitions: int | None = None) -> DataFrame:
    """Distributed generation scaffold: ids → batches of (id, series)."""
    parts = partitions or max(2, min(64, n // 2000 + 1))

    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            if len(ids) == 0:
                continue
            X = make_batch(ids)
            yield pd.DataFrame({"id": ids, "series": list(X)})

    return spark.range(0, n, numPartitions=parts).mapInPandas(gen, schema=SERIES_SCHEMA)


def _per_row_normals(ids: np.ndarray, length: int, seed: int) -> np.ndarray:
    """Deterministic per-row N(0,1) matrix, independent of batching."""
    out = np.empty((len(ids), length))
    for i, rid in enumerate(ids):
        out[i] = np.random.default_rng(np.random.SeedSequence([seed, int(rid)])).standard_normal(length)
    return out


def random_walk_series(spark: SparkSession, *, n: int, length: int = 256, seed: int = 11) -> DataFrame:
    """RandomWalk benchmark: cumulative sums of N(0,1) steps, z-normalized."""

    def make(ids: np.ndarray) -> np.ndarray:
        steps = _per_row_normals(ids, length, seed)
        return znorm_np(np.cumsum(steps, axis=1))

    return _series_df(spark, n, make)


def sift_like_series(
    spark: SparkSession, *, n: int, length: int = 128, n_clusters: int = 64, seed: int = 13
) -> DataFrame:
    """SIFT-like vectors: Gaussian mixture in 128-D with cluster structure.

    Texmex SIFT descriptors are clusterable 128-D feature vectors; a seeded
    mixture reproduces that property (what pivot/graph methods exploit).
    """
    centers = np.random.default_rng(seed).standard_normal((n_clusters, length)) * 2.0

    def make(ids: np.ndarray) -> np.ndarray:
        noise = _per_row_normals(ids, length, seed + 1)
        which = ids % n_clusters
        return znorm_np(centers[which] + 0.6 * noise)

    return _series_df(spark, n, make)


def dna_series(spark: SparkSession, *, n: int, length: int = 192, seed: int = 17) -> DataFrame:
    """DNA subsequences converted to series as in iSAX 2.0 [12]:

    random ACGT strings mapped to per-base steps (A:+2, C:+1, G:−1, T:−2),
    cumulatively summed, then z-normalized.
    """
    step_of = np.array([2.0, 1.0, -1.0, -2.0])  # A C G T

    def make(ids: np.ndarray) -> np.ndarray:
        u = _per_row_normals(ids, length, seed + 2)
        # Gaussian quartiles → 4 equiprobable bases, deterministic per row.
        bases = np.digitize(u, [-0.6744897501960817, 0.0, 0.6744897501960817])
        return znorm_np(np.cumsum(step_of[bases], axis=1))

    return _series_df(spark, n, make)


def eeg_series(spark: SparkSession, *, n: int, length: int = 256, seed: int = 19) -> DataFrame:
    """Seizure-EEG-like records: band-limited oscillations + bursts + noise.

    Records are grouped into "subjects" (the dataset's dogs/humans × 16
    electrodes): every subject has a fixed frequency/amplitude profile in
    the EEG bands, and each record *blends* its subject's profile with the
    next subject's (a per-record mixing weight), then adds per-record
    phase jitter, an occasional high-amplitude burst (the "seizure"), and
    noise. The blended profiles give records the strong but *continuous*
    inter-record correlation of real scalp EEG — neighbourhoods vary
    smoothly rather than forming discrete clusters.
    """
    t = np.arange(length) / 400.0  # paper: 400 Hz sampling
    n_subjects = 100
    sg = np.random.default_rng(np.random.SeedSequence([seed, 0xEE6]))
    subj_freq = sg.uniform(1.0, 30.0, size=(n_subjects, 3))  # delta..beta bands
    subj_amp = sg.uniform(0.5, 1.5, size=(n_subjects, 3))
    subj_phase = sg.uniform(0, 2 * np.pi, size=(n_subjects, 3))

    def make(ids: np.ndarray) -> np.ndarray:
        out = np.empty((len(ids), length))
        for i, rid in enumerate(ids):
            g = np.random.default_rng(np.random.SeedSequence([seed, int(rid)]))
            s = int(rid) % n_subjects
            s2 = (s + 1) % n_subjects
            u = g.uniform(0.0, 1.0)  # blend position between the two profiles
            x = np.zeros(length)
            for band in range(3):
                f = (1 - u) * subj_freq[s][band] + u * subj_freq[s2][band]
                a = (1 - u) * subj_amp[s][band] + u * subj_amp[s2][band]
                p0 = subj_phase[s][band]
                x += a * np.sin(2 * np.pi * f * t + p0 + 0.3 * g.uniform(-1, 1))
            if g.random() < 0.2:  # seizure burst
                c = g.integers(0, length)
                x += 3.0 * np.exp(-0.5 * ((np.arange(length) - c) / 8.0) ** 2) * np.sin(
                    2 * np.pi * 3.0 * 400.0 * t
                )
            out[i] = x + 0.3 * g.standard_normal(length)
        return znorm_np(out)

    return _series_df(spark, n, make)


#: dataset registry used by the experiment harness (paper §VII-A order).
SERIES_DATASETS = {
    "randomwalk": random_walk_series,
    "sift": sift_like_series,
    "dna": dna_series,
    "eeg": eeg_series,
}
