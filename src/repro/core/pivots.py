"""Pivot selection and P⁴ dual-signature generation — CLIMBER-FX Step 2.

Implements the paper's Def. 5 (Pivot Permutation Prefix) and Def. 6 (P⁴
dual signature): given ``r`` pivots in PAA space and a prefix length ``m``,

* the **rank-sensitive** signature ``P⁴→`` of a series is the ordered list
  of ids of its ``m`` nearest pivots (ascending distance; ties broken by
  pivot id so the mapping is deterministic), and
* the **rank-insensitive** signature ``P⁴⇉`` is the same ids in
  lexicographic (ascending id) order.

Pivots are selected uniformly at random from a sample of PAA vectors, as
the paper does (§V Step 1: "random selection works competitively well").
"""
from __future__ import annotations

from typing import Tuple

import numpy as np


def select_pivots(paa_sample: np.ndarray, r: int, seed: int = 0) -> np.ndarray:
    """Pick ``r`` distinct rows of ``paa_sample`` uniformly at random.

    Returns an (r, w) float64 array. Pivot *id* ``i`` is row ``i`` of the
    returned matrix; ids are what signatures store. Raises if the sample is
    smaller than ``r`` (the caller should sample more data).
    """
    P = np.asarray(paa_sample, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < r:
        raise ValueError(f"need a 2-D sample with >= {r} rows, got shape {P.shape}")
    idx = np.random.default_rng(seed).choice(P.shape[0], size=r, replace=False)
    return P[np.sort(idx)].copy()


def pivot_distances(paa: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each PAA vector to every pivot.

    (B, w) x (r, w) -> (B, r). Squared distances preserve the ranking used
    by Def. 5 and avoid the sqrt.
    """
    X = np.atleast_2d(np.asarray(paa, dtype=np.float64))
    P = np.asarray(pivots, dtype=np.float64)
    # ||x-p||² = ||x||² + ||p||² − 2·x·p, computed blockwise.
    d2 = (X * X).sum(axis=1)[:, None] + (P * P).sum(axis=1)[None, :] - 2.0 * (X @ P.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def signatures_np(paa: np.ndarray, pivots: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """P⁴ dual signatures for a batch of PAA vectors.

    Returns ``(sig_rs, sig_ri)``, both (B, m) int32:

    * ``sig_rs`` — rank-sensitive: pivot ids ordered by ascending distance
      (stable argsort ⇒ distance ties resolve to the smaller pivot id).
    * ``sig_ri`` — rank-insensitive: the same ids sorted ascending.
    """
    r = pivots.shape[0]
    if not 1 <= m <= r:
        raise ValueError(f"need 1 <= m <= r, got m={m}, r={r}")
    d2 = pivot_distances(paa, pivots)
    order = np.argsort(d2, axis=1, kind="stable")
    sig_rs = order[:, :m].astype(np.int32)
    sig_ri = np.sort(sig_rs, axis=1).astype(np.int32)
    return sig_rs, sig_ri

