"""Algorithm 1 — group-assignment rules (paper §IV-C).

Given a list of group centroids (rank-insensitive signatures) and a data
series object with its dual signatures, assign the object to a group:

1. Compute OD (Def. 7) to every centroid. If **all** ODs equal ``m`` (zero
   overlap with every centroid) → the special fall-back group ``G₀``.
2. A unique smallest OD wins.
3. On a tie, compute WD (Def. 11) over the tied centroids using the
   rank-sensitive signature's decay weights; a unique smallest WD wins.
4. On a second tie, pick uniformly at random among the still-tied
   centroids (seeded per-object here so assignment is reproducible and
   independent of Spark partitioning).

Rules 1–3 are :func:`candidates`, the one OD → WD kernel: it evaluates WD
once for all of a batch's OD-tied rows. Algorithm 3's lines 5–9 are the
same rules, so the query router (`query.route`) reads its masks too;
:func:`assign_batch` — Step 3 on the sample, Step 4 on the full data — adds
rule 4's seeded pick.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .distances import od_matrix, wd_matrix

FALLBACK_GID = 0


def candidates(sig_rs: np.ndarray, mask: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rules 1–3 over a batch of rank-sensitive signatures (B × m) and the
    centroid ``mask`` (C × r): two (B × C) masks, ``(at_od, tied)``.

    ``at_od`` marks each row's groups at its smallest OD; ``tied`` the ones
    of those still tied after WD. Column ``c`` is group id ``c + 1``; both
    rows are all-False for a row that overlaps no centroid (``G₀``).
    """
    S = np.asarray(sig_rs, dtype=np.int64)
    od = od_matrix(S, mask)
    best = od.min(axis=1)
    at_od = (od == best[:, None]) & (best < S.shape[1])[:, None]
    tied = at_od.copy()
    # OD ties: one WD evaluation for all of them, non-minimal-OD centroids
    # masked out.
    rows = np.flatnonzero(at_od.sum(axis=1) > 1)
    if rows.size:
        wd = wd_matrix(S[rows], mask, weights)
        wd[~at_od[rows]] = np.inf
        tied[rows] = wd == wd.min(axis=1)[:, None]
    return at_od, tied


def assign_batch(
    sig_rs: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray,
    *,
    ids: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Vectorized Algorithm 1: each row's group id (``FALLBACK_GID`` for
    ``G₀``; real groups are 1-based, in the order of ``mask`` rows).

    ``ids`` (optional, one per row) seed the rule-4 random tie-break so the
    result is deterministic per object id regardless of batching.
    """
    _, tied = candidates(sig_rs, mask, weights)
    n_tied = tied.sum(axis=1)
    gid = np.where(n_tied == 1, tied.argmax(axis=1) + 1, FALLBACK_GID).astype(np.int64)
    # Still tied after WD: a uniform pick, seeded per object.
    for b in np.flatnonzero(n_tied > 1):
        obj_seed = seed if ids is None else (seed * 1_000_003 + int(ids[b])) & 0x7FFFFFFF
        gid[b] = int(np.random.default_rng(obj_seed).choice(np.flatnonzero(tied[b]) + 1))
    return gid
