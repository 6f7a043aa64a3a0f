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

``assign_batch`` is the vectorized kernel used at index-build time (Step 3
on the sample, Step 4 on the full data); it evaluates WD once for all of a
batch's OD-tied rows. The query router needs the full tied-group list of
one query rather than a single resolved pick: ``tied_groups_after_wd``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import od_matrix, wd_matrix

FALLBACK_GID = 0


@dataclass(frozen=True)
class AssignmentResult:
    """Per-object outcome of Algorithm 1.

    ``gid`` — chosen group id per object (0 = fall-back ``G₀``; real groups
    are 1-based, matching the order of ``mask`` rows + 1).
    ``od`` — (B, C) OD matrix (diagnostics / router reuse).
    """

    gid: np.ndarray
    od: np.ndarray


def tied_groups_after_wd(
    sig_rs_row: np.ndarray, od_row: np.ndarray, mask: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Candidate group ids (1-based) for one object after OD + WD tie-breaks.

    Returns an empty array when the object overlaps no centroid (fall-back
    case). Used by both assignment and the CLIMBER-kNN router (Algorithm 3
    lines 5–9 are exactly this computation).
    """
    m = sig_rs_row.shape[0]
    best = od_row.min()
    if best >= m:
        return np.empty(0, dtype=np.int64)
    cands = np.flatnonzero(od_row == best)
    if cands.size > 1:
        wd = wd_matrix(sig_rs_row[None, :], mask[cands], weights)[0]
        cands = cands[np.flatnonzero(wd == wd.min())]
    return cands + 1  # group ids are 1-based; 0 is reserved for G₀


def assign_batch(
    sig_rs: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray,
    *,
    ids: np.ndarray | None = None,
    seed: int = 0,
) -> AssignmentResult:
    """Vectorized Algorithm 1 over a batch of rank-sensitive signatures.

    ``ids`` (optional, one per row) seed the rule-4 random tie-break so the
    result is deterministic per object id regardless of batching.
    """
    S = np.asarray(sig_rs, dtype=np.int64)
    B, m = S.shape
    od = od_matrix(S, mask)
    gid = np.full(B, FALLBACK_GID, dtype=np.int64)

    best = od.min(axis=1)
    at_best = od == best[:, None]
    n_best = at_best.sum(axis=1)
    overlap = best < m
    # Rows whose smallest OD is unique need no WD evaluation.
    unique_rows = np.flatnonzero(overlap & (n_best == 1))
    gid[unique_rows] = od[unique_rows].argmin(axis=1) + 1
    # OD ties: one WD evaluation for all of them, non-minimal-OD centroids
    # masked out.
    tie_rows = np.flatnonzero(overlap & (n_best > 1))
    if tie_rows.size:
        wd = wd_matrix(S[tie_rows], mask, weights)
        wd[~at_best[tie_rows]] = np.inf
        at_wd_best = wd == wd.min(axis=1)[:, None]
        resolved = at_wd_best.sum(axis=1) == 1
        gid[tie_rows[resolved]] = wd[resolved].argmin(axis=1) + 1
        # Still tied after WD: a uniform pick, seeded per object.
        for i in np.flatnonzero(~resolved):
            b = tie_rows[i]
            obj_seed = seed if ids is None else (seed * 1_000_003 + int(ids[b])) & 0x7FFFFFFF
            gid[b] = int(np.random.default_rng(obj_seed).choice(np.flatnonzero(at_wd_best[i]) + 1))
    return AssignmentResult(gid=gid, od=od)
