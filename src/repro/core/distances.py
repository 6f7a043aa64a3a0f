"""Similarity metrics for the P⁴ dual representation (paper §IV-C, Defs 3, 7, 9–11).

The metrics here are the glue between the two signature spaces:

* :func:`overlap_distance` (Def. 7) compares two rank-insensitive
  signatures — it counts pivot mismatches and drives the coarse (group)
  level of the index.
* :func:`decay_weights` (Def. 9) turns the *order* in a rank-sensitive
  signature into per-position importance weights (exponential or linear
  decay); :func:`total_weight` (Def. 10) is their constant sum.
* :func:`weight_distance` (Def. 11) compares a rank-sensitive signature
  against a rank-insensitive centroid — the tie-break metric of
  Algorithm 1 and Algorithm 3.
* :func:`ed_np` (Def. 3) is the Gram-form ED ``sqrt(‖x‖²+‖q‖²−2x·q)``; its
  rounding depends on the BLAS call's shape, so it only *selects*.
* :func:`topk` — the one exact record-level top-K, used by the CLIMBER
  scan, Dss and Odyssey — re-scores the selected rows in the direct form
  ``sqrt(Σ(x−q)²)`` and orders them by ``(dist, id)``; :func:`merge_topk`
  merges partial answers in the same order. So no answer depends on batch,
  chunk or partition boundaries.

Matrix forms (``od_matrix`` / ``wd_matrix``) evaluate one metric for a
whole batch of signatures against all centroids at once; they are what
`assignment.candidates`, the OD → WD kernel of the build's assignment and
of the query router, calls.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

DECAY_KINDS = ("exp", "linear")
# Gram-selected candidates per query beyond k that `topk` re-scores.
MARGIN = 64


def overlap_distance(sig_a: Sequence[int], sig_b: Sequence[int]) -> int:
    """Def. 7: ``OD = m − |A ∩ B|`` for two same-length pivot-id sets."""
    a, b = set(map(int, sig_a)), set(map(int, sig_b))
    if len(sig_a) != len(sig_b):
        raise ValueError(f"signature lengths differ: {len(sig_a)} vs {len(sig_b)}")
    return len(sig_a) - len(a & b)


def decay_weights(m: int, kind: str = "exp", lam: float = 0.5) -> np.ndarray:
    """Def. 9: per-position pivot weights, strictly decreasing left→right.

    * ``exp``:    ``f(i, λ) = λ^(i−1)`` — the paper's running example
      (λ=1/2 → [1, 1/2, 1/4, …]).
    * ``linear``: ``f(i, λ) = λ·(m−i+1)`` with ``λ = 1/m`` —
      [1, (m−1)/m, …, 1/m] (``lam`` is ignored, per the paper's definition).
    """
    i = np.arange(1, m + 1, dtype=np.float64)
    if kind == "exp":
        if not 0.0 < lam < 1.0:
            raise ValueError(f"exp decay needs λ in (0,1), got {lam}")
        return lam ** (i - 1)
    if kind == "linear":
        return (m - i + 1) / m
    raise ValueError(f"unknown decay kind {kind!r}; expected one of {DECAY_KINDS}")


def total_weight(weights: np.ndarray) -> float:
    """Def. 10: the (constant) sum of the position weights."""
    return float(np.sum(weights))


def weight_distance(sig_rs: Sequence[int], centroid_ri: Sequence[int], weights: np.ndarray) -> float:
    """Def. 11: total weight minus the weights of pivots present in the centroid."""
    if len(sig_rs) != len(weights):
        raise ValueError("rank-sensitive signature and weight vector length differ")
    cen = set(map(int, centroid_ri))
    hit = sum(float(w) for p, w in zip(sig_rs, weights) if int(p) in cen)
    return total_weight(np.asarray(weights)) - hit


def centroid_mask(centroids: Sequence[Sequence[int]], r: int) -> np.ndarray:
    """(C, r) boolean membership matrix: mask[c, p] ⇔ pivot p ∈ centroid c.

    The fall-back centroid ``⟨*,*,…⟩`` is *not* representable here — it is
    handled explicitly by the assignment rules (all-OD = m case).
    """
    C = len(centroids)
    mask = np.zeros((C, r), dtype=bool)
    for ci, sig in enumerate(centroids):
        ids = np.asarray(sig, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= r):
            raise ValueError(f"centroid {ci} has pivot id outside [0, {r})")
        mask[ci, ids] = True
    return mask


def od_matrix(sigs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Batched Def. 7: OD of each signature (row) to each centroid.

    ``sigs`` — (B, m) int pivot ids (rank-sensitive or -insensitive; OD only
    uses the set). ``mask`` — (C, r) from :func:`centroid_mask`.
    Returns (B, C) int64.
    """
    S = np.asarray(sigs, dtype=np.int64)
    m = S.shape[1]
    # mask[:, S] -> (C, B, m); sum over prefix positions = overlap size.
    overlap = mask[:, S].sum(axis=2).T  # (B, C)
    return (m - overlap).astype(np.int64)


def wd_matrix(sig_rs: np.ndarray, mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Batched Def. 11: WD of each rank-sensitive signature to each centroid.

    Returns (B, C) float64. Lower = more of the signature's high-weight
    pivots are present in the centroid.
    """
    S = np.asarray(sig_rs, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    hits = mask[:, S]  # (C, B, m) bool
    gained = (hits * w[None, None, :]).sum(axis=2).T  # (B, C)
    return total_weight(w) - gained


def ed_np(batch: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Def. 3: Euclidean distances from each row of ``batch`` to ``query``(s).

    ``batch`` — (B, n); ``query`` — (n,) or (Q, n).
    Returns (B,) for a single query or (B, Q) for a batch of queries.
    """
    X = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    Q = np.asarray(query, dtype=np.float64)
    single = Q.ndim == 1
    Q2 = np.atleast_2d(Q)
    d2 = (X * X).sum(axis=1)[:, None] + (Q2 * Q2).sum(axis=1)[None, :] - 2.0 * (X @ Q2.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    return d[:, 0] if single else d


def _direct_ed(batch: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Direct-form ED ``sqrt(Σ(x−q)²)`` of each row of ``batch`` to one query."""
    diff = batch - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def topk(batch: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int) -> Tuple[np.ndarray, ...]:
    """Exact top-``k`` rows of ``batch`` (B, n) per query, ordered by ``(dist, id)``.

    ``ids`` — (B,); ``query`` — (n,) or (Q, n). Returns flat ``(query row,
    id, dist)`` arrays, query by query; ``dist`` is the direct-form ED, NaN
    (ranked last) for a row with a NaN reading. :func:`ed_np` selects
    ``k + MARGIN`` candidates per query and only those are re-scored,
    unless the excluded rows' Gram ``d²`` is not safely beyond the k-th
    direct ``d²``: then every row is.
    """
    X = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    ids = np.asarray(ids)
    Q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    k = min(int(k), len(ids))
    select = k + MARGIN < len(ids)
    if select:
        d = ed_np(X, Q)  # (B, Q)
        cand = np.argpartition(d, k + MARGIN - 1, axis=0)[: k + MARGIN]
        # No excluded row's Gram d² is below the largest selected one.
        bound = np.take_along_axis(d, cand, axis=0).max(axis=0) ** 2
    parts = []
    for j, q in enumerate(Q if k > 0 else ()):
        rows = cand[:, j] if select else slice(None)
        dist = _direct_ed(X[rows], q)
        top = np.lexsort((ids[rows], dist))[:k]
        # Gram rounding grows with ‖x‖² + ‖q‖² ≤ 2d² + 3‖q‖².
        if select and not bound[j] - dist[top[-1]] ** 2 > 1e-9 * (bound[j] + q @ q):
            rows, dist = slice(None), _direct_ed(X, q)
            top = np.lexsort((ids, dist))[:k]
        parts.append((np.full(len(top), j), ids[rows][top], dist[top]))
    if not parts:
        return np.empty(0, dtype=np.int64), ids[:0], np.empty(0)
    return tuple(np.concatenate(a) for a in zip(*parts))


def merge_topk(qid: np.ndarray, nid: np.ndarray, dist: np.ndarray, k: int) -> Dict[int, List]:
    """Each query's top-``k`` of flat partial answers by ``(dist, id)``, in one
    ``lexsort``: ``{query id: [(id, dist)]}`` for every query id present."""
    order = np.lexsort((nid, dist, qid))
    q = np.asarray(qid)[order]
    keep = order[np.arange(len(q)) - np.searchsorted(q, q) < k]  # each query's first k
    out: Dict[int, List[Tuple[int, float]]] = {}
    for qi, ni, di in zip(*(np.asarray(a)[keep].tolist() for a in (qid, nid, dist))):
        out.setdefault(qi, []).append((ni, di))
    return out
