"""Benchmark inputs and ground truth, independent of the program under test.

Everything here is plain numpy: the RandomWalk input, the seed-drawn query
ids, the exact kNN oracle and the per-answer output check. Nothing imports
``repro``, so a change to the program's generator or distance kernels cannot
move the inputs or the reference answers.
"""
from __future__ import annotations

import numpy as np

LENGTH = 256  # points per series
K = 50  # neighbours per query (the repo's scaled paper default)

# The oracle preselects candidates with the Gram form and re-scores them in
# the direct form; these many extra candidates make a boundary miss
# impossible unless dozens of series tie with the K-th within rounding.
_MARGIN = 64
# An answer's distance may differ from the direct-form ED by this much:
# an absolute floor (the Gram form leaves ~6e-7 on a self-match) plus a
# relative term.
ABS_TOL = 1e-5
REL_TOL = 1e-9


def random_walk(seed: int, n: int, length: int = LENGTH) -> np.ndarray:
    """``n`` z-normalised random walks of ``length`` points, from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    X = np.cumsum(rng.standard_normal((n, length)), axis=1)
    X -= X.mean(axis=1, keepdims=True)
    X /= X.std(axis=1, keepdims=True)
    return X


def query_order(seed: int, n: int) -> np.ndarray:
    """A seed-drawn permutation of the ids; queries are taken from it in order,
    so every query of a run is a distinct dataset member (paper §VII-A)."""
    return np.random.default_rng([seed, 1]).permutation(n)


def direct_ed(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Direct-form Euclidean distance ``sqrt(sum((x - q)^2))`` of each row to ``q``."""
    diff = rows - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class Oracle:
    """Exact kNN over an in-memory matrix, ordered by ``(dist, id)``."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self._sq = np.einsum("ij,ij->i", X, X)

    def knn(self, Q: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """``[(ids, dists)]`` per row of ``Q``: the exact ``k`` nearest ids."""
        X, n = self.X, self.X.shape[0]
        c = min(n, k + _MARGIN)
        out = []
        for lo in range(0, len(Q), 64):
            B = Q[lo:lo + 64]
            d2 = self._sq[:, None] + np.einsum("ij,ij->i", B, B)[None, :] - 2.0 * (X @ B.T)
            cand = np.argpartition(d2, c - 1, axis=0)[:c] if c < n else np.tile(np.arange(n)[:, None], len(B))
            for j, q in enumerate(B):
                ids = cand[:, j]
                d = direct_ed(X[ids], q)
                order = np.lexsort((ids, d))[:k]
                if c < n:
                    # Every id left out has Gram d2 >= the c-th smallest; if that
                    # is not safely beyond the k-th direct distance, go exact.
                    kth = d[order[-1]] ** 2
                    if d2[ids, j].max() - kth < 1e-6 * max(1.0, kth):
                        ids = np.arange(n)
                        d = direct_ed(X, q)
                        order = np.lexsort((ids, d))[:k]
                out.append((ids[order], d[order]))
        return out


def check_answer(answer, q: np.ndarray, X: np.ndarray, k: int, rows_planned: int) -> list[str]:
    """Reasons why one kNN answer ``[(id, dist)]`` is wrong; empty when it passes.

    ``rows_planned`` is how many rows the query's plan made eligible: an
    answer may hold fewer than ``k`` results only when that is below ``k``.
    """
    n = X.shape[0]
    ids = np.array([int(i) for i, _ in answer], dtype=np.int64)
    dist = np.array([float(d) for _, d in answer], dtype=np.float64)
    bad = []
    if len(np.unique(ids)) != len(ids):
        bad.append("duplicate ids")
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        return bad + ["id out of range"]
    if len(ids) != k and not (len(ids) < k and rows_planned < k):
        bad.append(f"{len(ids)} results, expected {k}")
    if np.any(np.diff(dist) < 0):
        bad.append("distances not ascending")
    if len(ids):
        true = direct_ed(X[ids], q)
        if np.any(np.abs(dist - true) > ABS_TOL + REL_TOL * true):
            bad.append("distance differs from direct ED")
    return bad


def recall(answer, true_ids: np.ndarray, k: int) -> float:
    """recall@k of one answer against the exact neighbour ids."""
    return len({int(i) for i, _ in answer} & set(true_ids.tolist())) / k
