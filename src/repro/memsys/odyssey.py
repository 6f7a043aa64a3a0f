"""Odyssey simulation — distributed in-memory *exact* kNN engine (Table I).

Odyssey [16] keeps the entire dataset and its iSAX-tree indexes resident
in main memory and answers batches of kNN queries exactly, with
scheduling/load-balancing across cores. We reproduce the behaviours Table
I measures:

* **I.C.T** — loading the data into memory. The simulation builds no
  index (nothing would read it), so its I.C.T is load-only and a lower
  bound on Odyssey's, which also builds an iSAX tree per node;
* **Q.R.T** — exact batched kNN over the memory-resident matrix,
  vectorized across cores by numpy (the engine's parallel scan with
  lower-bound pruning is simulated by a chunked exact scan — same answers,
  same "fast while it fits in memory" profile); each chunk's top-K and
  their merge use the shared `distances.topk` / `merge_topk`, so the
  answer does not depend on the chunk size;
* **R.R = 1.0** — exact by construction;
* the hard capacity wall: a configurable memory budget raises
  :class:`CapacityExceeded` when the dataset does not fit, reproducing the
  "X" cells of Table I (Odyssey fails at 1000 GB on the paper's cluster).

See DESIGN.md §4 for the substitution rationale.
"""
from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from ..core.distances import merge_topk, topk


class CapacityExceeded(RuntimeError):
    """Raised when a memory-based system cannot hold the dataset (an 'X' cell)."""


class OdysseyEngine:
    def __init__(self, memory_budget_bytes: int | None = None):
        self.budget = memory_budget_bytes
        self.X: np.ndarray | None = None
        self.ids: np.ndarray | None = None
        self.build_s = 0.0

    def build(self, X: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Load the dataset into memory (the I.C.T)."""
        t0 = time.perf_counter()
        X = np.ascontiguousarray(X, dtype=np.float64)
        if self.budget is not None and X.nbytes > self.budget:
            raise CapacityExceeded(
                f"dataset of {X.nbytes >> 20} MiB exceeds Odyssey budget {self.budget >> 20} MiB"
            )
        self.X = X
        self.ids = np.arange(X.shape[0]) if ids is None else np.asarray(ids)
        self.build_s = time.perf_counter() - t0

    def knn_batch(self, Q: np.ndarray, k: int, chunk: int = 8192) -> Dict[int, List[Tuple[int, float]]]:
        """Exact kNN for a query batch: `topk` per chunk, one `merge_topk`."""
        assert self.X is not None, "build() first"
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        parts = [topk(self.X[lo:lo + chunk], self.ids[lo:lo + chunk], Q, k)
                 for lo in range(0, self.X.shape[0], chunk)]
        res = merge_topk(*(np.concatenate(a) for a in zip(*parts)), k)
        return {q: res.get(q, []) for q in range(Q.shape[0])}
