"""DPiSAX baseline [65] — massively distributed *partitioned* iSAX.

DPiSAX samples the data, then builds a balanced partitioning table over
the iSAX bit-space: starting from the whole space, any cell whose
estimated size exceeds the capacity is split on the next bit of one
segment (choosing, among the coarsest segments, the bit that best
balances the two halves) until every cell fits. The cells tile the space
completely, so every possible series — seen or unseen — maps to exactly
one partition; a query routes to that single partition and scans it.

This is the "scalable but lossy" end of the paper's spectrum: cells are
axis-aligned boxes at coarse bit granularity, so a query's true nearest
neighbours frequently sit in neighbouring cells → the low recall the
paper reports (<10% at 1B scale).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from pyspark.sql import DataFrame

from .common import BaselineIndex, build_baseline
from .isax import MAX_BITS


@dataclass
class _Leaf:
    pid: int


@dataclass
class _Split:
    """Internal node: test bit ``bit`` (0 = MSB) of segment ``seg``."""

    seg: int
    bit: int
    zero: Union["_Split", _Leaf]
    one: Union["_Split", _Leaf]


class SplitTable:
    """The picklable DPiSAX partitioning table (router protocol: ``.pids``)."""

    def __init__(self, root: Union[_Split, _Leaf], n_partitions: int):
        self.root = root
        self.n_partitions = n_partitions

    def pids(self, symbols: np.ndarray) -> np.ndarray:
        """iSAX words at MAX_BITS (B × w) → cell pids, (B,) int64: level by
        level, each split sends its rows to the child their tested bit names."""
        S = np.asarray(symbols)
        out = np.full(len(S), -1, dtype=np.int64)
        stack = [(self.root, np.arange(len(S)))]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, _Leaf):
                out[rows] = node.pid
                continue
            one = _bit(S[rows], node.seg, node.bit).astype(bool)
            stack += [(node.zero, rows[~one]), (node.one, rows[one])]
        return out


def _bit(symbols: np.ndarray, seg: int, bit: int) -> np.ndarray:
    return (symbols[:, seg].astype(np.int64) >> (MAX_BITS - 1 - bit)) & 1


def build_split_table(sample_symbols: np.ndarray, alpha: float, capacity: int) -> SplitTable:
    """Greedy balanced bit-splitting of the iSAX space (sample-driven)."""
    S = np.asarray(sample_symbols)
    w = S.shape[1]
    scale = 1.0 / alpha

    n = 0  # leaves take pids as they are made: zero-first DFS order

    def split(rows: np.ndarray, used: np.ndarray) -> Union[_Split, _Leaf]:
        nonlocal n
        if rows.size * scale <= capacity or int(used.sum()) >= w * MAX_BITS:
            n += 1
            return _Leaf(pid=n - 1)
        # Among the coarsest (fewest-bits) splittable segments, pick the one
        # whose next bit divides this cell closest to 50/50 (DPiSAX's
        # balance objective).
        splittable = [s for s in range(w) if used[s] < MAX_BITS]
        min_used = min(used[s] for s in splittable)
        best_seg, best_balance = -1, None
        for seg in splittable:
            if used[seg] != min_used:
                continue
            ones = int(_bit(S[rows], seg, int(used[seg])).sum())
            balance = abs(rows.size - 2 * ones)
            if best_balance is None or balance < best_balance:
                best_seg, best_balance = seg, balance
        b = int(used[best_seg])
        mask = _bit(S[rows], best_seg, b).astype(bool)
        used2 = used.copy()
        used2[best_seg] += 1
        return _Split(
            seg=best_seg, bit=b,
            zero=split(rows[~mask], used2), one=split(rows[mask], used2),
        )

    root = split(np.arange(S.shape[0]), np.zeros(w, dtype=np.int64))
    return SplitTable(root=root, n_partitions=n)


def build_dpisax(
    series_df: DataFrame,
    out_dir: str,
    *,
    w: int = 16,
    capacity: int = 1000,
    alpha: float = 0.25,
    seed: int = 7,
) -> BaselineIndex:
    """Build the DPiSAX index (sample → split table → redistribution)."""
    return build_baseline(
        series_df, out_dir,
        lambda syms, a: build_split_table(syms, a, capacity),
        w=w, alpha=alpha, seed=seed,
    )
