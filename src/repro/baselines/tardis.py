"""TARDIS baseline [67] — sigTree distributed iSAX indexing.

TARDIS builds a global *sigTree*: a wide n-ary tree over iSAX words whose
cardinality grows with depth. The root's children are keyed by the full
1-bit-per-segment word; any node whose (estimated) size exceeds the
capacity splits its members by the next-cardinality word, and so on.
Leaves are packed into physical partitions in DFS (word) order so sibling
words — which are close in iSAX space — share partitions.

A word unseen in the sample (at data-redistribution or query time) is
routed to the *nearest existing sibling* by L1 word distance, keeping the
space fully covered without a catch-all partition: :meth:`SigTree.pids`
takes each row's argmin of L1 over the siblings, 0 for a word the sample saw.

Queries descend to a single leaf and scan only that leaf's partition —
the paper's point that both iSAX systems "constrain their search to a
single partition" and pay for it in recall (≤40%).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from pyspark.sql import DataFrame

from .common import BaselineIndex, build_baseline
from .isax import MAX_BITS, coarsen

MAX_TREE_BITS = 4  # deepest per-segment cardinality 2^4, as sigTree keeps trees shallow


@dataclass
class SigNode:
    """sigTree node keyed by its iSAX word at cardinality ``bits``."""

    bits: int
    word: Tuple[int, ...]
    count: float = 0.0
    children: Dict[Tuple[int, ...], "SigNode"] = field(default_factory=dict)
    pid: int = -1  # set on leaves by packing

    @property
    def is_leaf(self) -> bool:
        return not self.children


class SigTree:
    """Picklable router over the sigTree (router protocol: ``.pids``)."""

    def __init__(self, root: SigNode):
        self.root = root
        self.n_partitions = 1 + max(
            (n.pid for n in _iter_leaves(root)), default=-1
        )

    def pids(self, symbols: np.ndarray) -> np.ndarray:
        """iSAX words at MAX_BITS (B × w) → leaf pids, (B,) int64. Level by
        level, each row takes the child word nearest in L1; the siblings are
        in sorted word order, so ``argmin`` breaks ties by the smaller word."""
        S = np.asarray(symbols)
        out = np.full(len(S), -1, dtype=np.int64)
        stack = [(self.root, np.arange(len(S)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.pid
                continue
            keys, bits = sorted(node.children), node.bits + 1
            U = _unary(np.array(keys), bits)
            # L1(a, b) = |u(a)| + |u(b)| − 2·u(a)·u(b), less the row's constant |u(a)|.
            l1 = (-2.0 * _unary(coarsen(S[rows], MAX_BITS, bits), bits)) @ U.T
            l1 += U.sum(axis=1)
            stack += [(node.children[keys[j]], part) for j, part in _split_by(rows, l1.argmin(axis=1))]
        return out


def _split_by(rows: np.ndarray, labels: np.ndarray):
    """``(label, rows with that label)`` pairs, in ascending label order."""
    order = np.argsort(labels, kind="stable")
    uniq, start = np.unique(labels[order], return_index=True)
    return zip(uniq.tolist(), np.split(rows[order], start[1:]))


def _unary(words: np.ndarray, bits: int) -> np.ndarray:
    """Words (B × w) → 0/1 float32 rows of width w·(2^bits − 1), symbol v as v
    ones: two codes' dot product is Σ min(a, b), an exact integer ≤ 240 at w=16."""
    levels = np.arange((1 << bits) - 1)
    return (words[:, :, None] > levels).reshape(len(words), words.shape[1] * len(levels)).astype(np.float32)


def _iter_leaves(node: SigNode):
    if node.is_leaf:
        yield node
    else:
        for key in sorted(node.children):
            yield from _iter_leaves(node.children[key])


def build_sigtree(sample_symbols: np.ndarray, alpha: float, capacity: int) -> SigTree:
    """Grow the sigTree from the sample, then pack leaves into partitions."""
    S = np.asarray(sample_symbols)
    scale = 1.0 / alpha

    def grow(rows: np.ndarray, bits: int, word: Tuple[int, ...]) -> SigNode:
        node = SigNode(bits=bits, word=word, count=rows.size * scale)
        if bits and (rows.size * scale <= capacity or bits >= MAX_TREE_BITS):
            return node  # the root always splits
        words, which = np.unique(coarsen(S[rows], MAX_BITS, bits + 1), axis=0, return_inverse=True)
        if len(words) <= 1 and bits + 1 >= MAX_TREE_BITS:
            return node  # refinement does not separate anything further at this depth
        for j, part in _split_by(rows, which.ravel()):
            wkey = tuple(words[j].tolist())
            node.children[wkey] = grow(part, bits + 1, wkey)
        return node

    root = grow(np.arange(len(S)), 0, ())

    # Pack leaves into partitions in DFS (word) order: consecutive sibling
    # words fill a partition up to the capacity.
    pid, load = 0, 0.0
    for leaf in _iter_leaves(root):
        if load > 0 and load + leaf.count > capacity:
            pid += 1
            load = 0.0
        leaf.pid = pid
        load += leaf.count
    return SigTree(root)


def build_tardis(
    series_df: DataFrame,
    out_dir: str,
    *,
    w: int = 16,
    capacity: int = 1000,
    alpha: float = 0.25,
    seed: int = 7,
) -> BaselineIndex:
    """Build the TARDIS index (sample → sigTree → redistribution)."""
    return build_baseline(
        series_df, out_dir,
        lambda syms, a: build_sigtree(syms, a, capacity),
        w=w, alpha=alpha, seed=seed,
    )
