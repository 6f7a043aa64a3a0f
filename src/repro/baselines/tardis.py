"""TARDIS baseline [67] — sigTree distributed iSAX indexing.

TARDIS builds a global *sigTree*: a wide n-ary tree over iSAX words whose
cardinality grows with depth. The root's children are keyed by the full
1-bit-per-segment word; any node whose (estimated) size exceeds the
capacity splits its members by the next-cardinality word, and so on.
Leaves are packed into physical partitions in DFS (word) order so sibling
words — which are close in iSAX space — share partitions.

A word unseen in the sample (at data-redistribution or query time) is
routed to the *nearest existing sibling* by L1 word distance, keeping the
space fully covered without a catch-all partition.

Queries descend to a single leaf and scan only that leaf's partition —
the paper's point that both iSAX systems "constrain their search to a
single partition" and pay for it in recall (≤40%).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from pyspark.sql import DataFrame

from .common import BaselineIndex, build_baseline
from .isax import MAX_BITS, coarsen, word_key, word_l1

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
    """Picklable router over the sigTree (router protocol: ``.route``)."""

    def __init__(self, root: SigNode):
        self.root = root
        self.n_partitions = 1 + max(
            (n.pid for n in _iter_leaves(root)), default=-1
        )

    def _descend(self, symbols_row: np.ndarray) -> SigNode:
        node = self.root
        while not node.is_leaf:
            bits = next(iter(node.children.values())).bits
            key = word_key(coarsen(np.asarray(symbols_row), MAX_BITS, bits))
            child = node.children.get(key)
            if child is None:  # unseen word → nearest existing sibling
                child = min(node.children.values(), key=lambda c: (word_l1(c.word, key), c.word))
            node = child
        return node

    def route(self, symbols_row: np.ndarray) -> int:
        return self._descend(symbols_row).pid


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
        if rows.size * scale <= capacity or bits >= MAX_TREE_BITS:
            return node
        child_words = coarsen(S[rows], MAX_BITS, bits + 1)
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for i, r in enumerate(rows):
            groups.setdefault(word_key(child_words[i]), []).append(r)
        if len(groups) <= 1:
            # refinement does not separate anything further at this depth
            if bits + 1 >= MAX_TREE_BITS:
                return node
        for wkey in sorted(groups):
            node.children[wkey] = grow(np.asarray(groups[wkey]), bits + 1, wkey)
        return node

    root = SigNode(bits=0, word=())
    top = coarsen(S, MAX_BITS, 1)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i in range(S.shape[0]):
        groups.setdefault(word_key(top[i]), []).append(i)
    for wkey in sorted(groups):
        root.children[wkey] = grow(np.asarray(groups[wkey]), 1, wkey)

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
