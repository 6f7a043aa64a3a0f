"""Group tries — the 2nd index level (paper §IV-D, Fig. 5).

A group whose (estimated) size exceeds the capacity ``c`` is split into
Voronoi-aligned partitions by a trie over *rank-sensitive* prefixes: level
1 splits members by the 1st pivot of their ``P⁴→`` signature, level 2 by
the 2nd, and so on, recursively, until every leaf holds ≤ c objects (or
the full prefix length ``m`` is exhausted).

Properties guaranteed (Def. 12): leaves are disjoint, cover the whole
group, and the root-to-leaf path of a leaf *is* its pivot prefix. Nodes are
numbered in DFS pre-order, so a subtree is one ordinal range ``[ord, end)``:
the stored ``node`` column is sorted, filtered and counted by it. Leaves are
packed into physical partitions (:mod:`repro.core.packing`); every node
carries its subtree's partition ids, so a query stopping at an internal node
fetches exactly those (paper Example 2 returns β₆ ∪ β₇ from one).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass
class TrieNode:
    """One node of a group trie.

    ``prefix`` — the pivot ids from the root (``()`` for the root).
    ``ord`` / ``end`` — DFS pre-order ordinal; the subtree is ``[ord, end)``.
    ``count`` — estimated number of full-dataset objects in the subtree.
    ``children`` — pivot id → child (empty for leaves).
    ``pids`` — physical partition ids of the subtree (filled by packing).
    """

    prefix: Tuple[int, ...] = ()
    ord: int = 0
    end: int = 1
    count: float = 0.0
    children: Dict[int, "TrieNode"] = field(default_factory=dict)
    pids: frozenset = frozenset()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def depth(self) -> int:
        return len(self.prefix)


def build_trie(
    members: Sequence[Tuple[Sequence[int], float]],
    capacity: float,
    *,
    max_depth: int | None = None,
    start: int = 0,
) -> TrieNode:
    """Build a group's trie from ``[(rank-sensitive signature, est. count)]``.

    ``capacity`` — the storage constraint ``c`` (in the same units as the
    counts, i.e. estimated full-dataset objects). ``max_depth`` defaults to
    the signature length: a node at depth m cannot split further even if
    oversized (its leaf may exceed c — the paper treats c as a soft
    constraint, and FFD gives such a leaf its own partition). Ordinals
    start at ``start``, children in pivot order.
    """
    sigs = [tuple(int(p) for p in s) for s, _ in members]
    counts = [float(f) for _, f in members]
    if max_depth is None:
        max_depth = max((len(s) for s in sigs), default=0)

    next_ord = start

    def make(node_members: List[int], prefix: Tuple[int, ...]) -> TrieNode:
        nonlocal next_ord
        depth = len(prefix)
        total = sum(counts[i] for i in node_members)
        node = TrieNode(prefix=prefix, ord=next_ord, count=total)
        next_ord += 1
        if total > capacity and depth < max_depth:
            by_pivot: Dict[int, List[int]] = {}
            for i in node_members:
                if depth < len(sigs[i]):  # a shorter signature stays on this node
                    by_pivot.setdefault(sigs[i][depth], []).append(i)
            # A single-child chain still descends (the paper's Fig. 5 trie has
            # such chains) until the node fits or depth reaches max_depth.
            for pivot in sorted(by_pivot):
                node.children[pivot] = make(by_pivot[pivot], prefix + (pivot,))
        node.end = next_ord
        return node

    return make(list(range(len(sigs))), ())


def leaves(root: TrieNode) -> List[TrieNode]:
    """All leaf nodes, in deterministic (DFS, sorted-pivot) order."""
    out: List[TrieNode] = []
    stack = [root]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            out.append(n)
        else:
            for p in sorted(n.children, reverse=True):
                stack.append(n.children[p])
    return out


def navigate(root: TrieNode, sig_rs: Sequence[int]) -> TrieNode:
    """Deepest node reachable by following the signature's pivots top-down.

    This is Algorithm 3 line 11 (query) and also decides, for a data
    series, which trie node its record belongs to during redistribution.
    """
    node = root
    for pivot in sig_rs:
        child = node.children.get(int(pivot))
        if child is None:
            break
        node = child
    return node


def annotate_pids(root: TrieNode, leaf_pid: Dict[Tuple[int, ...], int]) -> None:
    """Propagate packed partition ids bottom-up (Fig. 5's β labels).

    ``leaf_pid`` maps each leaf's ``prefix`` to its physical partition id.
    Internal nodes get the union of their subtree's ids.
    """

    def rec(node: TrieNode) -> frozenset:
        if node.is_leaf:
            node.pids = frozenset({leaf_pid[node.prefix]})
        else:
            acc: set = set()
            for ch in node.children.values():
                acc |= rec(ch)
            node.pids = frozenset(acc)
        return node.pids

    rec(root)


def iter_nodes(root: TrieNode) -> Iterable[TrieNode]:
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.children.values())
