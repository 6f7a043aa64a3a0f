"""First-Fit-Decreasing node packing (paper Def. 13, §V Step 3).

Packing trie leaf nodes into as few physical partitions as possible, each
of capacity ≤ c, is bin packing (NP-hard); the paper adopts FFD — the
classic O(m log m) approximation with worst-case ratio 3/2 — and so do we.

An item larger than the capacity (possible only for a max-depth leaf,
since c is a soft constraint) gets a bin of its own.

:func:`lpt_pack` is the other rule, for spreading work over a fixed number
of Spark tasks: Step 4's pids over the gather-and-write tasks
(`index.write_partitions`) and a kNN scan's files over its read tasks
(`query.scan_bins`).
"""
from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence, Tuple


def ffd_pack(items: Sequence[Tuple[Hashable, float]], capacity: float) -> List[List[Hashable]]:
    """Pack ``(key, size)`` items into bins of ``capacity`` via FFD.

    Returns the list of bins, each a list of item keys. Deterministic:
    items are sorted by size, descending, with ties kept in the input order,
    and bins are scanned first-fit.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    ordered = sorted(items, key=lambda kv: -kv[1])
    bins: List[List[Hashable]] = []
    residual: List[float] = []
    for key, size in ordered:
        if size < 0:
            raise ValueError(f"negative item size for {key!r}: {size}")
        for i, free in enumerate(residual):
            if size <= free:
                bins[i].append(key)
                residual[i] = free - size
                break
        else:
            bins.append([key])
            residual.append(max(capacity - size, 0.0))
    return bins


def lpt_pack(items: Iterable[Tuple[Hashable, float]], n_bins: int) -> List[List[Hashable]]:
    """Spread ``(key, size)`` items over ``min(#items, n_bins)`` bins, largest
    first (ties by key), each to the lightest bin (the lowest-numbered among
    equals). Returns the bins, each a list of item keys. Deterministic for
    any input order."""
    ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    bins: List[List[Hashable]] = [[] for _ in range(min(len(ordered), n_bins))]
    load = [0.0] * len(bins)
    for key, size in ordered:
        b = load.index(min(load))
        bins[b].append(key)
        load[b] += size
    return bins
