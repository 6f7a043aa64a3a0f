"""First-Fit-Decreasing node packing (paper Def. 13, §V Step 3).

Packing trie leaf nodes into as few physical partitions as possible, each
of capacity ≤ c, is bin packing (NP-hard); the paper adopts FFD — the
classic O(m log m) approximation with worst-case ratio 3/2 — and so do we.

An item larger than the capacity (possible only for a max-depth leaf,
since c is a soft constraint) gets a bin of its own.
"""
from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple


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
