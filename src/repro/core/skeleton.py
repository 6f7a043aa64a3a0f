"""Index skeleton — the master-node structure of CLIMBER-INX (paper Fig. 5, 6).

The skeleton is everything the driver keeps (and broadcasts in Step 4):

* the pivot matrix and the signature parameters (w, r, m, decay),
* the group list — centroid signatures (1st index level, rank-insensitive),
* one trie per group (2nd level, rank-sensitive) with FFD-packed physical
  partition ids on every node,
* per-group default partition (least occupied — receives records that
  cannot navigate a complete root-to-leaf path),
* the fall-back group ``G₀`` for zero-overlap objects.

It is built from the *sample* signature frequencies (Steps 1–3) and is the
only state needed to (a) route any data series to its ``(group, partition,
trie-node ordinal)`` during redistribution and (b) route queries
(Algorithm 3). Node ordinals run on across groups in gid order.
The object is small (the paper reports ~2.5 MB at 400 GB) and pickles next
to the data.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .assignment import FALLBACK_GID, assign_batch
from .centroids import compute_centroids
from .distances import centroid_mask, decay_weights
from .packing import ffd_pack
from .paa import paa_np
from .pivots import signatures_np
from .trie import TrieNode, annotate_pids, build_trie, iter_nodes, leaves, navigate


@dataclass
class Group:
    """One 1st-level entry: centroid + its trie + default partition."""

    gid: int
    centroid: Tuple[int, ...]  # () for the fall-back group G₀
    trie: TrieNode = field(default_factory=TrieNode)
    default_pid: int = -1


@dataclass
class Skeleton:
    pivots: np.ndarray  # (r, w) PAA-space pivot matrix
    w: int
    m: int
    capacity: float
    decay_kind: str = "exp"
    decay_lam: float = 0.5
    seed: int = 0
    groups: Dict[int, Group] = field(default_factory=dict)
    n_partitions: int = 0
    # Derived, rebuilt on load:
    mask: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    # ---------------- construction ----------------

    def finalize_metric_state(self) -> None:
        """(Re)build the centroid mask + weight vector from the group list."""
        real = [self.groups[g].centroid for g in sorted(self.groups) if g != FALLBACK_GID]
        self.mask = centroid_mask(real, self.pivots.shape[0])
        self.weights = decay_weights(self.m, self.decay_kind, self.decay_lam)

    # ---------------- record routing (Step 4) ----------------

    def signatures(self, series: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw series batch → (sig_rs, sig_ri); the query path uses it too."""
        paa = paa_np(series, self.w)
        return signatures_np(paa, self.pivots, self.m)

    def assign_records(
        self, sig_rs: np.ndarray, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route a batch of rank-sensitive signatures to (gid, pid, node).

        A record landing on a trie *leaf* goes to that leaf's partition; a
        record whose path ends early (unseen pivot → internal node) goes to
        its group's default partition (paper §V Step 3). The returned node
        is the ordinal of the deepest matched node (what the in-partition
        layout sorts and filters by).
        """
        gid = assign_batch(sig_rs, self.mask, self.weights, ids=ids, seed=self.seed)
        B = sig_rs.shape[0]
        pid = np.empty(B, dtype=np.int64)
        nodes = np.empty(B, dtype=np.int64)
        for b in range(B):
            g = self.groups[int(gid[b])]
            node = navigate(g.trie, sig_rs[b])
            nodes[b] = node.ord
            if node.is_leaf and node.pids:
                pid[b] = next(iter(node.pids))
            else:
                pid[b] = g.default_pid
        return gid, pid, nodes

    def assign_rows(self, ids: np.ndarray, X: np.ndarray) -> Dict[str, np.ndarray]:
        """Step 4's batch function for `paa.map_batch`: raw series (rows × n)
        → their stored ``gid``, ``node`` and ``pid`` columns, by
        :meth:`signatures` and :meth:`assign_records`. As a bound method it
        carries the skeleton to the executors in the kernel's closure (the
        paper's Step-4 broadcast)."""
        gid, pid, node = self.assign_records(self.signatures(X)[0], ids)
        return {"gid": gid, "node": node, "pid": pid}

    # ---------------- bookkeeping ----------------

    def refine_counts(self, node: np.ndarray) -> None:
        """Replace sample-estimated trie counts with exact full-data counts.

        ``node`` holds the landing-node ordinal of every stored record. A
        node's count becomes the number of landings in its ordinal range
        ``[ord, end)`` — itself and its subtree — which is what the query
        router's ``Size(G_N)`` and adaptive expansion consult.
        """
        n_nodes = max(g.trie.end for g in self.groups.values())
        csum = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=n_nodes))))
        for g in self.groups.values():
            for t in iter_nodes(g.trie):
                t.count = float(csum[t.end] - csum[t.ord])

    def serialize(self) -> bytes:
        state = self.__dict__.copy()
        state.pop("mask")
        state.pop("weights")
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def deserialize(cls, blob: bytes) -> "Skeleton":
        state = pickle.loads(blob)
        sk = cls(
            pivots=state.pop("pivots"), w=state.pop("w"), m=state.pop("m"),
            capacity=state.pop("capacity"),
        )
        for k, v in state.items():
            setattr(sk, k, v)
        sk.finalize_metric_state()
        return sk

    def size_bytes(self) -> int:
        """Global-index size metric of Figs. 8(b,d) and 12."""
        return len(self.serialize())


def build_skeleton(
    rs_freqs: Sequence[Tuple[Sequence[int], int]],
    pivots: np.ndarray,
    *,
    w: int,
    m: int,
    capacity: float,
    alpha: float,
    eps: int = 2,
    max_centroids: int | None = None,
    decay_kind: str = "exp",
    decay_lam: float = 0.5,
    seed: int = 0,
) -> Skeleton:
    """Steps 2–3 of Fig. 6: centroids → groups → tries → FFD packing.

    ``rs_freqs`` is the sample's aggregated ``[(P⁴→, freq)]`` list, in any
    order: it is sorted by signature first, so the skeleton does not depend
    on the order the aggregation returned it in. All counts are scaled by
    ``1/alpha`` to full-dataset estimates before the capacity constraint is
    applied (the paper's ×100/α rescale).
    """
    pairs = sorted((tuple(int(p) for p in sig), int(f)) for sig, f in rs_freqs)
    rs_list = [sig for sig, _ in pairs]
    freqs = np.array([f for _, f in pairs], dtype=np.int64)

    # Step 2 — rank-insensitive aggregation + Algorithm 2.
    ri_agg: Dict[Tuple[int, ...], int] = {}
    for sig, f in zip(rs_list, freqs):
        key = tuple(sorted(sig))
        ri_agg[key] = ri_agg.get(key, 0) + int(f)
    centroids = compute_centroids(
        list(ri_agg.items()), alpha=alpha, capacity=capacity, eps=eps, max_centroids=max_centroids
    )

    sk = Skeleton(
        pivots=np.asarray(pivots, dtype=np.float64), w=w, m=m, capacity=float(capacity),
        decay_kind=decay_kind, decay_lam=decay_lam, seed=seed,
    )
    sk.groups[FALLBACK_GID] = Group(gid=FALLBACK_GID, centroid=())
    for i, c in enumerate(centroids):
        sk.groups[i + 1] = Group(gid=i + 1, centroid=c)
    sk.finalize_metric_state()

    # Step 3a — assign sample signatures to groups (Algorithm 1).
    members: Dict[int, List[Tuple[Tuple[int, ...], float]]] = {g: [] for g in sk.groups}
    if rs_list:
        S = np.asarray(rs_list, dtype=np.int64)
        gid = assign_batch(S, sk.mask, sk.weights, ids=np.arange(len(rs_list)), seed=seed)
        scale = 1.0 / alpha
        for sig, f, g in zip(rs_list, freqs, gid):
            members[int(g)].append((sig, float(f) * scale))

    # Step 3b — per-group trie + FFD packing into global partition ids.
    next_pid, next_ord = 0, 0
    for gid in sorted(sk.groups):
        g = sk.groups[gid]
        g.trie = build_trie(members[gid], capacity, max_depth=m, start=next_ord)
        next_ord = g.trie.end
        # FFD keeps the input order among equal sizes: leaves go in with
        # pivot ids compared as decimal strings.
        leaf_nodes = sorted(leaves(g.trie), key=lambda n: tuple(map(str, n.prefix)))
        size_of = {n.prefix: n.count for n in leaf_nodes}
        bins = dict(enumerate(ffd_pack(list(size_of.items()), capacity), start=next_pid))
        next_pid += len(bins)
        bin_load = {pid: sum(size_of[p] for p in b) for pid, b in bins.items()}
        annotate_pids(g.trie, {prefix: pid for pid, b in bins.items() for prefix in b})
        # Default partition: the group's least-occupied one (paper §V Step 3).
        g.default_pid = min(bin_load, key=lambda p: (bin_load[p], p))
    sk.n_partitions = next_pid
    return sk
