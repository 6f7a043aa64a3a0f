"""iSAX representation — substrate for the TARDIS and DPiSAX baselines (paper §III-B).

A PAA vector is quantized per segment against breakpoints chosen so that
an N(0,1)-distributed value is equally likely to fall in each of the
``2^bits`` stripes (the SAX breakpoint table of [39], computed here from
the Gaussian inverse CDF). iSAX's key trick is *variable cardinality*: a
symbol at ``b`` bits is the ``b``-bit prefix of the symbol at a higher
cardinality, so words can be coarsened by right-shifting. We therefore
always compute symbols at ``MAX_BITS`` and derive any coarser word by
shifting.
"""
from __future__ import annotations

from functools import lru_cache
from statistics import NormalDist

import numpy as np

MAX_BITS = 8  # finest cardinality 2^8 = 256 stripes


@lru_cache(maxsize=None)
def breakpoints(cardinality: int) -> np.ndarray:
    """The ``cardinality − 1`` sorted N(0,1) quantile breakpoints."""
    if cardinality < 2 or cardinality & (cardinality - 1):
        raise ValueError(f"cardinality must be a power of two >= 2, got {cardinality}")
    nd = NormalDist()
    return np.array([nd.inv_cdf(i / cardinality) for i in range(1, cardinality)])


def isax_symbols(paa: np.ndarray, bits: int = MAX_BITS) -> np.ndarray:
    """Quantize PAA values into ``2^bits``-ary symbols. (B, w) → (B, w) uint16.

    Symbol k covers stripe [bp[k-1], bp[k]); symbols increase with value,
    so prefix-shifting preserves ordering (the iSAX property).
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [1, {MAX_BITS}], got {bits}")
    X = np.atleast_2d(np.asarray(paa, dtype=np.float64))
    return np.searchsorted(breakpoints(1 << bits), X, side="right").astype(np.uint16)


def coarsen(symbols: np.ndarray, from_bits: int, to_bits: int) -> np.ndarray:
    """Right-shift symbols from a finer to a coarser cardinality (prefix)."""
    if to_bits > from_bits:
        raise ValueError(f"cannot refine: {from_bits} -> {to_bits} bits")
    return (np.asarray(symbols) >> (from_bits - to_bits)).astype(np.uint16)
