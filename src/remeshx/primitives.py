"""The two parallel primitives the pipeline runs: a stable bitwise sort and a flag scan.

The sort is STABLE (ties broken by original position), so every downstream
result is bit-deterministic.  Its stability does not rest on numpy's choice of
sort algorithm: every pass sorts distinct words that carry a row position in
their low 32 bits, and distinct words have one sorted order.  Every other
pipeline step is a map or a scatter written directly in numpy.
"""
from __future__ import annotations

import numpy as np

from .mesh import MAX_VERTICES, MeshError, flag_array, vertex_bits


def bitwise_sort_order(keys: np.ndarray) -> np.ndarray:
    """Stable ascending order of vertex rows under the bitwise lexicographic order.

    An LSD sort with one pass per component, from the last up to the first.
    A pass packs each row's component into the high half of a uint64 word and
    the row's slot in the order so far into the low half, sorts the words
    with plain ``np.sort``, and reads the low halves back as ranks to compose
    with that order.  Words are distinct, so each pass is stable whatever
    algorithm sorts it.  The order equals a stable lexicographic sort of the
    uint32 component rows; more than 2^32 - 1 rows raise ``MeshError``.
    """
    bits = vertex_bits(keys)
    n = len(bits)
    if n >= MAX_VERTICES:
        raise MeshError(f"sort of {n} rows exceeds 32-bit position range")
    word = np.empty(n, np.uint64)
    order = None
    for c in range(bits.shape[1] - 1, -1, -1):
        np.left_shift(bits[:, c] if order is None else bits[order, c], 32, out=word,
                      dtype=np.uint64)
        word |= np.arange(n, dtype=np.uint32)
        word.sort()
        rank = word.astype(np.uint32)
        order = rank if order is None else order[rank]
    return order


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i] as uint32, for 1-D bool flags (< 2^32 of them)."""
    flags = flag_array(flags, np.size(flags), "scan flags")
    if flags.size >= MAX_VERTICES:
        raise MeshError(f"scan of {flags.size} flags exceeds 32-bit range")
    return np.cumsum(flags, dtype=np.uint32)
