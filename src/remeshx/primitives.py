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


def bitwise_sort_order(keys: np.ndarray, used: np.ndarray | None = None) -> np.ndarray:
    """Stable ascending order of vertex rows under the bitwise lexicographic order.

    An LSD sort with one pass per component, from the last up to the first.
    A pass packs each row's component into the high half of a uint64 word and
    the row's slot in the order so far into the low half, sorts the words
    with plain ``np.sort``, and reads the low halves back as ranks to compose
    with that order.  Words are distinct, so each pass is stable whatever
    algorithm sorts it.  The order equals a stable lexicographic sort of the
    uint32 component rows; more than 2^32 - 1 rows raise ``MeshError``.

    With ``used`` (one bool per row) only the rows flagged True are ordered,
    so the result holds ``count_nonzero(used)`` row ids.
    """
    bits = vertex_bits(keys)
    n = len(bits)
    if n >= MAX_VERTICES:
        raise MeshError(f"sort of {n} rows exceeds 32-bit position range")
    if used is not None:
        used = flag_array(used, n, "used flags")
    n_sorted = n if used is None else np.count_nonzero(used)
    word = np.empty(n, np.uint64)
    order = None
    for c in range(bits.shape[1] - 1, -1, -1):
        np.left_shift(bits[:, c] if order is None else bits[order, c], 32, out=word,
                      dtype=np.uint64)
        word |= np.arange(len(word), dtype=np.uint32)
        if order is None and used is not None:
            # positions stay below 2^32 - 1, so no real word reaches all ones and the
            # unused rows sort last, where the slice below drops them without a compress
            np.putmask(word, ~used, np.uint64(0xFFFF_FFFF_FFFF_FFFF))
        word.sort()
        word = word[:n_sorted]
        # the ranks overwrite the words, so a pass holds the words and two orders at most
        np.bitwise_and(word, 0xFFFFFFFF, out=word)
        # the ranks are below 2^32, so the int64 view reads them exactly and spares
        # numpy's cast of uint64 indices
        order = (word.astype(np.uint32) if order is None
                 else np.take(order, word.view(np.int64), mode="clip"))
    return order


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i] as uint32, for 1-D bool flags (< 2^32 of them)."""
    flags = flag_array(flags, np.size(flags), "scan flags")
    if flags.size >= MAX_VERTICES:
        raise MeshError(f"scan of {flags.size} flags exceeds 32-bit range")
    return np.cumsum(flags, dtype=np.uint32)
