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

# rows per block of the sort's word building and composing, and of the sorted-row gather
BLOCK_ROWS = 1 << 16


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

    Beyond ``keys``, a pass holds one word buffer and one uint32 order, 12 bytes
    per row, plus temporaries of one block of ``BLOCK_ROWS`` rows.  The words are
    built a block at a time, so no full-length gathered column or position array
    exists.  The composed order is written, block by block, into the front of
    the word buffer viewed as uint32: block k overwrites only ranks that blocks
    before it have read, and block 0 reads its ranks before it writes.
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
        for start in range(0, len(word), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(word))
            # shifts, not a view of the words' uint32 halves, keep this byte-order free
            np.left_shift(bits[start:stop, c] if order is None else bits[order[start:stop], c],
                          32, out=word[start:stop], dtype=np.uint64)
            word[start:stop] |= np.arange(start, stop, dtype=np.uint64)
        if order is None and used is not None:
            # positions stay below 2^32 - 1, so no real word reaches all ones and the
            # unused rows sort last, where the slice below drops them without a compress
            np.putmask(word, ~used, np.uint64(0xFFFF_FFFF_FFFF_FFFF))
        word.sort()
        word = word[:n_sorted]
        np.bitwise_and(word, 0xFFFFFFFF, out=word)
        if order is None:
            order = word.astype(np.uint32)
            continue
        # the ranks are below 2^32, so the int64 view reads them exactly and spares
        # numpy's cast of uint64 indices.  Block k of the composed order is written
        # over bytes that hold the ranks below (k + 1) * BLOCK_ROWS / 2 <= k * BLOCK_ROWS
        # for k >= 1, which earlier blocks have already read; block 0 reads its own
        # ranks in full (np.take returns a new array) before it writes.
        ranks, front = word.view(np.int64), word.view(np.uint32)[:n_sorted]
        for start in range(0, n_sorted, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            front[block] = np.take(order, ranks[block], mode="clip")
        # drop the old order before the copy out, so the buffer and one order are all that
        # is held; the next pass writes its words over the buffer
        del order
        order = front.copy()
    return order


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i] as uint32, for 1-D bool flags (< 2^32 of them)."""
    flags = flag_array(flags, np.size(flags), "scan flags")
    if flags.size >= MAX_VERTICES:
        raise MeshError(f"scan of {flags.size} flags exceeds 32-bit range")
    # cast once and scan in place: np.cumsum(flags, dtype=np.uint32) casts a second copy
    out = flags.astype(np.uint32)
    np.cumsum(out, out=out)
    return out
