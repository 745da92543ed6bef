"""The two parallel primitives the pipeline runs: a stable bitwise sort and a flag scan.

The sort is STABLE (ties broken by original position), so every downstream
result is bit-deterministic.  Its stability does not rest on numpy's choice of
sort algorithm: every pass sorts distinct words that carry a row position in
their low 32 bits, and distinct words have one sorted order.  Given a used
mask, the sort builds words for the flagged rows only, so an unused row takes
no part in it.  Every other pipeline step is a map or a scatter written
directly in numpy.
"""
from __future__ import annotations

import numpy as np

from .mesh import BLOCK_ROWS, MAX_VERTICES, MeshError, flag_array, vertex_bits


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
    so the result holds ``count_nonzero(used)`` row ids.  An unused row gets
    no word: the first pass packs the flagged rows only.

    Beyond ``keys`` and ``used``, a pass holds one word buffer and one uint32
    order, 12 bytes per sorted row, plus temporaries of one block of
    ``BLOCK_ROWS`` rows.  The words are built a block at a time, so no
    full-length gathered column or position array exists.  The order is one
    array kept for the whole sort and returned as it is.
    """
    return _sort_order_buffer(vertex_bits(keys), used, 2)[0]


def _sort_order_buffer(bits: np.ndarray, used: np.ndarray | None,
                       row_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The sort of :func:`bitwise_sort_order`, run in a uint32 buffer of ``row_words``
    (at least 2) words per sorted row; returns the order and the spent buffer.

    The words of each pass use the buffer's first ``2 * n_sorted`` words, so a
    caller may size it to hold what it writes over the spent words next.  The
    order is allocated once, after the first pass's words are built.  Each later
    pass builds and sorts its words from it, composes the new order into the
    buffer's front, and copies that back into the order: block k of the front
    overwrites only ranks that blocks before it have read, and block 0 reads its
    ranks before it writes.
    """
    n = len(bits)
    if n >= MAX_VERTICES:
        raise MeshError(f"sort of {n} rows exceeds 32-bit position range")
    if used is not None:
        used = flag_array(used, n, "used flags")
    n_sorted = n if used is None else int(np.count_nonzero(used))
    buffer = np.empty(n_sorted * row_words, np.uint32)
    word, front = buffer[:2 * n_sorted].view(np.uint64), buffer[:n_sorted]
    _last_component_words(bits, used, word)
    word.sort()
    # the cast to uint32 truncates, so it reads the row ids in the low halves
    order = word.astype(np.uint32)
    for c in range(bits.shape[1] - 2, -1, -1):
        for start in range(0, n_sorted, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_sorted)
            # shifts, not a view of the words' uint32 halves, keep this byte-order free
            np.left_shift(bits[order[start:stop], c], 32, out=word[start:stop], dtype=np.uint64)
            word[start:stop] |= np.arange(start, stop, dtype=np.uint64)
        word.sort()
        np.bitwise_and(word, 0xFFFFFFFF, out=word)
        # the ranks are below 2^32, so the int64 view reads them exactly and spares
        # numpy's cast of uint64 indices.  Block k of the composed order is written
        # over bytes that hold the ranks below (k + 1) * BLOCK_ROWS / 2 <= k * BLOCK_ROWS
        # for k >= 1, which earlier blocks have already read; block 0 reads its own
        # ranks in full (np.take returns a new array) before it writes.
        ranks = word.view(np.int64)
        for start in range(0, n_sorted, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            front[block] = np.take(order, ranks[block], mode="clip")
        order[:] = front
    return order, buffer


def _last_component_words(bits: np.ndarray, used: np.ndarray | None, word: np.ndarray) -> None:
    """Write the first-pass words ``(last component << 32) | row id`` of the flagged rows,
    in row order, into ``word``, which holds one uint64 per flagged row.

    The words are built a block of input rows at a time, from the block's flagged
    row ids, so an unused row never gets a word.  Being a function of its own, it
    frees the last block's temporaries before the sort.
    """
    n = len(bits)
    filled = 0
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        if used is None:
            rows, column = np.arange(start, stop, dtype=np.uint64), bits[start:stop, -1]
        else:
            rows = np.flatnonzero(used[start:stop])
            rows += start
            column = bits[rows, -1]
        out = word[filled:filled + len(rows)]
        np.left_shift(column, 32, out=out, dtype=np.uint64)
        # the unsafe cast only reinterprets the non-negative intp row ids as uint64
        np.bitwise_or(out, rows, out=out, dtype=np.uint64, casting="unsafe")
        filled += len(rows)


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i] as uint32, for 1-D bool flags (< 2^32 of them)."""
    flags = flag_array(flags, np.size(flags), "scan flags")
    if flags.size >= MAX_VERTICES:
        raise MeshError(f"scan of {flags.size} flags exceeds 32-bit range")
    # cast once and scan in place: np.cumsum(flags, dtype=np.uint32) casts a second copy
    out = flags.astype(np.uint32)
    np.cumsum(out, out=out)
    return out
