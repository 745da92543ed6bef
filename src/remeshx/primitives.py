"""The two parallel primitives the pipeline runs: a stable bitwise sort and a flag scan.

The sort is STABLE (ties broken by original position), so every downstream
result is bit-deterministic.  Its stability does not rest on numpy's choice of
sort algorithm: every pass sorts distinct words that carry a row position in
their low bits, and distinct words have one sorted order.  Given a used
mask, the sort builds words for the flagged rows only, so an unused row takes
no part in it.  Every other pipeline step is a map or a scatter written
directly in numpy.
"""
from __future__ import annotations

import numpy as np

from .mesh import MAX_VERTICES, MeshError, blocks, flag_array, vertex_bits

# a field of a sort word: (component, its lowest varying bit, width, offset above the position)
_Field = tuple[int, int, int, int]


def bitwise_sort_order(keys: np.ndarray, used: np.ndarray | None = None) -> np.ndarray:
    """Stable ascending order of vertex rows under the bitwise lexicographic order.

    An LSD sort over the rows' uint32 components.  One read of the rows finds,
    per component, the span from its lowest to its highest bit that differs
    between rows; a component equal in every row has no field.  Each pass packs
    whole fields of consecutive components, from the last up, into a uint64 word
    above a ``k``-bit position (``k = bit_length(n - 1)`` for ``n`` input rows):
    the row's slot in the order so far.  A pass sorts the words with plain
    ``np.sort`` and reads the low ``k`` bits back as ranks to compose with that
    order.  A field is at most 32 bits and ``64 - k`` is at least 32, so the pass
    count depends on the data and is never more than the number of components;
    rows that differ nowhere take one pass.  Only bits equal in every row are
    dropped, and words are distinct, so each pass is stable whatever algorithm
    sorts it and the order equals a stable lexicographic sort of the uint32
    component rows; more than 2^32 - 1 rows raise ``MeshError``.

    With ``used`` (one bool per row) only the rows flagged True are ordered,
    so the result holds ``count_nonzero(used)`` row ids.  An unused row gets
    no word: the first pass packs the flagged rows only.

    Beyond ``keys`` and ``used``, the sort holds one word buffer and one uint32
    order, 12 bytes per sorted row, plus temporaries of one block of
    :func:`~remeshx.mesh.blocks`.  The words are built a block at a time, so no
    full-length gathered column or position array exists.  The order is one
    array kept for the whole sort and returned as it is.  A ``used`` that flags
    every row is dropped, so it costs one count and no masked pass.
    """
    return _sort_order_buffer(vertex_bits(keys), used, 2)[0]


def _sort_order_buffer(bits: np.ndarray, used: np.ndarray | None,
                       row_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The sort of :func:`bitwise_sort_order`, run in a uint32 buffer of ``row_words``
    (at least 2) words per sorted row; returns the order and the spent buffer.

    The words of each pass, whole trimmed fields above a ``k``-bit position, use
    the buffer's first ``2 * n_sorted`` words, so a caller may size it to hold what
    it writes over the spent words next.  The order is allocated once, after the
    first pass's words are built.  Each later pass builds and sorts its words from
    it, composes the new order into the buffer's front, and copies that back into
    the order: block j of the front overwrites only ranks that blocks before it
    have read, and block 0 reads its ranks before it writes.
    """
    n = len(bits)
    if n >= MAX_VERTICES:
        raise MeshError(f"sort of {n} rows exceeds 32-bit position range")
    if used is not None:
        used = flag_array(used, n, "used flags")
    n_sorted = n if used is None else int(np.count_nonzero(used))
    used = None if n_sorted == n else used  # all True: the unmasked words are cheaper
    # first-pass positions are input row ids, so k is sized to n, not to n_sorted
    k = max(1, (n - 1).bit_length())
    first, *later = _packed_fields(bits, 64 - k)
    buffer = np.empty(n_sorted * row_words, np.uint32)
    word, front = buffer[:2 * n_sorted].view(np.uint64), buffer[:n_sorted]
    _first_pass_words(bits, used, first, k, word)
    word.sort()
    # the row ids in the low k bits, masked and cast to uint32 in one pass
    order = np.empty(n_sorted, np.uint32)
    np.bitwise_and(word, (1 << k) - 1, out=order, casting="unsafe")
    for fields in later:
        for block in blocks(n_sorted):
            _pack(bits, order[block], fields, k, word[block])
            word[block] |= np.arange(block.start, block.stop, dtype=np.uint64)
        word.sort()
        word &= (1 << k) - 1
        # the ranks are below 2^32, so the int64 view reads them exactly and spares
        # numpy's cast of uint64 indices.  Block j of the composed order is written
        # over bytes that hold the ranks below (j + 1) * b / 2 <= j * b for a block size
        # b and j >= 1, which earlier blocks have already read; block 0 reads its own
        # ranks in full (np.take returns a new array) before it writes.
        ranks = word.view(np.int64)
        for block in blocks(n_sorted):
            front[block] = np.take(order, ranks[block], mode="clip")
        order[:] = front
    return order, buffer


def _packed_fields(bits: np.ndarray, room: int) -> list[list[_Field]]:
    """The fields of each pass's words, least significant pass first.

    A field spans a component's bits from the lowest to the highest that differ
    between rows.  Whole fields of consecutive components, from the last up,
    share a word while their widths sum to at most ``room``.  The first pass has
    no field when the rows are all equal; every later pass has at least one.
    """
    passes, fields, width = [], [], 0
    varying_bits = _varying_bits(bits)
    for c in np.flatnonzero(varying_bits)[::-1].tolist():
        varying = int(varying_bits[c])
        low = (varying & -varying).bit_length() - 1
        field_width = varying.bit_length() - low
        if width + field_width > room:
            passes.append(fields)
            fields, width = [], 0
        fields.append((c, low, field_width, width))
        width += field_width
    return passes + [fields]


def _varying_bits(bits: np.ndarray) -> np.ndarray:
    """Per component, the bits set in some row and clear in another, as uint32.

    Each block is reduced ``lanes`` rows to a line, so a reduction step runs over
    ``lanes * dim`` lanes, not ``dim``: 64 rows cut by :func:`~remeshx.mesh.blocks` to at
    most one block of values and at least one row.  The read stops early once every
    component varies in its bits 0 and 31: its field is then the whole word, and the
    rest of the rows cannot change the plan.
    """
    dim, lanes = bits.shape[1], next(blocks(64, bits.shape[1])).stop
    any_set = np.zeros(lanes * dim, np.uint32)
    all_set = np.full(lanes * dim, 0xFFFFFFFF, np.uint32)
    varying = np.zeros(dim, np.uint32)
    for rows in blocks(len(bits)):
        block = bits[rows]
        lines = len(block) // lanes * lanes
        whole, tail = block[:lines].reshape(-1, lanes * dim), block[lines:]
        any_set |= np.bitwise_or.reduce(whole, axis=0)
        all_set &= np.bitwise_and.reduce(whole, axis=0)
        any_set[:dim] |= np.bitwise_or.reduce(tail, axis=0)
        all_set[:dim] &= np.bitwise_and.reduce(tail, axis=0)
        varying = (np.bitwise_or.reduce(any_set.reshape(lanes, dim), axis=0)
                   & ~np.bitwise_and.reduce(all_set.reshape(lanes, dim), axis=0))
        if np.all((varying & 0x80000001) == 0x80000001):
            break
    return varying


def _first_pass_words(bits: np.ndarray, used: np.ndarray | None,
                      fields: list[_Field], k: int, word: np.ndarray) -> None:
    """Write the first-pass words, ``fields`` above the ``k``-bit row id, of the flagged
    rows, in row order, into ``word``, which holds one uint64 per flagged row.

    The words are built a block of input rows at a time, from the block's flagged
    row ids, so an unused row never gets a word.  Being a function of its own, it
    frees the last block's temporaries before the sort.
    """
    filled = 0
    for block in blocks(len(bits)):
        if used is None:
            rows, ids = block, np.arange(block.start, block.stop, dtype=np.uint64)
        else:
            rows = ids = np.flatnonzero(used[block])
            ids += block.start
        out = word[filled:filled + len(ids)]
        _pack(bits, rows, fields, k, out)
        # the unsafe cast only reinterprets the non-negative intp row ids as uint64
        np.bitwise_or(out, ids, out=out, dtype=np.uint64, casting="unsafe")
        filled += len(ids)


def _pack(bits: np.ndarray, rows, fields: list[_Field], k: int, out: np.ndarray) -> None:
    """``out`` = the ``fields`` of ``bits[rows]``, each shifted to ``k`` plus its offset;
    ``rows``, a slice or row ids, indexes each 1-D column view ``bits[:, c]``."""
    if not fields:
        out.fill(0)
    for i, (c, low, width, offset) in enumerate(fields):
        # the bits outside the field are equal in every row, but may be set; the AND makes
        # a new array, since with a slice the column is a view of the caller's keys
        column = bits[:, c][rows]
        if width < 32:
            column = column & (((1 << width) - 1) << low)
        shift = k + offset - low
        move = np.left_shift if shift >= 0 else np.right_shift
        if i == 0:
            move(column, abs(shift), out=out, dtype=np.uint64)
        else:
            out |= move(column, abs(shift), dtype=np.uint64)


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i] as uint32, for 1-D bool flags (< 2^32 of them)."""
    flags = flag_array(flags, np.size(flags), "scan flags")
    if flags.size >= MAX_VERTICES:
        raise MeshError(f"scan of {flags.size} flags exceeds 32-bit range")
    # cast once and scan in place: np.cumsum(flags, dtype=np.uint32) casts a second copy
    out = flags.astype(np.uint32)
    np.cumsum(out, out=out)
    return out
