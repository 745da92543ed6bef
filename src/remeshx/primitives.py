"""The four parallel building blocks: sequence fill, key-value sort, scan, scatter.

Only the contracts matter to the pipeline; the implementations here lean on
numpy's vectorized kernels.  The key-value sort is STABLE (ties broken by
original position), so every downstream result is bit-deterministic, and any
stable result is also a valid unstable one.  Its stability does not rest on
numpy's choice of sort algorithm: every pass sorts distinct words that carry a
row position in their low 32 bits, and distinct words have one sorted order.
"""
from __future__ import annotations

import numpy as np

from .mesh import (MAX_VERTICES, MeshError, flag_array, index_array, size_value, vertex_bits,
                   vertex_rows)


def fill_sequence(n: int) -> np.ndarray:
    """The identity index array [0, 1, ..., n-1] as uint32."""
    return np.arange(size_value(n, "sequence length"), dtype=np.uint32)


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


def key_value_sort(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``keys`` (vertex rows, bitwise order), applying the same permutation to ``values``.

    Stable: equal keys keep ascending original positions.
    """
    keys = vertex_rows(keys, "keys")
    values = np.asarray(values)
    if values.ndim < 1 or len(keys) != len(values):
        raise MeshError(f"values of shape {values.shape} for {len(keys)} keys")
    order = bitwise_sort_order(keys)
    return np.take(keys, order, axis=0), np.take(values, order, axis=0)


def inclusive_scan(flags: np.ndarray) -> np.ndarray:
    """out[i] = flags[0] + ... + flags[i], as uint32.

    A bool input shorter than ``MAX_VERTICES`` is scanned straight into
    uint32, since its total cannot exceed its length; any other integer input
    is accumulated in int64 and every prefix checked against the 32-bit range.
    """
    flags = np.asarray(flags)
    if flags.size and flags.dtype.kind not in "bui":
        raise MeshError(f"scan flags must be bool or integers, got dtype {flags.dtype}")
    if flags.dtype == bool and flags.size < MAX_VERTICES:
        return np.cumsum(flags, dtype=np.uint32)
    acc = np.cumsum(flags, dtype=np.int64)
    if acc.size and not (0 <= int(acc.min()) and int(acc.max()) < MAX_VERTICES):
        raise MeshError(f"scan prefixes {int(acc.min())}..{int(acc.max())} outside 32-bit range")
    return acc.astype(np.uint32)


def scatter(values: np.ndarray, positions: np.ndarray, mask: np.ndarray,
            out_len: int) -> np.ndarray:
    """Write ``values[i]`` to ``out[positions[i]]`` for every masked ``i``.

    Callers guarantee every output slot is covered and that colliding writers
    carry bitwise-identical values, so the result is well-defined.
    """
    values = np.asarray(values)
    if values.ndim < 1:
        raise MeshError(f"scatter values need at least one axis, got shape {values.shape}")
    positions = np.asarray(positions)
    out_len = size_value(out_len, "scatter output length")
    mask = flag_array(mask, len(values), "scatter mask")
    if len(positions) != len(mask):
        raise MeshError(f"scatter length mismatch: {len(positions)} positions, {len(mask)} flags")
    pos = index_array(positions[mask], out_len, "scatter position", ndim=1)
    out = np.empty((out_len,) + values.shape[1:], dtype=values.dtype)
    out[pos] = np.compress(mask, values, axis=0)
    return out
