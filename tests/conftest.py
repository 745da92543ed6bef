import sys
import threading
import tracemalloc

import numpy as np
import pytest

from remeshx import Mesh

FREED_AFTER_THE_SORT_NEEDS_3_11 = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before Python 3.11 the calling frame keeps the argument alive for the whole "
           "call, so reindex cannot free it")

# Frozen letter-to-coordinate assignment for the worked 10-vertex / 4-triangle
# example; lexicographic order matches A < B < C < D < E < F.
A, B, C, D, E, F = (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)
X, Y = (9, 9), (8, 8)

WORKED_VERTICES = [A, B, C, X, D, C, E, F, Y, D]
WORKED_ELEMENTS = [(0, 1, 2), (0, 2, 4), (5, 6, 7), (5, 7, 9)]


@pytest.fixture
def worked_mesh():
    """10 vertices (2 duplicates, 2 unused) and 4 triangles."""
    return Mesh(np.array(WORKED_VERTICES, np.float32),
                np.array(WORKED_ELEMENTS, np.uint32))


def vtx(*rows):
    return np.array(rows, np.float32)


def elems(*rows):
    return np.array(rows, np.uint32)


def feed_fifo(path, data: bytes) -> threading.Thread:
    """Write ``data`` into the FIFO at ``path`` from a daemon thread, then close it.

    Opening a FIFO for writing blocks until a reader opens it, so the reader
    under test must open ``path``; join the returned thread with a timeout.
    """
    def write():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:
            pass  # the reader stopped early, as a fail-closed reader may

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` allocates at its peak, as tracemalloc sees them."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
