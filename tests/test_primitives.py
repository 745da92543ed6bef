import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import MeshError, inclusive_scan, vertex_bits
from remeshx.primitives import bitwise_sort_order
from conftest import A, B, C, D, traced_peak, vtx


# bit patterns whose order as unsigned ints differs from float order: +0.0 and
# -0.0, NaNs with distinct payloads and sign, negatives (high bit set), infinities
_AWKWARD_BITS = [0x00000000, 0x80000000, 0x7FC00000, 0x7FC00123, 0xFFC00001,
                 0x3F800000, 0xBF800000, 0x00000001, 0x7F800000, 0xFF800000,
                 0xFFFFFFFF, 0x7FFFFFFF]


@settings(max_examples=200)
@given(st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.lists(st.sampled_from(_AWKWARD_BITS), min_size=dim, max_size=dim), max_size=60)
    .map(lambda rows: np.array(rows, np.uint32).reshape(len(rows), dim))))
def test_bitwise_sort_order_equals_stable_lexsort_of_bit_rows(bits):
    vertices = bits.view(np.float32)
    # the reference is computed here: serial.equivalent sorts with the function under test
    expected = np.lexsort(vertex_bits(vertices).T[::-1])
    order = bitwise_sort_order(vertices)
    assert order.dtype == np.uint32
    assert order.tolist() == expected.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_bitwise_sort_order_small_and_tied_inputs(dim):
    assert bitwise_sort_order(np.empty((0, dim), np.float32)).tolist() == []
    assert bitwise_sort_order(np.full((1, dim), -0.0, np.float32)).tolist() == [0]
    # all rows tied: a stable sort keeps the input order
    assert bitwise_sort_order(np.ones((7, dim), np.float32)).tolist() == list(range(7))


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(st.sampled_from(_AWKWARD_BITS), min_size=dim, max_size=dim),
              st.booleans()), max_size=60)
    .map(lambda rows: (np.array([r for r, _ in rows], np.uint32).reshape(len(rows), dim),
                       np.array([u for _, u in rows], bool)))))
def test_bitwise_sort_order_of_used_rows_is_the_full_order_without_the_unused(bits_used):
    bits, used = bits_used
    vertices = bits.view(np.float32)
    full = bitwise_sort_order(vertices)
    order = bitwise_sort_order(vertices, used)
    assert order.dtype == np.uint32
    assert order.tolist() == full[used[full]].tolist()


@pytest.mark.parametrize("dim", [1, 3])
def test_bitwise_sort_order_with_no_used_row_is_empty(dim):
    keys = np.ones((5, dim), np.float32)
    assert bitwise_sort_order(keys, np.zeros(5, bool)).tolist() == []
    assert bitwise_sort_order(keys[:0], np.zeros(0, bool)).tolist() == []


def test_bitwise_sort_order_rejects_rows_without_components():
    with pytest.raises(MeshError):
        bitwise_sort_order(np.empty((3, 0), np.float32))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bitwise_sort_order_keeps_far_apart_ties_stable(dim):
    # more than 2**16 rows over 4 patterns per component: every tie spans the
    # whole input, so a position packed into too few bits would reorder it
    patterns = np.array([0x80000000, 0x00000000, 0xFFFFFFFF, 0x3F800000], np.uint32)
    rng = np.random.default_rng(300 + dim)
    vertices = patterns[rng.integers(0, 4, size=(300_000, dim))].view(np.float32)
    expected = np.lexsort(vertex_bits(vertices).T[::-1])
    assert np.array_equal(bitwise_sort_order(vertices), expected)


@pytest.mark.parametrize("view", [lambda v: v[::2], lambda v: v[:, ::-1], np.asfortranarray],
                         ids=["row-step", "reversed-columns", "fortran"])
def test_bitwise_sort_order_of_non_contiguous_rows_equals_contiguous_copy(view):
    rng = np.random.default_rng(7)
    rows = view(rng.integers(0, 3, size=(1000, 3)).astype(np.float32))
    assert not rows.flags.c_contiguous
    assert np.array_equal(bitwise_sort_order(rows), bitwise_sort_order(rows.copy(order="C")))


def test_bitwise_sort_order_rejects_rows_beyond_position_range(monkeypatch):
    # a lowered limit stands in for 2**32, whose arrays would not fit in memory
    monkeypatch.setattr("remeshx.primitives.MAX_VERTICES", 4)
    assert bitwise_sort_order(vtx(C, B, A)).tolist() == [2, 1, 0]
    with pytest.raises(MeshError, match="32-bit"):
        bitwise_sort_order(vtx(D, C, B, A))


def test_inclusive_scan_worked_example():
    flags = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], bool)
    assert inclusive_scan(flags).tolist() == [1, 1, 1, 2, 3, 3, 4, 4, 5, 6]


def test_inclusive_scan_trivial():
    assert inclusive_scan([]).tolist() == []
    assert inclusive_scan([True, True, True]).tolist() == [1, 2, 3]


@given(st.lists(st.booleans(), max_size=200))
def test_inclusive_scan_last_equals_popcount(flags):
    out = inclusive_scan(np.array(flags, bool))
    assert out.tolist() == np.cumsum(flags, dtype=np.int64).tolist()
    if flags:
        assert int(out[-1]) == sum(flags)
    assert out.dtype == np.uint32


def test_inclusive_scan_rejects_flags_beyond_32_bit_range(monkeypatch):
    # a lowered limit stands in for 2**32, whose arrays would not fit in memory
    monkeypatch.setattr("remeshx.primitives.MAX_VERTICES", 4)
    assert inclusive_scan(np.ones(3, bool)).tolist() == [1, 2, 3]
    with pytest.raises(MeshError, match="32-bit"):
        inclusive_scan(np.ones(4, bool))


@pytest.mark.parametrize("dim", [1, 3])
def test_sort_holds_at_most_twelve_bytes_per_row(dim):
    # a pass holds the uint64 words and one uint32 order: the words are built a block
    # at a time, and the composed order is written over the ranks in the word buffer
    n = 1 << 20
    keys = np.random.default_rng(dim).integers(0, 256, size=(n, dim)).astype(np.float32)
    peak = traced_peak(bitwise_sort_order, keys)
    assert peak <= 12 * n + (1 << 20), f"{peak / n:.2f} bytes per row"


@pytest.mark.parametrize("dim", [1, 3])
def test_sort_of_used_rows_holds_at_most_twelve_bytes_per_row(dim):
    # the unused rows' words are sliced off in place, so the mask adds no full-length buffer
    n = 1 << 20
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 256, size=(n, dim)).astype(np.float32)
    peak = traced_peak(bitwise_sort_order, keys, rng.random(n) < 0.8)
    assert peak <= 12 * n + (1 << 20), f"{peak / n:.2f} bytes per row"


@pytest.mark.parametrize("dim", [1, 3])
def test_sort_of_used_rows_holds_at_most_twelve_bytes_per_used_row(dim):
    # an unused row gets no word, so the words and the order are sized to the used rows
    n = 1 << 20
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 256, size=(n, dim)).astype(np.float32)
    used = rng.random(n) < 0.8
    n_used = np.count_nonzero(used)
    peak = traced_peak(bitwise_sort_order, keys, used)
    assert peak <= 12 * n_used + (1 << 20), f"{peak / n_used:.2f} bytes per used row"


def lexsort_of_used_rows(vertices, used=None):
    """Stable lexicographic order of the uint32 bit rows flagged in ``used`` (all by default)."""
    bits = vertex_bits(vertices)
    rows = np.arange(len(bits)) if used is None else np.flatnonzero(used)
    return rows[np.lexsort(bits[rows].T[::-1])]


def _sparse_masks(n, block):
    """Masks over ``n`` rows whose used rows skip whole blocks of ``block`` rows, or sit
    only in the last block; some also leave gaps inside the blocks they use."""
    rows, blocks = np.arange(n), np.arange(n) // block
    last = blocks[-1]
    return [blocks % 2 == 1, (blocks % 2 == 1) & (rows % 2 == 1),
            (blocks == 0) | (blocks == last), blocks == last, rows == n - 1,
            (blocks % 3 == 2) & (rows % block == 0)]


@pytest.mark.parametrize("n", [2, 5, 23])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_bitwise_sort_order_across_block_boundaries(monkeypatch, block, dim, n):
    # n = 2 and 5 fit in one block of 7, and 23 leaves a partial last block of 3 and 7
    monkeypatch.setattr("remeshx.primitives.BLOCK_ROWS", block)
    rng = np.random.default_rng(100 * block + 10 * dim + n)
    vertices = np.array(_AWKWARD_BITS[:4], np.uint32)[
        rng.integers(0, 4, size=(n, dim))].view(np.float32)
    used = rng.random(n) < 0.7
    for mask in (None, used, *_sparse_masks(n, block)):
        assert bitwise_sort_order(vertices, mask).tolist() == \
            lexsort_of_used_rows(vertices, mask).tolist()


def test_bitwise_sort_order_over_several_real_blocks():
    n = 3 * (1 << 16) + 5
    rng = np.random.default_rng(5)
    vertices = rng.integers(0, 64, size=(n, 3)).astype(np.float32)
    used = rng.random(n) < 0.8
    for mask in (None, used):
        assert np.array_equal(bitwise_sort_order(vertices, mask),
                              lexsort_of_used_rows(vertices, mask))
