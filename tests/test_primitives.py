import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import (MeshError, compute_sort_permutation, grid_quads, inclusive_scan, primitives,
                     vertex_bits)
from remeshx.primitives import _packed_fields, bitwise_sort_order
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
    # serial.equivalent orders vertex rows by this same np.lexsort: the two orders must agree
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bitwise_sort_order_drops_an_all_true_mask(monkeypatch, dim):
    # a mask that flags every row orders every row: the sort builds the unmasked words
    masks, real = [], primitives._first_pass_words
    monkeypatch.setattr(primitives, "_first_pass_words",
                        lambda bits, used, *rest: masks.append(used) or real(bits, used, *rest))
    rng = np.random.default_rng(dim)
    vertices = np.array(_AWKWARD_BITS, np.uint32)[
        rng.integers(0, len(_AWKWARD_BITS), size=(300, dim))].view(np.float32)
    masked = bitwise_sort_order(vertices, np.ones(300, bool))
    unmasked = bitwise_sort_order(vertices)
    assert masked.dtype == unmasked.dtype and masked.tobytes() == unmasked.tobytes()
    assert masks == [None, None]


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sort_holds_at_most_twelve_bytes_per_row(dim):
    # a pass holds the uint64 words and the one uint32 order kept for the whole sort: the
    # words are built a block at a time, and each pass composes its order over the ranks
    n = 1 << 20
    keys = np.random.default_rng(dim).integers(0, 256, size=(n, dim)).astype(np.float32)
    peak = traced_peak(bitwise_sort_order, keys)
    assert peak <= 12 * n + (1 << 20), f"{peak / n:.2f} bytes per row"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sort_of_used_rows_holds_at_most_twelve_bytes_per_row(dim):
    # the unused rows' words are sliced off in place, so the mask adds no full-length buffer
    n = 1 << 20
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 256, size=(n, dim)).astype(np.float32)
    peak = traced_peak(bitwise_sort_order, keys, rng.random(n) < 0.8)
    assert peak <= 12 * n + (1 << 20), f"{peak / n:.2f} bytes per row"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sort_of_used_rows_holds_at_most_twelve_bytes_per_used_row(dim):
    # an unused row gets no word, so the words and the order are sized to the used rows
    n = 1 << 20
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 256, size=(n, dim)).astype(np.float32)
    used = rng.random(n) < 0.8
    n_used = np.count_nonzero(used)
    peak = traced_peak(bitwise_sort_order, keys, used)
    assert peak <= 12 * n_used + (1 << 20), f"{peak / n_used:.2f} bytes per used row"


def test_sort_of_wide_rows_holds_its_plan_lanes_to_one_block():
    # the plan's read reduces rows into lanes that hold at most one block of values:
    # 64 lanes of 2^16 components each held 48.25 MiB
    n, dim = 64, 1 << 16
    keys = np.zeros((n, dim), np.float32)
    keys[:, [0, 1000, dim - 1]] = np.random.default_rng(8).integers(0, 4, size=(n, 3))
    peak = traced_peak(bitwise_sort_order, keys)
    assert peak <= 12 * n + 24 * dim + (1 << 20), f"{peak / 2**20:.2f} MiB"
    assert_sorts_like_lexsort(keys)


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
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", block)
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


def position_bits(n):
    return max(1, (n - 1).bit_length())


def rows_with_fields(n, spans, seed):
    """``n`` uint32 rows, viewed as float32, whose component c varies exactly in bits
    ``spans[c] = (low, high)`` (None: equal in every row).  The bits outside a span
    are set, so a field that kept any of them would break the order, and about
    half the rows repeat others, so the order's stability is tested too."""
    rng = np.random.default_rng(seed)
    columns = []
    for span in spans:
        if span is None:
            columns.append(np.full(n, 0xA5A5A5A5, np.uint64))
            continue
        low, high = span
        field = rng.integers(0, 1 << (high - low + 1), size=n, dtype=np.uint64)
        field[rng.integers(0, n, size=n // 2)] = field[rng.integers(0, n, size=n // 2)]
        field[:2] = 0, (1 << (high - low + 1)) - 1  # the lowest and the highest bit vary
        outside = 0xFFFFFFFF & ~(((1 << (high - low + 1)) - 1) << low)
        columns.append((field << np.uint64(low)) | np.uint64(outside))
    return np.stack(columns, axis=1).astype(np.uint32).view(np.float32)


def assert_sorts_like_lexsort(vertices, used=None):
    assert bitwise_sort_order(vertices, used).tolist() == \
        lexsort_of_used_rows(vertices, used).tolist()


def plan_of(vertices):
    return _packed_fields(vertex_bits(vertices), 64 - position_bits(len(vertices)))


@pytest.mark.parametrize("spans", [[(0, 31)], [(31, 31)], [(0, 0)], [(31, 31), (0, 0)],
                                   [(0, 31), (0, 31), (0, 31)], [(0, 0), (31, 31), (5, 9)]],
                         ids=str)
def test_packed_sort_with_the_sign_bit_and_bit_0_varying(spans):
    assert_sorts_like_lexsort(rows_with_fields(500, spans, 1))


@pytest.mark.parametrize("spans", [[None], [None, None, None], [(3, 20), None, (0, 31)],
                                   [None, (7, 7)], [(12, 30), None]], ids=str)
def test_packed_sort_with_constant_columns(spans):
    vertices = rows_with_fields(400, spans, 2)
    assert_sorts_like_lexsort(vertices)
    assert sum(len(fields) for fields in plan_of(vertices)) == len(spans) - spans.count(None)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("view", [lambda v: v, lambda v: v[::2], lambda v: v[:, ::-1],
                                  np.asfortranarray],
                         ids=["contiguous", "row-step", "reversed-columns", "fortran"])
def test_sort_leaves_writeable_caller_keys_unchanged(view, masked):
    # every field is narrower than 32 bits and has set bits around it, so each one is
    # trimmed; unmasked, the sort reads a block of a column as a view of these keys
    keys = view(rows_with_fields(3000, [(3, 20), (12, 30), (0, 9)], 6))
    assert keys.flags.writeable
    used = np.random.default_rng(6).random(len(keys)) < 0.7 if masked else None
    before = keys.copy()
    bitwise_sort_order(keys, used)
    compute_sort_permutation(keys, used)
    assert keys.view(np.uint32).tobytes() == before.view(np.uint32).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_packed_sort_of_all_equal_rows_keeps_the_input_order(dim):
    vertices = rows_with_fields(300, [None] * dim, 3)
    assert plan_of(vertices) == [[]]
    assert bitwise_sort_order(vertices).tolist() == list(range(300))
    used = np.arange(300) % 3 == 1
    assert bitwise_sort_order(vertices, used).tolist() == np.flatnonzero(used).tolist()


@pytest.mark.parametrize("extra, passes", [(0, 1), (1, 2)])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 1000, 1 << 10, (1 << 10) + 1, 1 << 16, (1 << 16) + 1])
def test_packed_sort_at_the_word_width(n, extra, passes):
    # two fields whose widths sum to exactly 64 - k, or one bit more: the second case
    # must take two passes, and neither may let a field reach the position bits, also
    # at n = 2^j rows, the most that k = j bits can number, and at 2^j + 1
    k = position_bits(n)
    spans = [(0, 31 - k + extra), (0, 31)]
    vertices = rows_with_fields(n, spans, n + extra)
    assert len(plan_of(vertices)) == passes
    assert_sorts_like_lexsort(vertices)
    assert_sorts_like_lexsort(vertices, np.random.default_rng(n).random(n) < 0.6)


@pytest.mark.parametrize("n_used", [1, 4, 5, 100])
def test_packed_sort_sizes_its_positions_to_the_input_rows_not_the_used_ones(n_used):
    # a few used rows at the end of many: their row ids need more bits than their
    # count, and the fields fill every bit the input's row count leaves free
    n = 3000
    vertices = rows_with_fields(n, [(0, 31 - position_bits(n)), (0, 31)], n_used)
    for used in (np.arange(n) >= n - n_used, np.isin(np.arange(n), np.linspace(
            0, n - 1, n_used).astype(int))):
        n_sorted = int(np.count_nonzero(used))
        assert n_sorted <= 1 << position_bits(n_sorted) < n
        assert_sorts_like_lexsort(vertices, used)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_packed_sort_keeps_signed_zeros_and_nan_payloads_apart(dim):
    patterns = np.array([0x00000000, 0x80000000, 0x7FC00000, 0x7FC00001, 0x7FC00123,
                         0xFFC00001, 0x7F800001, 0xFFFFFFFF], np.uint32)
    rng = np.random.default_rng(40 + dim)
    vertices = patterns[rng.integers(0, len(patterns), size=(2000, dim))].view(np.float32)
    assert_sorts_like_lexsort(vertices)
    assert_sorts_like_lexsort(vertices, rng.random(2000) < 0.5)


def test_packed_sort_plan_of_a_grid_and_of_full_width_floats():
    # the grid's two lattice coordinates share one word; full-width floats keep one
    # component per pass, so a plan never takes more passes than there are components
    assert len(plan_of(grid_quads(64).vertices)) == 1
    for dim in (1, 2, 3):
        floats = np.random.default_rng(dim).standard_normal((5000, dim), dtype=np.float32)
        assert plan_of(floats) == [[(c, 0, 32, 0)] for c in reversed(range(dim))]
        assert_sorts_like_lexsort(floats)


@pytest.mark.parametrize("block", [64, 100, 1 << 16])
def test_packed_sort_plan_reads_every_row(monkeypatch, block):
    # the only differing bits sit in a late whole line of 64 rows and in the tail rows
    # past the last whole line, so a plan that skipped either would drop them
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", block)
    bits = np.full((1000, 2), 0x3F800000, np.uint32)
    bits[900, 0] ^= 1 << 20
    bits[999, 0] ^= 1 << 31
    bits[998, 1] ^= 1 << 12
    bits[997, 1] ^= 1
    vertices = bits.view(np.float32)
    assert plan_of(vertices) == [[(1, 0, 13, 0), (0, 20, 12, 13)]]
    assert_sorts_like_lexsort(vertices)
