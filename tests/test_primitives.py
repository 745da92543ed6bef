import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import (MeshError, fill_sequence, inclusive_scan, key_value_sort,
                     scatter, vertex_bits)
from remeshx.primitives import bitwise_sort_order
from conftest import A, B, C, D, E, F, vtx


def test_fill_sequence():
    assert fill_sequence(0).tolist() == []
    assert fill_sequence(3).tolist() == [0, 1, 2]
    assert fill_sequence(10).tolist() == list(range(10))
    assert fill_sequence(10).dtype == np.uint32


def test_key_value_sort_worked_example():
    keys = vtx(A, B, C, A, D, C, E, F, A, D)
    out_keys, out_values = key_value_sort(keys, fill_sequence(10))
    assert out_keys.tolist() == vtx(A, A, A, B, C, C, D, D, E, F).tolist()
    # stable: equal keys keep ascending original positions
    assert out_values.tolist() == [0, 3, 8, 1, 2, 5, 4, 9, 6, 7]


def test_key_value_sort_empty():
    out_keys, out_values = key_value_sort(vtx().reshape(0, 2), fill_sequence(0))
    assert len(out_keys) == 0 and len(out_values) == 0


def test_key_value_sort_swap():
    out_keys, out_values = key_value_sort(vtx(B, A), fill_sequence(2))
    assert out_keys.tolist() == vtx(A, B).tolist()
    assert out_values.tolist() == [1, 0]


def test_key_value_sort_length_mismatch():
    with pytest.raises(MeshError):
        key_value_sort(vtx(A, B), fill_sequence(3))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40))
def test_key_value_sort_is_permutation_of_pairs(rows):
    keys = np.array(rows, np.float32).reshape(len(rows), 2)
    out_keys, out_values = key_value_sort(keys, fill_sequence(len(rows)))
    # values recover the original keys: output pairs == input pairs as a multiset
    assert np.array_equal(keys[out_values], out_keys)
    assert sorted(out_values.tolist()) == list(range(len(rows)))
    bits = vertex_bits(out_keys)
    assert all(tuple(bits[i]) <= tuple(bits[i + 1]) for i in range(len(rows) - 1))


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
    with pytest.raises(MeshError, match="32-bit"):
        key_value_sort(vtx(D, C, B, A), fill_sequence(4))


def test_inclusive_scan_worked_example():
    flags = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
    assert inclusive_scan(flags).tolist() == [1, 1, 1, 2, 3, 3, 4, 4, 5, 6]


def test_inclusive_scan_trivial():
    assert inclusive_scan([]).tolist() == []
    assert inclusive_scan([1, 1, 1]).tolist() == [1, 2, 3]


@given(st.lists(st.integers(0, 1), max_size=200), st.booleans())
def test_inclusive_scan_last_equals_popcount(flags, as_bool):
    out = inclusive_scan(np.array(flags, bool) if as_bool else flags)
    assert out.tolist() == np.cumsum(flags, dtype=np.int64).tolist()
    if flags:
        assert int(out[-1]) == sum(flags)
    assert out.dtype == np.uint32


def test_scatter_worked_example():
    values = vtx(A, A, A, B, C, C, D, D, E, F)
    positions = np.array([0, 0, 0, 1, 2, 2, 3, 3, 4, 5], np.uint32)
    out = scatter(values, positions, np.ones(10, bool), 6)
    assert out.tolist() == vtx(A, B, C, D, E, F).tolist()


def test_scatter_single():
    out = scatter(vtx((9, 9)), np.array([0], np.uint32), [True], 1)
    assert out.tolist() == [[9, 9]]


def test_scatter_permutation():
    out = scatter(vtx((1, 1), (2, 2)), np.array([1, 0], np.uint32), [True, True], 2)
    assert out.tolist() == [[2, 2], [1, 1]]


def test_scatter_identity_property():
    values = vtx(F, A, C, B)
    out = scatter(values, fill_sequence(4), np.ones(4, bool), 4)
    assert np.array_equal(out, values)


def test_scatter_out_of_range():
    with pytest.raises(MeshError):
        scatter(vtx(A), np.array([3], np.uint32), [True], 2)
    # unmasked out-of-range positions are fine
    out = scatter(vtx(A, B), np.array([7, 0], np.uint32), [False, True], 1)
    assert out.tolist() == [list(B)]


def test_scatter_length_mismatch():
    with pytest.raises(MeshError):
        scatter(vtx(A, B), np.array([0], np.uint32), [True, False], 2)


@settings(max_examples=30)
@given(st.integers(0, 64), st.randoms(use_true_random=False))
def test_scatter_applies_any_permutation(n, rnd):
    values = np.arange(n, dtype=np.uint32) * 3
    positions = np.arange(n, dtype=np.uint32)
    rnd.shuffle(positions)
    out = scatter(values, positions, np.ones(n, bool), n)
    assert np.array_equal(out[positions], values)
