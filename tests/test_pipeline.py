import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import (Mesh, MeshError, RandomMeshSpec, bitwise_equal, compact_vertices,
                     compute_new_indices, compute_sort_permutation, dereference, equivalent,
                     flag_first_occurrences, grid_quads, invert_permutation, mark_used,
                     overwrite_unused, random_mesh, read_bin, reindex, reindex_serial,
                     soups_equal, vertex_bits, write_bin)
from remeshx import pipeline, primitives
from conftest import (A, B, C, D, E, F, FREED_AFTER_THE_SORT_NEEDS_3_11, elems, traced_peak,
                      vtx)


# float32 bit patterns that a float comparison or conversion could lose: signed
# zeros, infinities, quiet and signalling NaNs of both signs with payloads
RAW_BITS = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7FC00001,
            0xFFC00002, 0x7F800001, 0xFFBFFFFF, 0x3F800000]


def cleaned_worked_vertices():
    return vtx(A, B, C, A, D, C, E, F, A, D)


def overwrite_by_boolean_rows(vertices, is_used, replacement):
    """The reference step-1 kernel: a 2-D boolean row assignment on a copy."""
    out = np.array(vertices, np.float32)
    out[~np.asarray(is_used)] = replacement
    return out


def test_mark_used_worked(worked_mesh):
    assert mark_used(worked_mesh).astype(int).tolist() == [1, 1, 1, 0, 1, 1, 1, 1, 0, 1]


def test_mark_used_no_elements():
    mesh = Mesh(vtx(A, B), np.empty((0, 3), np.uint32))
    assert mark_used(mesh).tolist() == [False, False]


def test_mark_used_all_referenced():
    mesh = Mesh(vtx(A, B, C), elems((0, 1, 2)))
    assert mark_used(mesh).tolist() == [True, True, True]


def test_overwrite_unused_worked(worked_mesh):
    out = overwrite_unused(worked_mesh.vertices, mark_used(worked_mesh),
                           worked_mesh.vertices[0])
    assert out.tolist() == cleaned_worked_vertices().tolist()


def test_overwrite_unused_all_used():
    vertices = vtx(A, B)
    out = overwrite_unused(vertices, [True, True], np.array(F, np.float32))
    assert out.tolist() == vertices.tolist()


def test_overwrite_unused_all_unused():
    out = overwrite_unused(vtx(A, B), [False, False], np.array(F, np.float32))
    assert out.tolist() == vtx(F, F).tolist()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_overwrite_unused_matches_boolean_row_assignment(dim, layout):
    rng = np.random.default_rng(dim)
    bits = np.array(RAW_BITS, np.uint32)[rng.integers(0, len(RAW_BITS), size=(60, dim))]
    base = bits.view(np.float32)
    vertices = {"C": base[:30], "F": np.asfortranarray(base[:30]),
                "strided": base[::2, ::-1]}[layout]
    is_used = rng.random(len(vertices)) < 0.6
    assert is_used.any() and not is_used.all()
    before = vertex_bits(vertices).copy()
    # the layout's own first row (strided in F order), a reversed row, a row of the base
    for replacement in (vertices[0], vertices[1, ::-1], base[-1]):
        got = overwrite_unused(vertices, is_used, replacement)
        want = overwrite_by_boolean_rows(vertices, is_used, replacement)
        assert got.flags.c_contiguous and got.shape == vertices.shape
        assert np.array_equal(vertex_bits(got), vertex_bits(want))
    assert np.array_equal(vertex_bits(vertices), before)


def test_sort_permutation_worked():
    sorted_vtx, org_id = compute_sort_permutation(cleaned_worked_vertices())
    assert sorted_vtx.tolist() == vtx(A, A, A, B, C, C, D, D, E, F).tolist()
    assert org_id.tolist() == [0, 3, 8, 1, 2, 5, 4, 9, 6, 7]


def test_sort_permutation_already_sorted():
    _, org_id = compute_sort_permutation(vtx(A, B, C, D))
    assert org_id.tolist() == [0, 1, 2, 3]


def test_sort_permutation_empty():
    sorted_vtx, org_id = compute_sort_permutation(np.empty((0, 2), np.float32))
    assert len(sorted_vtx) == 0 and len(org_id) == 0
    sorted_vtx, org_id = compute_sort_permutation(vtx(A, B, C), np.zeros(3, bool))
    assert sorted_vtx.shape == (0, 2) and len(org_id) == 0


def test_sort_permutation_of_used_rows_worked(worked_mesh):
    sorted_vtx, org_id = compute_sort_permutation(worked_mesh.vertices,
                                                  mark_used(worked_mesh))
    assert sorted_vtx.tolist() == vtx(A, B, C, C, D, D, E, F).tolist()
    assert org_id.tolist() == [0, 1, 2, 5, 4, 9, 6, 7]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sort_permutation_across_block_boundaries(monkeypatch, dim):
    # the rows are gathered over the sort's spent words, a block at a time, by take_rows
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", 3)
    rng = np.random.default_rng(dim)
    vertices = rng.integers(0, 3, size=(23, dim)).astype(np.float32)
    for used in (None, rng.random(23) < 0.7):
        rows = np.arange(23) if used is None else np.flatnonzero(used)
        want = rows[np.lexsort(vertex_bits(vertices)[rows].T[::-1])]
        sorted_vtx, org_id = compute_sort_permutation(vertices, used)
        assert org_id.tolist() == want.tolist()
        assert np.array_equal(vertex_bits(sorted_vtx), vertex_bits(vertices)[want])


def test_flag_first_occurrences_worked():
    nodup = flag_first_occurrences(vtx(A, A, A, B, C, C, D, D, E, F))
    assert nodup.astype(int).tolist() == [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]


def test_flag_first_occurrences_trivial():
    assert flag_first_occurrences(vtx(A, B, C)).all()
    assert flag_first_occurrences(vtx(A, A, A, A)).astype(int).tolist() == [1, 0, 0, 0]


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("n,dim", [(0, 5), (1, 11), (2, 11), (3, 11), (5, 17), (40, 3)])
def test_flag_first_occurrences_in_tiles_of_components(monkeypatch, block, n, dim):
    # tiles of block // n components (at least one) split the components unevenly; rows
    # repeat, or differ from another in one bit of its last, first or a middle component,
    # whose bits may be a NaN's or a signed zero's
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", block)
    rng = np.random.default_rng(dim * block + n)
    pool = np.tile(rng.choice(np.array(RAW_BITS, np.uint32), size=dim), (4, 1))
    pool[[1, 2, 3], [dim - 1, 0, dim // 2]] ^= np.array([0x80000000, 1, 0x400000], np.uint32)
    bits = pool[rng.permutation(np.resize([0, 1, 0, 2, 2, 3, 3], n))]
    nodup = flag_first_occurrences(bits.view(np.float32))
    want = [i == 0 or bits[i].tobytes() != bits[i - 1].tobytes() for i in range(n)]
    assert nodup.tolist() == want


@pytest.mark.parametrize("same", [False, True])
def test_flag_first_occurrences_of_two_wide_rows_is_quick(same):
    # one compare per component took 1.5 s on a 2-vCPU VM; tiles of one block take about 1 ms
    rows = np.random.default_rng(0).standard_normal((2, 1 << 20), dtype=np.float32)
    rows[1] = rows[0] if same else rows[1]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        nodup = flag_first_occurrences(rows)
        times.append(time.perf_counter() - start)
    assert nodup.tolist() == [True, not same]
    assert min(times) < 0.25, f"{min(times):.3f} s"


def test_compute_new_indices_worked():
    new_idx, new_count = compute_new_indices(
        np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], bool))
    assert new_idx.tolist() == [0, 0, 0, 1, 2, 2, 3, 3, 4, 5]
    assert new_count == 6


def test_compute_new_indices_trivial():
    assert compute_new_indices(np.array([True]))[0].tolist() == [0]
    new_idx, new_count = compute_new_indices(np.array([1, 1, 1], bool))
    assert new_idx.tolist() == [0, 1, 2] and new_count == 3
    empty_idx, empty_count = compute_new_indices(np.empty(0, bool))
    assert len(empty_idx) == 0 and empty_count == 0


def test_compute_new_indices_rejects_unflagged_head():
    with pytest.raises(MeshError):
        compute_new_indices(np.array([False, True]))


def test_compact_vertices_worked():
    sorted_vtx = vtx(A, A, A, B, C, C, D, D, E, F)
    nodup = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], bool)
    new_idx = np.array([0, 0, 0, 1, 2, 2, 3, 3, 4, 5], np.uint32)
    out = compact_vertices(sorted_vtx, nodup, new_idx, 6)
    assert out.tolist() == vtx(A, B, C, D, E, F).tolist()


@pytest.mark.parametrize("dim", [2, 3])
def test_compact_vertices_holds_the_output_and_one_block(dim):
    # every kept row is followed by a duplicate, so the flagged offset carries across blocks
    kept = 1 << 20
    rows = np.arange(kept * dim, dtype=np.float32).reshape(kept, dim)
    sorted_vtx = np.repeat(rows, 2, axis=0)
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    assert new_count == kept
    peak = traced_peak(compact_vertices, sorted_vtx, nodup, new_idx, new_count)
    assert peak <= 4 * dim * kept + (2 << 20), f"{peak / kept:.2f} bytes per kept row"
    assert np.array_equal(compact_vertices(sorted_vtx, nodup, new_idx, new_count), rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_compact_vertices_across_block_boundaries(monkeypatch, dim):
    # 2 sorted rows per checked block, so the flagged offset carries across most blocks
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", 2)
    rng = np.random.default_rng(dim)
    sorted_vtx, _ = compute_sort_permutation(rng.integers(0, 3, size=(29, dim)).astype(np.float32))
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    scattered = np.zeros((new_count, dim), np.float32)
    scattered[new_idx[nodup]] = sorted_vtx[nodup]
    compacted = compact_vertices(sorted_vtx, nodup, new_idx, new_count)
    assert np.array_equal(vertex_bits(compacted), vertex_bits(scattered))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_reindex_compacts_across_block_boundaries(monkeypatch, dim):
    # reindex calls the compaction kernel, not compact_vertices: its blocks are reached here
    mesh = random_mesh(RandomMeshSpec(seed=dim, dim=dim, coord_pool_size=3))
    unpatched = reindex(mesh)[0]
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", 2)
    out = reindex(mesh)[0]
    assert bitwise_equal(out, unpatched)
    assert equivalent(out, reindex_serial(mesh))


def test_compact_vertices_checks_only_the_flagged_new_indices():
    sorted_vtx, nodup = vtx(A, B, C), np.array([True, False, True])
    # the unflagged entry is neither read nor checked
    out = compact_vertices(sorted_vtx, nodup, np.array([0, 7, 1], np.uint32), 2)
    assert out.tolist() == vtx(A, C).tolist()
    with pytest.raises(MeshError, match="flagged new indices"):
        compact_vertices(sorted_vtx, nodup, np.array([0, 1, 7], np.uint32), 2)


def test_compact_mask_is_optional():
    # unmasked scatter gives the same result: colliding writers are duplicates
    sorted_vtx = vtx(A, A, B, C, C, C)
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    masked = compact_vertices(sorted_vtx, nodup, new_idx, new_count)
    unmasked = np.zeros((new_count, sorted_vtx.shape[1]), np.float32)
    unmasked[new_idx] = sorted_vtx
    assert np.array_equal(masked, unmasked)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.lists(st.sampled_from(RAW_BITS), min_size=dim, max_size=dim), max_size=40)))
def test_compact_vertices_equals_scatter_to_scan_positions(rows):
    dim = len(rows[0]) if rows else 2
    sorted_vtx, _ = compute_sort_permutation(
        np.array(rows, np.uint32).reshape(-1, dim).view(np.float32))
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    compacted = compact_vertices(sorted_vtx, nodup, new_idx, new_count)
    # the reference is the masked scatter, written as numpy fancy assignment
    scattered = np.zeros((new_count, dim), np.float32)
    scattered[new_idx[nodup]] = sorted_vtx[nodup]
    assert compacted.shape == scattered.shape == (new_count, dim)
    assert np.array_equal(vertex_bits(compacted), vertex_bits(scattered))


def test_invert_permutation_worked():
    perm = invert_permutation(np.array([0, 3, 8, 1, 2, 5, 4, 9, 6, 7], np.uint32))
    assert perm.tolist() == [0, 3, 4, 1, 6, 5, 8, 9, 2, 7]


def test_invert_permutation_trivial():
    assert invert_permutation(np.array([0, 1, 2], np.uint32)).tolist() == [0, 1, 2]
    assert invert_permutation(np.array([1, 0], np.uint32)).tolist() == [1, 0]


def test_invert_permutation_rejects_non_permutation():
    with pytest.raises(MeshError):
        invert_permutation(np.array([0, 0], np.uint32))
    with pytest.raises(MeshError):
        invert_permutation(np.array([0, 5], np.uint32))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
def test_invert_permutation_rejects_negative_entries(dtype):
    # -1 would wrap to the last slot, and [-1, 0] would then pass for [1, 0]
    with pytest.raises(MeshError, match="-1"):
        invert_permutation(np.array([-1, 0], dtype))
    assert invert_permutation(np.array([1, 0], dtype)).tolist() == [1, 0]


def test_invert_permutation_rejects_length_beyond_index_range(monkeypatch):
    # a lowered limit stands in for 2**32, whose arrays would not fit in memory
    monkeypatch.setattr("remeshx.pipeline.MAX_VERTICES", 4)
    assert invert_permutation(np.array([2, 0, 1], np.uint32)).tolist() == [1, 2, 0]
    with pytest.raises(MeshError, match="32-bit"):
        invert_permutation(np.array([3, 2, 0, 1], np.uint32))


def test_reindex_worked(worked_mesh):
    out, scratch = reindex(worked_mesh)
    assert out.n_vertices == 6
    assert out.vertices.tolist() == vtx(A, B, C, D, E, F).tolist()
    assert out.elements.tolist() == [[0, 1, 2], [0, 2, 3], [2, 4, 5], [2, 5, 3]]
    assert scratch.new_count == 6
    assert soups_equal(dereference(out), dereference(worked_mesh))


def test_reindex_leaves_perm_to_first_access(worked_mesh):
    _, scratch = reindex(worked_mesh)
    assert "perm" not in vars(scratch)
    assert scratch.perm.tolist() == [0, 3, 4, 1, 6, 5, 8, 9, 2, 7]


def test_reindex_leaves_full_scratch_to_first_access(worked_mesh):
    _, scratch = reindex(worked_mesh)
    assert not {"org_id", "nodup", "new_idx"} & set(vars(scratch))
    assert scratch.table.tolist() == [0, 1, 2, 0, 3, 2, 4, 5, 0, 3]
    assert scratch.org_id.tolist() == [0, 3, 8, 1, 2, 5, 4, 9, 6, 7]
    assert scratch.nodup.astype(int).tolist() == [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
    assert scratch.new_idx.tolist() == [0, 0, 0, 1, 2, 2, 3, 3, 4, 5]


def test_scratch_new_idx_and_nodup_do_not_build_org_id():
    # new_idx is the filled table sorted by value, the same values its gather through
    # the stable order gives, so reading it and nodup runs no second bitwise sort
    _, scratch = reindex(grid_quads(64))
    new_idx, nodup = scratch.new_idx, scratch.nodup
    assert "org_id" not in vars(scratch)
    assert new_idx.dtype == np.uint32
    assert new_idx.tobytes() == scratch._filled()[scratch.org_id].tobytes()
    assert nodup.tolist() == (np.diff(new_idx, prepend=-1) != 0).tolist()


def test_reindex_scratch_compares_by_identity():
    # array fields make field-wise equality ambiguous, so records compare and hash by identity
    s1, s2 = reindex(grid_quads(2))[1], reindex(grid_quads(2))[1]
    assert s1 != s2 and s1 == s1
    assert len({s1, s2}) == 2


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_reindex_frees_a_temporary_input_after_the_sort(tmp_path, monkeypatch):
    path = tmp_path / "grid.rmx"
    write_bin(grid_quads(64), path)
    owners, alive = [], []

    def load():
        mesh = read_bin(path)
        owners.append(weakref.ref(mesh.vertices.base))
        return mesh

    def spy(nodup, real=pipeline.compute_new_indices):
        alive.append(owners[-1]() is not None)
        return real(nodup)

    monkeypatch.setattr(pipeline, "compute_new_indices", spy)
    out, _ = reindex(load())
    held = load()
    rows, elements = held.vertices.copy(), held.elements.copy()
    again, _ = reindex(held)
    # a temporary's vertex rows are gone before the scan; a held mesh is kept intact
    assert alive == [False, True]
    assert np.array_equal(held.vertices.view(np.uint32), rows.view(np.uint32))
    assert np.array_equal(held.elements, elements)
    assert bitwise_equal(out, again)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sort_permutation_gathers_the_rows_over_the_spent_sort_words(dim, masked):
    # the sort runs in a buffer of max(8, 4 * dim) bytes per sorted row beside its own
    # 4-byte order, which is handed over; the sorted rows are gathered over the words
    n = 1 << 20
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 256, size=(n, dim)).astype(np.float32)
    used = rng.random(n) < 0.8 if masked else None
    n_sorted = np.count_nonzero(used) if masked else n
    row_bytes = 4 + max(8, 4 * dim)
    peak = traced_peak(compute_sort_permutation, keys, used)
    assert peak <= row_bytes * n_sorted + (1 << 20), f"{peak / n_sorted:.2f} bytes per row"


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sort_hands_over_an_order_that_owns_its_memory(dim, masked):
    rng = np.random.default_rng(dim)
    keys = rng.integers(0, 4, size=(1000, dim)).astype(np.float32)
    used = rng.random(1000) < 0.8 if masked else None
    order = primitives.bitwise_sort_order(keys, used)
    sorted_vtx, org_id = compute_sort_permutation(keys, used)
    for ids in (order, org_id):
        assert ids.flags.owndata and ids.base is None
        assert not np.shares_memory(ids, keys)
        assert not np.shares_memory(ids, sorted_vtx)
    rows = sorted_vtx.copy()
    org_id[:] = 0
    assert np.array_equal(sorted_vtx.view(np.uint32), rows.view(np.uint32))


def hand_run_chain(mesh):
    """The paper's steps run by hand, with step 1's overwrite: the reference for reindex."""
    is_used = mark_used(mesh)
    cleaned = overwrite_unused(mesh.vertices, is_used, mesh.vertices[mesh.elements[0, 0]])
    sorted_vtx, org_id = compute_sort_permutation(cleaned)
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    table = np.empty(mesh.n_vertices, np.uint32)
    table[org_id] = new_idx
    return org_id, nodup, new_idx, new_count, table


def mesh_with_unused(dim, unused_fraction, seed):
    """Mesh whose first and last vertex are used copies of the replacement row, elements[0, 0]."""
    rng = np.random.default_rng(seed)
    n = 240
    vertices = rng.integers(0, 3, size=(n, dim)).astype(np.float32)
    # the unused ids lie strictly between the first and the last vertex
    unused = 1 + rng.permutation(n - 2)[:round(unused_fraction * n)]
    used = np.setdiff1d(np.arange(n), unused)
    corners = rng.permutation(np.resize(used, 3 * -(-len(used) // 3)))
    elements = corners.reshape(-1, 3).astype(np.uint32)
    vertices[[0, -1]] = vertices[elements[0, 0]]
    return Mesh(vertices, elements)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("unused_fraction", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_reindex_scratch_equals_the_hand_run_chain(dim, unused_fraction, seed):
    mesh = mesh_with_unused(dim, unused_fraction, 10 * dim + seed)
    out, scratch = reindex(mesh)
    org_id, nodup, new_idx, new_count, table = hand_run_chain(mesh)
    assert np.count_nonzero(~scratch.is_used) == round(unused_fraction * mesh.n_vertices)
    assert scratch.new_count == new_count and np.array_equal(out.elements, table[mesh.elements])
    for got, want in ((scratch.org_id, org_id), (scratch.nodup, nodup),
                      (scratch.new_idx, new_idx), (scratch.perm, invert_permutation(org_id))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the hand-run table gives the unused vertices the replacement's index; reindex writes 0
    assert scratch.table.dtype == table.dtype
    assert np.array_equal(scratch.table[scratch.is_used], table[scratch.is_used])
    assert not scratch.table[~scratch.is_used].any()


@pytest.mark.parametrize("spec", [RandomMeshSpec(seed=s, dim=1 + s % 3) for s in range(6)]
                         + [RandomMeshSpec(seed=6, n_elements=0)])
def test_reindex_counts_add_up_to_the_input(spec):
    mesh = random_mesh(spec)
    out, scratch = reindex(mesh)
    counts = scratch.counts
    assert counts["vertices_in"] == mesh.n_vertices
    assert counts["unused"] == np.count_nonzero(~mark_used(mesh))
    assert mesh.n_vertices == counts["unused"] + counts["duplicates"] + counts["vertices_out"]
    assert counts["vertices_out"] == out.n_vertices == reindex_serial(mesh).n_vertices


@pytest.mark.parametrize("n", [0, 1])
def test_reindex_of_a_wide_mesh_holds_no_lanes_for_absent_rows(n):
    # the sort's plan reduces no more rows to a line than the mesh has: no 64 * dim lanes
    dim = 1 << 20
    mesh = Mesh(np.zeros((n, dim), np.float32), np.zeros((n, 3), np.uint32))
    peak = traced_peak(reindex, mesh)
    assert peak <= 32 * dim + (1 << 20), f"{peak / dim:.1f} bytes per component"


def test_reindex_already_compact():
    mesh = Mesh(vtx(B, A, C), elems((0, 1, 2), (2, 1, 0)))
    out, _ = reindex(mesh)
    assert out.n_vertices == 3
    # canonical output order is sorted
    assert out.vertices.tolist() == vtx(A, B, C).tolist()
    assert soups_equal(dereference(out), dereference(mesh))


def test_reindex_zero_elements_drops_everything():
    mesh = Mesh(vtx(A, B, C), np.empty((0, 4), np.uint32))
    out, scratch = reindex(mesh)
    assert out.n_vertices == 0 and out.n_elements == 0
    assert out.dim == 2 and out.arity == 4
    assert scratch.is_used.tolist() == [False] * 3
    assert scratch.new_count == 0


def test_reindex_idempotent(worked_mesh):
    once, _ = reindex(worked_mesh)
    twice, _ = reindex(once)
    assert bitwise_equal(once, twice)


def test_reindex_keeps_negative_zero_distinct():
    mesh = Mesh(vtx((0.0, 1.0), (-0.0, 1.0)), elems((0, 1, 0)))
    out, _ = reindex(mesh)
    assert out.n_vertices == 2


def test_reindex_welds_identical_nan_payloads():
    payload = np.frombuffer(np.uint32(0x7FC00001).tobytes(), np.float32)[0]
    mesh = Mesh(vtx((payload, 1.0), (payload, 1.0), (2.0, 2.0)), elems((0, 1, 2)))
    out, _ = reindex(mesh)
    assert out.n_vertices == 2


def test_reindex_peak_allocation_is_under_three_times_the_input():
    mesh = grid_quads(256)
    input_bytes = mesh.vertices.nbytes + mesh.elements.nbytes
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        reindex(mesh)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3 * input_bytes, f"peak {peak / input_bytes:.2f}x the input"


def test_reindex_scratch_holds_the_used_flags_and_the_table():
    # one bool and one uint32 per input vertex; the lazy arrays are not built
    n_vertices = grid_quads(256).n_vertices
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, scratch = reindex(grid_quads(256))
        del out
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held <= 5 * n_vertices + (64 << 10), f"{held / n_vertices:.2f} bytes per vertex"
    assert scratch.table.nbytes + scratch.is_used.nbytes == 5 * n_vertices


@st.composite
def meshes(draw):
    n = draw(st.integers(1, 24))
    arity = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(0, 20))
    coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=n, max_size=n))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=m * arity,
                            max_size=m * arity))
    return Mesh(np.array(coords, np.float32),
                np.array(indices, np.uint32).reshape(m, arity))


@settings(max_examples=60, deadline=None)
@given(meshes())
def test_reindex_properties(mesh):
    out, scratch = reindex(mesh)
    assert soups_equal(dereference(out), dereference(mesh))
    assert len(np.unique(vertex_bits(out.vertices), axis=0)) == out.n_vertices
    assert out.n_vertices <= mesh.n_vertices
    if mesh.n_elements:
        used = np.zeros(out.n_vertices, bool)
        used[out.elements.reshape(-1)] = True
        assert used.all()
        assert np.array_equal(scratch.perm[scratch.org_id],
                              np.arange(mesh.n_vertices, dtype=np.uint32))
        assert np.array_equal(out.elements, scratch.new_idx[scratch.perm[mesh.elements]])
    assert bitwise_equal(reindex(out)[0], out)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_flag_first_occurrences_counts_bitwise_unique_rows(dim):
    rng = np.random.default_rng(dim)
    rows = rng.integers(0, 3, size=(40, dim)).astype(np.float32)
    last_differs = rows[:8].copy()
    last_differs[:, -1] += 0.5
    signed = rows[:8].copy()
    signed[:, -1] = -0.0
    nan_a = np.frombuffer(np.uint32(0x7FC00001).tobytes(), np.float32)[0]
    nan_b = np.frombuffer(np.uint32(0x7FC00002).tobytes(), np.float32)[0]
    nans = np.tile(rows[:4], (3, 1))
    nans[:4, -1], nans[4:8, -1], nans[8:, -1] = nan_a, nan_b, nan_a
    vertices = np.vstack([rows, last_differs, signed, signed, nans, np.zeros((3, dim))])
    sorted_vtx, _ = compute_sort_permutation(vertices)
    nodup = flag_first_occurrences(sorted_vtx)
    bits = vertex_bits(sorted_vtx)
    assert nodup.sum() == len(np.unique(vertex_bits(vertices), axis=0))
    assert nodup[0] and np.array_equal(nodup[1:], np.any(bits[1:] != bits[:-1], axis=1))
