import weakref

import numpy as np
import pytest

from remeshx import (Mesh, MeshError, RandomMeshSpec, bitwise_equal, dereference, grid_quads,
                     mark_used, merge, random_mesh, read_bin, reindex, soup_to_mesh,
                     soups_equal, subset, write_bin)
from remeshx import ops, pipeline
from conftest import A, B, C, D, FREED_AFTER_THE_SORT_NEEDS_3_11, elems, traced_peak, vtx


def tri_soup_mesh():
    """2^16 random dim-3 triangles with no unused vertex: the soup op's benchmark input,
    smaller.  The soup spans several ``BLOCK_ROWS`` blocks, so a full-length temporary
    shows in a traced peak; at 2^12 triangles a single block hides it.
    """
    n_tris = 1 << 16
    return random_mesh(RandomMeshSpec(seed=3, n_base_vertices=n_tris // 2, n_elements=n_tris,
                                      dup_fraction=0.0, unused_fraction=0.0,
                                      coord_pool_size=256, dim=3))


def spy_on_the_scan(monkeypatch, owners):
    """Patch the scan step to record, per reindex call, whether ``owners[-1]`` is alive:
    a weak reference, or any callable that returns None once its objects are freed."""
    alive = []

    def spy(nodup, real=pipeline.compute_new_indices):
        alive.append(owners[-1]() is not None)
        return real(nodup)

    monkeypatch.setattr(pipeline, "compute_new_indices", spy)
    return alive


def watch(owners, arrays):
    """Append to ``owners`` a callable that returns None once every array's owner is freed."""
    refs = [weakref.ref(array.base) for array in arrays]
    owners.append(lambda: any(ref() is not None for ref in refs) or None)


def quad(x0, y0):
    """Unit quad with corners at (x0, y0)..(x0+1, y0+1), own vertex storage."""
    return Mesh(vtx((x0, y0), (x0 + 1, y0), (x0 + 1, y0 + 1), (x0, y0 + 1)),
                elems((0, 1, 2, 3)))


def test_merge_single_equals_reindex(worked_mesh):
    assert bitwise_equal(merge([worked_mesh]), reindex(worked_mesh)[0])


def test_merge_two_quads_sharing_an_edge():
    merged = merge([quad(0, 0), quad(1, 0)])
    assert merged.n_vertices == 6  # 8 in, 2 shared corners welded
    assert merged.n_elements == 2
    expected = np.vstack([dereference(quad(0, 0)), dereference(quad(1, 0))])
    assert soups_equal(dereference(merged), expected)


def test_merge_empties():
    merged = merge([Mesh.empty(), Mesh.empty()])
    assert merged.n_vertices == 0 and merged.n_elements == 0


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_merge_frees_its_concatenation_after_the_sort(monkeypatch):
    pieces = [random_mesh(RandomMeshSpec(seed=s, n_elements=30)) for s in range(3)]
    owners = []

    def sort_spy(vertices, used=None, real=pipeline.compute_sort_permutation):
        owners.append(weakref.ref(vertices.base))
        return real(vertices, used)

    monkeypatch.setattr(pipeline, "compute_sort_permutation", sort_spy)
    alive = spy_on_the_scan(monkeypatch, owners)
    merged = merge(pieces)
    # the stacked vertex rows are gone before the scan
    assert alive == [False]
    expected = np.vstack([dereference(m) for m in pieces])
    assert soups_equal(dereference(merged), expected)


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_merge_frees_a_temporary_input_list_before_the_scan(monkeypatch):
    owners = []

    def pieces():
        out = [random_mesh(RandomMeshSpec(seed=s, n_elements=30)) for s in range(3)]
        watch(owners, [m.vertices for m in out])
        return out

    alive = spy_on_the_scan(monkeypatch, owners)
    merged = merge(pieces())
    held = pieces()
    before = [(m.vertices.copy(), m.elements.copy()) for m in held]
    again = merge(held)
    # every input of a temporary list is gone before the scan; a held list is kept intact
    assert alive == [False, True]
    for m, (vertices, elements) in zip(held, before):
        assert np.array_equal(m.vertices.view(np.uint32), vertices.view(np.uint32))
        assert np.array_equal(m.elements, elements)
    assert bitwise_equal(merged, again)


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_merge_of_temporary_tiles_peaks_as_reindex_of_their_concatenation():
    # four grid_quads(256) tiles sharing borders: held through the sort, the inputs
    # put the peak at 1.49x that of re-indexing their concatenation
    grid = grid_quads(256)

    def tiles():
        return [Mesh(grid.vertices + np.array(shift, np.float32), grid.elements)
                for shift in ((0, 0), (256, 0), (0, 256), (256, 256))]

    peak = traced_peak(lambda: merge(tiles()))
    reference = traced_peak(lambda: reindex(ops._concatenation(tiles())))
    assert peak <= 1.05 * reference, f"peak {peak / reference:.2f}x reindex's"


def test_merge_rejects_mixed_arity():
    tri = Mesh(vtx(A, B, C), elems((0, 1, 2)))
    with pytest.raises(MeshError):
        merge([tri, quad(0, 0)])


def test_merge_rejects_empty_list():
    with pytest.raises(MeshError):
        merge([])


def test_merge_soup_concatenation_law():
    pieces = [random_mesh(RandomMeshSpec(seed=s, arity=4)) for s in range(4)]
    merged = merge(pieces)
    expected = np.vstack([dereference(m) for m in pieces])
    assert soups_equal(dereference(merged), expected)


def test_soup_to_mesh_worked(worked_mesh):
    soup = dereference(worked_mesh)
    rebuilt = soup_to_mesh(soup)
    assert rebuilt.n_vertices == 6
    assert soups_equal(dereference(rebuilt), soup)


def test_soup_to_mesh_empty():
    rebuilt = soup_to_mesh(np.empty((0, 3, 2), np.float32))
    assert rebuilt.n_vertices == 0 and rebuilt.n_elements == 0


def test_soup_to_mesh_two_identical_triangles():
    tri = [list(A), list(B), list(C)]
    rebuilt = soup_to_mesh(np.array([tri, tri], np.float32))
    assert rebuilt.n_vertices == 3
    assert rebuilt.elements[0].tolist() == rebuilt.elements[1].tolist()


def test_soup_to_mesh_of_the_soup_equals_reindex():
    # the soup uses every vertex, so this checks reindex's used-rows sort against its full sort
    rng = np.random.default_rng(2024)
    for seed in range(300):
        mesh = random_mesh(RandomMeshSpec(
            seed=seed, n_base_vertices=int(rng.integers(1, 60)),
            n_elements=int(rng.integers(0, 40)), arity=int(rng.integers(3, 5)),
            dup_fraction=float(rng.random()), unused_fraction=float(rng.random()),
            coord_pool_size=int(rng.choice([2, 16, 10**6])), dim=int(rng.integers(1, 5))))
        assert bitwise_equal(soup_to_mesh(dereference(mesh)), reindex(mesh)[0]), seed


def test_soup_to_mesh_rejects_ragged():
    with pytest.raises(MeshError):
        soup_to_mesh([[[0, 0], [1, 1], [2, 2]], [[0, 0], [1, 1]]])


def test_subset_all(worked_mesh):
    out = subset(worked_mesh, np.arange(4))
    assert bitwise_equal(out, reindex(worked_mesh)[0])


def test_subset_none(worked_mesh):
    out = subset(worked_mesh, np.zeros(4, bool))
    assert out.n_vertices == 0 and out.n_elements == 0


ZERO_ELEMENT_OPS = ["reindex", "merge", "subset_mask", "subset_positions", "soup"]


@pytest.mark.parametrize("op, n_vertices", [(op, n) for op in ZERO_ELEMENT_OPS for n in (0, 5)
                                            if not (op == "soup" and n)])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_zero_elements_run_the_main_chain(dim, arity, op, n_vertices, monkeypatch):
    # an empty soup has no vertices, so soup runs with 0 only
    rng = np.random.default_rng(100 * dim + 10 * arity + n_vertices)
    vertices = rng.integers(-2, 3, size=(n_vertices, dim)).astype(np.float32)
    source = Mesh(vertices, rng.integers(0, max(n_vertices, 1),
                                         size=(3 if n_vertices else 0, arity)))
    bare = Mesh(vertices, np.empty((0, arity), np.uint32))
    calls = []

    def recording_reindex(mesh):
        out, scratch = reindex(mesh)
        calls.append((mark_used(mesh), scratch))
        return out, scratch

    monkeypatch.setattr(ops, "reindex", recording_reindex)
    run = {"reindex": lambda: recording_reindex(bare)[0],
           "merge": lambda: merge([bare]),
           "subset_mask": lambda: subset(source, np.zeros(source.n_elements, bool)),
           "subset_positions": lambda: subset(source, []),
           "soup": lambda: soup_to_mesh(np.empty((0, arity, dim), np.float32))}[op]
    out = run()
    assert bitwise_equal(out, Mesh.empty(dim, arity))
    [(is_used, scratch)] = calls
    assert scratch.new_count == 0
    for array in (scratch.org_id, scratch.nodup, scratch.new_idx, scratch.perm):
        assert array.size == 0
    assert np.array_equal(scratch.is_used, is_used)


def test_subset_worked_first_two(worked_mesh):
    out = subset(worked_mesh, [0, 1])
    assert out.n_vertices == 4
    assert out.vertices.tolist() == vtx(A, B, C, D).tolist()
    assert soups_equal(dereference(out), dereference(worked_mesh)[:2])


def test_subset_mask_matches_positions(worked_mesh):
    mask = np.array([True, False, True, False])
    assert bitwise_equal(subset(worked_mesh, mask), subset(worked_mesh, [0, 2]))


def test_subset_rejects_bad_selectors(worked_mesh):
    with pytest.raises(MeshError):
        subset(worked_mesh, [0, 9])
    with pytest.raises(MeshError):
        subset(worked_mesh, [2, 1])
    with pytest.raises(MeshError):
        subset(worked_mesh, np.array([True, False]))


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_subset_frees_a_temporary_source_before_the_scan(monkeypatch):
    owners = []

    def source():
        out = random_mesh(RandomMeshSpec(seed=6, n_elements=40))
        watch(owners, [out.vertices, out.elements])
        return out

    alive = spy_on_the_scan(monkeypatch, owners)
    keep = np.arange(0, 40, 3)
    out = subset(source(), keep)
    held = source()
    again = subset(held, keep)
    # a temporary source is gone before the scan; a held one is kept
    assert alive == [False, True]
    assert bitwise_equal(out, again)


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_subset_frees_temporary_positions_before_the_scan(monkeypatch):
    # int64 positions, as remeshx subset --group passes them: 8 B per selected element
    owners = []

    def positions():
        out = np.arange(0, 40, 3, dtype=np.int64)
        owners.append(weakref.ref(out))
        return out

    alive = spy_on_the_scan(monkeypatch, owners)
    mesh = random_mesh(RandomMeshSpec(seed=6, n_elements=40))
    out = subset(mesh, positions())
    held = positions()
    again = subset(mesh, held)
    # temporary positions are gone before the scan; held ones are kept
    assert alive == [False, True]
    assert bitwise_equal(out, again)


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_subset_of_a_temporary_source_peaks_as_reindex_of_its_selection(tmp_path):
    # half of grid_quads(512): held through the sort, the source put the peak at 1.40x
    # that of re-indexing the selected elements over the same vertices
    grid = grid_quads(512)
    half = np.arange(grid.n_elements) < grid.n_elements // 2
    write_bin(grid, tmp_path / "grid.rmx")
    write_bin(Mesh(grid.vertices, grid.elements[half]), tmp_path / "half.rmx")
    peak = traced_peak(lambda: subset(read_bin(tmp_path / "grid.rmx"), half))
    reference = traced_peak(lambda: reindex(read_bin(tmp_path / "half.rmx")))
    assert peak <= 1.05 * reference, f"peak {peak / reference:.2f}x reindex's"


def test_subset_soup_law():
    for seed in range(5):
        mesh = random_mesh(RandomMeshSpec(seed=seed, n_elements=12))
        keep = [e for e in range(mesh.n_elements) if (e + seed) % 3]
        out = subset(mesh, keep)
        assert soups_equal(dereference(out), dereference(mesh)[keep])


def test_soup_to_mesh_allocates_no_copy_of_the_soup():
    # every soup vertex is used; the pipeline's own arrays (sort words and order, sorted
    # rows, flags, table) peak near 2.1x the soup, and one more copy would pass 3.1x
    soup = np.random.default_rng(11).integers(0, 4, size=(1 << 16, 4, 4)).astype(np.float32)
    peak = traced_peak(soup_to_mesh, soup)
    assert peak <= 2.5 * soup.nbytes, f"peak {peak / soup.nbytes:.2f}x the soup"


def test_dereference_holds_one_block_of_indices_beyond_the_soup():
    # a gather in BLOCK_ROWS blocks of corners: 1.22x the soup, where one np.take of
    # every corner also copies the indices to intp, 8 B per corner, for 1.67x
    mesh = tri_soup_mesh()
    soup_bytes = mesh.n_elements * mesh.arity * mesh.dim * 4
    peak = traced_peak(dereference, mesh)
    assert peak <= 1.3 * soup_bytes, f"peak {peak / soup_bytes:.2f}x the soup"


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_soup_op_frees_the_soup_after_the_sort():
    # the soup CLI op: dereference, then soup_to_mesh of the temporary soup.  With the
    # soup freed after the sort the peak is 2.97x the soup; kept alive, it is 3.44x
    mesh = tri_soup_mesh()
    soup_bytes = mesh.n_elements * mesh.arity * mesh.dim * 4
    peak = traced_peak(lambda: soup_to_mesh(dereference(mesh)))
    assert peak <= 3.2 * soup_bytes, f"peak {peak / soup_bytes:.2f}x the soup"


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_soup_to_mesh_frees_a_temporary_soup_before_the_scan(monkeypatch):
    mesh = random_mesh(RandomMeshSpec(seed=5, n_elements=200, dim=3))
    owners = []

    def soup():
        out = dereference(mesh)
        owners.append(weakref.ref(out))
        return out

    alive = spy_on_the_scan(monkeypatch, owners)
    out = soup_to_mesh(soup())
    held = soup()
    before = held.copy()
    again = soup_to_mesh(held)
    # a temporary soup is gone before the scan; a held one is kept intact
    assert alive == [False, True]
    assert np.array_equal(held.view(np.uint32), before.view(np.uint32))
    assert bitwise_equal(out, again)


def test_soup_to_mesh_leaves_the_callers_soup_writeable_and_unchanged():
    soup = np.random.default_rng(12).integers(0, 3, size=(50, 3, 2)).astype(np.float32)
    soup[0, 0, 0] = -0.0
    before = soup.copy()
    rebuilt = soup_to_mesh(soup)
    assert soup.flags.writeable and np.array_equal(soup.view(np.uint32), before.view(np.uint32))
    soup[...] = 9  # the result shares nothing with the soup
    assert soups_equal(dereference(rebuilt), before)


def test_subset_leaves_the_source_unchanged_and_read_only(worked_mesh):
    vertices, elements = worked_mesh.vertices.copy(), worked_mesh.elements.copy()
    out = subset(worked_mesh, [0, 3])
    assert np.array_equal(worked_mesh.vertices.view(np.uint32), vertices.view(np.uint32))
    assert np.array_equal(worked_mesh.elements, elements)
    for array in (worked_mesh.vertices, worked_mesh.elements):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert not np.shares_memory(out.vertices, worked_mesh.vertices)
