import os
import pickle
from dataclasses import fields

import numpy as np
import pytest

import remeshx
from remeshx import (InvalidMeshError, Issue, Mesh, MeshError, bitwise_equal, dereference,
                     read_bin, read_obj, reindex, vertex_bits, write_bin, write_obj)
from conftest import A, B, C, D, E, F, elems, feed_fifo, traced_peak, vtx


def test_validate_empty_mesh():
    assert Mesh.empty().n_elements == 0


def test_validate_worked_mesh_clean(worked_mesh):
    rebuilt = Mesh(worked_mesh.vertices, worked_mesh.elements)
    assert np.array_equal(rebuilt.elements, worked_mesh.elements)


def test_validate_reports_out_of_range():
    with pytest.raises(InvalidMeshError) as err:
        Mesh(vtx((0, 0), (1, 1)), elems((0, 1, 2)))
    assert err.value.issues == [Issue(element=0, slot=2, index=2)]


def test_validate_reports_every_bad_slot():
    with pytest.raises(InvalidMeshError) as err:
        Mesh(vtx((0, 0)), elems((0, 5, 7), (9, 0, 0)))
    assert err.value.issues == [Issue(0, 1, 5), Issue(0, 2, 7), Issue(1, 0, 9)]


def test_invalid_mesh_error_keeps_the_bad_slots_as_arrays():
    # 2^18 bad slots: the error holds index arrays, not one Issue object per slot
    n_bad = 1 << 18
    elements = np.full((n_bad // 4, 4), 7, np.uint32)
    elements[0, 0] = 0

    def build():
        with pytest.raises(InvalidMeshError) as err:
            Mesh(vtx((0, 0)), elements)
        return err.value

    peak = traced_peak(build)
    assert peak <= 40 * n_bad, f"{peak / n_bad:.1f} bytes per bad slot"
    error = build()
    assert str(error) == (f"{n_bad - 1} out-of-range index(es); "
                          "first: element 0 slot 1 references vertex 7")
    assert len(error.issues) == n_bad - 1
    assert error.issues[0] == Issue(0, 1, 7) and error.issues[-1] == Issue(n_bad // 4 - 1, 3, 7)


def test_dereference_worked_mesh(worked_mesh):
    soup = dereference(worked_mesh)
    assert soup.shape == (4, 3, 2)
    expected = [[A, B, C], [A, C, D], [C, E, F], [C, F, D]]
    assert soup.tolist() == [[list(v) for v in tri] for tri in expected]


def test_dereference_empty():
    assert dereference(Mesh.empty()).shape == (0, 3, 2)


def test_dereference_repeated_index():
    mesh = Mesh(vtx((2, 7)), elems((0, 0, 0)))
    assert dereference(mesh).tolist() == [[[2, 7]] * 3]


def test_mesh_rejects_index_past_vertex_count():
    with pytest.raises(InvalidMeshError) as err:
        Mesh(vtx((0, 0)), elems((0, 0, 1)))
    assert err.value.issues == [Issue(0, 2, 1)]
    with pytest.raises(InvalidMeshError) as err:
        Mesh(np.empty((0, 2), np.float32), np.array([[0, 0, 0]], np.int64))
    assert err.value.issues == [Issue(0, 0, 0), Issue(0, 1, 0), Issue(0, 2, 0)]


def test_mesh_arrays_are_frozen_copies():
    src = vtx((1, 2), (3, 4))
    mesh = Mesh(src, elems((0, 1, 0)))
    src[0, 0] = 99  # caller's array stays writable, mesh is unaffected
    assert mesh.vertices[0, 0] == 1
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5


def _frozen_with_live_view(array):
    view = array[...]
    array.flags.writeable = False
    assert view.flags.writeable
    return array, view


# each maker returns (array passed to Mesh, array or view written through afterwards)
CALLER_ARRAYS = {
    "writeable": lambda a: (a, a),
    "frozen-with-live-view": _frozen_with_live_view,
    "fortran-order": lambda a: (np.asfortranarray(a),) * 2,
    "float64": lambda a: (a.astype(np.float64 if a.dtype.kind == "f" else np.int64),) * 2,
}


@pytest.mark.parametrize("kind", sorted(CALLER_ARRAYS))
def test_mesh_copies_every_kind_of_caller_array(kind):
    vertices, vertex_handle = CALLER_ARRAYS[kind](vtx((1, 2), (3, 4), (5, 6)))
    elements, element_handle = CALLER_ARRAYS[kind](elems((0, 1, 2), (2, 1, 0)))
    mesh = Mesh(vertices, elements)
    vertex_handle[...] = 99
    element_handle[...] = 7
    assert mesh.vertices.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert mesh.elements.tolist() == [[0, 1, 2], [2, 1, 0]]
    for own, caller in ((mesh.vertices, vertices), (mesh.elements, elements)):
        assert not own.flags.writeable and own.flags.c_contiguous
        assert not np.shares_memory(own, caller)


def test_package_made_arrays_are_frozen_and_unshared(tmp_path, worked_mesh):
    path = tmp_path / "worked.rmx"
    write_bin(worked_mesh, path)
    read = read_bin(path)
    out, scratch = reindex(read)
    scratch_arrays = [getattr(scratch, f.name) for f in fields(scratch)
                      if isinstance(getattr(scratch, f.name), np.ndarray)]
    assert len(scratch_arrays) == 2
    for mesh, others in ((read, [worked_mesh.vertices, worked_mesh.elements]),
                         (out, [read.vertices, read.elements, *scratch_arrays])):
        for own in (mesh.vertices, mesh.elements):
            assert not own.flags.writeable
            assert not any(np.shares_memory(own, other) for other in others)
    assert not np.shares_memory(out.vertices, out.elements)


def _read_bin_from_fifo(mesh, tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs os.mkfifo")
    path, fifo = tmp_path / "m.rmx", tmp_path / "m.fifo"
    write_bin(mesh, path)
    os.mkfifo(fifo)
    writer = feed_fifo(fifo, path.read_bytes())
    read = read_bin(fifo)
    writer.join(timeout=10)
    return read


def _read_bin_from_file(mesh, tmp_path):
    write_bin(mesh, tmp_path / "m.rmx")
    return read_bin(tmp_path / "m.rmx")


def _read_obj_from_file(mesh, tmp_path):
    write_obj(mesh, tmp_path / "m.obj")
    return read_obj(tmp_path / "m.obj", dim=mesh.dim)


MESH_SOURCES = {
    "constructed": lambda mesh, tmp_path: Mesh(mesh.vertices.copy(), mesh.elements.copy()),
    "adopted": lambda mesh, tmp_path: Mesh._adopt(mesh.vertices.copy(), mesh.elements.copy()),
    "read_bin": _read_bin_from_file,
    "read_bin_fifo": _read_bin_from_fifo,
    "read_obj": _read_obj_from_file,
    "reindexed": lambda mesh, tmp_path: reindex(mesh)[0],
}


@pytest.mark.parametrize("source", sorted(MESH_SOURCES))
def test_mesh_arrays_cannot_be_made_writeable(source, tmp_path, worked_mesh):
    mesh = MESH_SOURCES[source](worked_mesh, tmp_path)
    expected = reindex(mesh)[0]
    # an array a caller could unfreeze would take an out-of-range index, which reindex
    # then meets as a bare IndexError
    for array in (mesh.vertices, mesh.elements):
        with pytest.raises(ValueError):
            array.flags.writeable = True
        with pytest.raises(ValueError):
            array[0, 0] = 7
    assert bitwise_equal(reindex(mesh)[0], expected)


def test_adopted_arrays_pass_every_gate():
    with pytest.raises(InvalidMeshError) as err:
        Mesh._adopt(vtx((0, 0)), elems((0, 0, 1)))
    assert err.value.issues == [Issue(0, 2, 1)]
    with pytest.raises(MeshError, match="integers"):
        Mesh._adopt(vtx((0, 0)), np.zeros((1, 3), np.float32))
    mesh = Mesh._adopt(np.zeros((2, 2)), np.array([[0, 1, 1]], np.int64))
    assert mesh.vertices.dtype == np.float32 and mesh.elements.dtype == np.uint32
    assert not mesh.vertices.flags.writeable and not mesh.elements.flags.writeable


def test_bitwise_identity_negative_zero():
    mesh = Mesh(vtx((0.0, 0.0), (-0.0, 0.0)), elems((0, 1, 0)))
    bits = vertex_bits(mesh.vertices)
    assert not np.array_equal(bits[0], bits[1])


def test_bitwise_order_is_total():
    rows = vtx((0.0, 0.0), (-0.0, 0.0), (np.nan, 1.0), (1.0, np.nan))
    bits = vertex_bits(rows)
    keys = [tuple(int(b) for b in row) for row in bits]
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if i != j:
                assert (a < b) != (b < a)


def test_mesh_shape_errors():
    with pytest.raises(MeshError):
        Mesh(np.zeros((3,), np.float32), elems((0, 1, 2)))
    with pytest.raises(MeshError):
        Mesh(vtx((0, 0)), np.zeros((2,), np.uint32))


def test_mesh_rejects_non_integer_indices():
    with pytest.raises(MeshError, match="integers"):
        Mesh(vtx((0, 0), (1, 1)), np.array([[0, 0.7, 1]]))
    with pytest.raises(MeshError, match="integers"):
        Mesh(vtx((0, 0)), np.array([[True, False, False]]))


@pytest.mark.parametrize("bad", [-1, -7, 2**32, 2**40])
def test_mesh_names_the_real_out_of_range_index(bad):
    with pytest.raises(MeshError, match=rf"index {bad} at \(1, 2\)"):
        Mesh(vtx((0, 0), (1, 1)), np.array([[0, 1, 0], [1, 0, bad]], np.int64))


def test_mesh_accepts_int_lists_and_empty_arrays():
    assert Mesh(vtx((0, 0), (1, 1)), [[0, 1, 1]]).elements.tolist() == [[0, 1, 1]]
    assert Mesh(vtx((0, 0)), np.empty((0, 3), np.uint32)).n_elements == 0
    assert Mesh(vtx((0, 0)), np.empty((0, 4))).arity == 4
    wide = np.array([[0, 1, 2]], np.uint64)
    assert Mesh(vtx((0, 0), (1, 1), (2, 2)), wide).elements.dtype == np.uint32


def test_every_export_resolves():
    assert [name for name in remeshx.__all__ if not hasattr(remeshx, name)] == []


def test_invalid_mesh_error_survives_pickling():
    with pytest.raises(InvalidMeshError) as err:
        Mesh(vtx((0, 0)), elems((0, 5, 7), (9, 0, 0)))
    error = err.value
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is InvalidMeshError and str(again) == str(error)
    assert again.issues == error.issues == [Issue(0, 1, 5), Issue(0, 2, 7), Issue(1, 0, 9)]
    for bad in (error, again):
        assert bad.element.tolist() == [0, 0, 1] and bad.slot.tolist() == [1, 2, 0]
        assert bad.index.tolist() == [5, 7, 9]
    with pytest.raises(AttributeError):
        error.index = np.zeros(3, np.uint32)
