import numpy as np
import pytest

import remeshx
from remeshx import InvalidMeshError, Issue, Mesh, MeshError, dereference, vertex_bits
from conftest import A, B, C, D, E, F, elems, vtx


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
