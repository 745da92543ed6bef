"""Malformed input to a public function raises MeshError (FormatError for the writers).

Each case once ended in a stray ValueError, IndexError, TypeError or
OverflowError, or returned wrong data without any error.  ``call`` receives the
path of a file that must not exist afterwards, so a refused write leaves
nothing behind.
"""
import numpy as np
import pytest

from remeshx import (FormatError, Mesh, MeshError, RandomMeshSpec, compute_new_indices,
                     compute_sort_permutation, fill_sequence, flag_first_occurrences,
                     grid_quads, inclusive_scan, invert_permutation, key_value_sort,
                     overwrite_unused, random_mesh, read_obj, run_bench, scatter, soups_equal,
                     subset, write_obj)
from remeshx.primitives import bitwise_sort_order
from conftest import WORKED_ELEMENTS, WORKED_VERTICES, vtx

ROW = np.array([3, 1, 2], np.float32)
TWO_ROWS = vtx((1, 1), (2, 2))
THREE_ROWS = vtx((1, 1), (2, 2), (3, 3))
WORKED = Mesh(np.array(WORKED_VERTICES, np.float32), np.array(WORKED_ELEMENTS, np.uint32))


def tri_with(component: int) -> Mesh:
    """A triangle whose first coordinate has the float32 bit pattern ``component``."""
    vertices = np.zeros((3, 2), np.uint32)
    vertices[0, 0] = component
    return Mesh(vertices.view(np.float32), [[0, 1, 2]])


CASES = [
    # index arrays
    pytest.param(lambda p: invert_permutation(np.array([[0, 1], [1, 0]])), MeshError, "axes",
                 id="invert_permutation-2d"),
    pytest.param(lambda p: invert_permutation(np.array([0.0, 1.0])), MeshError, "integers",
                 id="invert_permutation-float"),
    pytest.param(lambda p: scatter(TWO_ROWS, np.array([-1, 0]), [True, True], 2),
                 MeshError, "-1", id="scatter-negative-position"),
    pytest.param(lambda p: scatter(TWO_ROWS, np.array([1.0, 0.0]), [True, True], 2),
                 MeshError, "integers", id="scatter-float-positions"),
    pytest.param(lambda p: subset(WORKED, np.ones((4, 1), bool)), MeshError, "shape",
                 id="subset-2d-mask"),
    # flag arrays
    pytest.param(lambda p: compute_new_indices(np.ones((2, 2), bool)), MeshError, "shape",
                 id="compute_new_indices-2d-flags"),
    pytest.param(lambda p: overwrite_unused(THREE_ROWS, np.ones((3, 1), bool), THREE_ROWS[0]),
                 MeshError, "shape", id="overwrite_unused-2d-flags"),
    pytest.param(lambda p: scatter(THREE_ROWS, np.arange(3), np.ones((3, 1), bool), 1),
                 MeshError, "shape", id="scatter-2d-mask"),
    pytest.param(lambda p: overwrite_unused(THREE_ROWS, np.array([0.5, 1, 2]), THREE_ROWS[0]),
                 MeshError, "bool", id="overwrite_unused-float-flags"),
    # scalar arguments
    pytest.param(lambda p: scatter(TWO_ROWS, np.arange(2), [False, False], -1),
                 MeshError, "non-negative", id="scatter-negative-out_len"),
    pytest.param(lambda p: key_value_sort(TWO_ROWS, np.int64(3)), MeshError, "shape",
                 id="key_value_sort-0d-values"),
    pytest.param(lambda p: scatter(np.float32(1), np.array([0]), [True], 1), MeshError, "axis",
                 id="scatter-0d-values"),
    # vertex arrays
    pytest.param(lambda p: key_value_sort(ROW, np.arange(3)), MeshError, "axes",
                 id="key_value_sort-1d-keys"),
    pytest.param(lambda p: bitwise_sort_order(ROW), MeshError, "axes",
                 id="bitwise_sort_order-1d"),
    pytest.param(lambda p: compute_sort_permutation(ROW), MeshError, "axes",
                 id="compute_sort_permutation-1d"),
    pytest.param(lambda p: flag_first_occurrences(ROW), MeshError, "axes",
                 id="flag_first_occurrences-1d"),
    pytest.param(lambda p: Mesh([["a", "b"]], [[0, 0, 0]]), MeshError, "numeric",
                 id="Mesh-string-vertices"),
    pytest.param(lambda p: overwrite_unused(TWO_ROWS, [True, False], np.zeros(3, np.float32)),
                 MeshError, "replacement", id="overwrite_unused-replacement-shape"),
    pytest.param(lambda p: soups_equal(TWO_ROWS, TWO_ROWS), MeshError, "axes",
                 id="soups_equal-not-a-soup"),
    # scans and sequences
    pytest.param(lambda p: inclusive_scan(np.array([2**32], np.int64)), MeshError, "32-bit",
                 id="inclusive_scan-total-too-large"),
    pytest.param(lambda p: inclusive_scan([-1]), MeshError, "32-bit",
                 id="inclusive_scan-negative-total"),
    pytest.param(lambda p: inclusive_scan([-1, 1]), MeshError, "32-bit",
                 id="inclusive_scan-negative-prefix"),
    pytest.param(lambda p: inclusive_scan([0.5, 0.7]), MeshError, "bool or integers",
                 id="inclusive_scan-float-flags"),
    pytest.param(lambda p: fill_sequence(-1), MeshError, "non-negative",
                 id="fill_sequence-negative"),
    pytest.param(lambda p: fill_sequence(2.5), MeshError, "integer", id="fill_sequence-fraction"),
    pytest.param(lambda p: Mesh.empty(dim=-1), MeshError, "dim", id="Mesh.empty-negative-dim"),
    pytest.param(lambda p: Mesh.empty(arity=-1), MeshError, "arity",
                 id="Mesh.empty-negative-arity"),
    # size arguments
    pytest.param(lambda p: fill_sequence(True), MeshError, "integer", id="fill_sequence-bool"),
    pytest.param(lambda p: grid_quads(2.5), MeshError, "integer", id="grid_quads-fraction"),
    pytest.param(lambda p: Mesh.empty(dim=2.5), MeshError, "integer",
                 id="Mesh.empty-fractional-dim"),
    pytest.param(lambda p: run_bench([2], reps=2.5), MeshError, "integer",
                 id="run_bench-fractional-reps"),
    pytest.param(lambda p: read_obj(p, dim=2.0), MeshError, "integer",
                 id="read_obj-float-dim"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, n_base_vertices=-1)), MeshError,
                 "n_base_vertices", id="random_mesh-negative-base-vertices"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, n_elements=-1)), MeshError,
                 "n_elements", id="random_mesh-negative-elements"),
    # OBJ writes that could not be read back bit-exactly
    pytest.param(lambda p: write_obj(tri_with(0xFFC00000), p), FormatError, "NaN",
                 id="write_obj-negative-nan"),
    pytest.param(lambda p: write_obj(tri_with(0x7FC00123), p), FormatError, "NaN",
                 id="write_obj-payload-nan"),
    pytest.param(lambda p: write_obj(Mesh.empty(dim=3), p), FormatError, "dim=3",
                 id="write_obj-no-vertices-dim-3"),
    pytest.param(lambda p: write_obj(Mesh(TWO_ROWS, np.empty((0, 4), np.uint32)), p),
                 FormatError, "arity=4", id="write_obj-no-faces-arity-4"),
]


@pytest.mark.parametrize("call,error,match", CASES)
def test_malformed_input_fails_closed(tmp_path, call, error, match):
    path = tmp_path / "out.obj"
    with pytest.raises(error, match=match):
        call(path)
    assert not path.exists()
