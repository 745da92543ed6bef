"""Malformed input to a public function raises MeshError (FormatError for the writers).

Each case once ended in a stray ValueError, IndexError, TypeError or
OverflowError, or returned wrong data without any error.  ``call`` receives the
path of a file that must not exist afterwards, so a refused write leaves
nothing behind.
"""
import numpy as np
import pytest

from remeshx import (FormatError, Mesh, MeshError, RandomMeshSpec, compact_vertices,
                     compute_new_indices, compute_sort_permutation, flag_first_occurrences,
                     grid_quads, inclusive_scan, invert_permutation, overwrite_unused,
                     random_mesh, read_obj, run_bench, soup_to_mesh, soups_equal, subset,
                     write_obj)
from remeshx.primitives import bitwise_sort_order
from conftest import WORKED_ELEMENTS, WORKED_VERTICES, vtx

ROW = np.array([3, 1, 2], np.float32)
TWO_ROWS = vtx((1, 1), (2, 2))
THREE_ROWS = vtx((1, 1), (2, 2), (3, 3))
WORKED = Mesh(np.array(WORKED_VERTICES, np.float32), np.array(WORKED_ELEMENTS, np.uint32))
# three sorted rows, the last two equal, with their scan-derived destinations
SORTED = vtx((1, 1), (2, 2), (2, 2))
NODUP = np.array([True, True, False])
NEW_IDX = np.array([0, 1, 1], np.uint32)


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
    pytest.param(lambda p: subset(WORKED, np.ones((4, 1), bool)), MeshError, "shape",
                 id="subset-2d-mask"),
    pytest.param(lambda p: subset(grid_quads(2), [[0], [2]]), MeshError, "axes",
                 id="subset-2d-positions"),
    pytest.param(lambda p: compact_vertices(SORTED, NODUP, NEW_IDX.astype(float), 2),
                 MeshError, "integers", id="compact_vertices-float-new_idx"),
    pytest.param(lambda p: compact_vertices(SORTED, NODUP, NEW_IDX[:2], 2), MeshError,
                 "2 new indices for 3", id="compact_vertices-length-mismatch"),
    pytest.param(lambda p: compact_vertices(SORTED, NODUP, np.array([1, 0, 0], np.uint32), 2),
                 MeshError, "0, 1, ...", id="compact_vertices-permuted-new_idx"),
    pytest.param(lambda p: compact_vertices(SORTED, NODUP, NEW_IDX, 3), MeshError,
                 "count 3 for 2", id="compact_vertices-new_count-off-by-one"),
    # flag arrays
    pytest.param(lambda p: compute_new_indices(np.ones((2, 2), bool)), MeshError, "shape",
                 id="compute_new_indices-2d-flags"),
    pytest.param(lambda p: overwrite_unused(THREE_ROWS, np.ones((3, 1), bool), THREE_ROWS[0]),
                 MeshError, "shape", id="overwrite_unused-2d-flags"),
    pytest.param(lambda p: overwrite_unused(THREE_ROWS, np.array([0.5, 1, 2]), THREE_ROWS[0]),
                 MeshError, "bool", id="overwrite_unused-float-flags"),
    pytest.param(lambda p: bitwise_sort_order(THREE_ROWS, [True, False]), MeshError, "shape",
                 id="bitwise_sort_order-short-used"),
    pytest.param(lambda p: bitwise_sort_order(THREE_ROWS, [1, 0, 1]), MeshError, "bool",
                 id="bitwise_sort_order-int-used"),
    pytest.param(lambda p: bitwise_sort_order(THREE_ROWS, np.ones((3, 1), bool)), MeshError,
                 "shape", id="bitwise_sort_order-2d-used"),
    pytest.param(lambda p: compute_sort_permutation(THREE_ROWS, np.ones(4, bool)), MeshError,
                 "shape", id="compute_sort_permutation-long-used"),
    pytest.param(lambda p: compute_sort_permutation(THREE_ROWS, [0.5, 1, 1]), MeshError, "bool",
                 id="compute_sort_permutation-float-used"),
    pytest.param(lambda p: compute_sort_permutation(THREE_ROWS, np.ones((1, 3), bool)),
                 MeshError, "shape", id="compute_sort_permutation-2d-used"),
    # vertex arrays
    pytest.param(lambda p: bitwise_sort_order(ROW), MeshError, "axes",
                 id="bitwise_sort_order-1d"),
    pytest.param(lambda p: compute_sort_permutation(ROW), MeshError, "axes",
                 id="compute_sort_permutation-1d"),
    pytest.param(lambda p: flag_first_occurrences(ROW), MeshError, "axes",
                 id="flag_first_occurrences-1d"),
    pytest.param(lambda p: Mesh([["a", "b"]], [[0, 0, 0]]), MeshError, "numeric",
                 id="Mesh-string-vertices"),
    pytest.param(lambda p: Mesh(np.array([[1e40, 0.0]]), [[0]]), MeshError, "beyond float32",
                 id="Mesh-vertex-beyond-float32"),
    pytest.param(lambda p: Mesh(np.array([[np.longdouble("1e400"), 0]]), [[0]]), MeshError,
                 r"1e\+400 at \(0, 0\) is beyond float32", id="Mesh-longdouble-beyond-float32"),
    pytest.param(lambda p: Mesh(np.array([[1 + 2j, 0]]), [[0]]), MeshError, "real",
                 id="Mesh-complex-vertices"),
    pytest.param(lambda p: soup_to_mesh(np.full((1, 3, 2), 1e40)), MeshError, "beyond float32",
                 id="soup_to_mesh-beyond-float32"),
    pytest.param(lambda p: compute_sort_permutation(np.array([[1e40]])), MeshError,
                 "beyond float32", id="compute_sort_permutation-beyond-float32"),
    pytest.param(lambda p: overwrite_unused(TWO_ROWS, [True, False], np.zeros(3, np.float32)),
                 MeshError, "replacement", id="overwrite_unused-replacement-shape"),
    pytest.param(lambda p: soups_equal(TWO_ROWS, TWO_ROWS), MeshError, "axes",
                 id="soups_equal-not-a-soup"),
    # scans and dimensions
    pytest.param(lambda p: inclusive_scan(np.array([1, 0, 1])), MeshError, "bool",
                 id="inclusive_scan-int-flags"),
    pytest.param(lambda p: inclusive_scan(np.array([2**32], np.int64)), MeshError, "bool",
                 id="inclusive_scan-total-too-large"),
    pytest.param(lambda p: inclusive_scan([-1]), MeshError, "bool",
                 id="inclusive_scan-negative-total"),
    pytest.param(lambda p: inclusive_scan([-1, 1]), MeshError, "bool",
                 id="inclusive_scan-negative-prefix"),
    pytest.param(lambda p: inclusive_scan(np.ones((2, 2), bool)), MeshError, "shape",
                 id="inclusive_scan-2d-flags"),
    pytest.param(lambda p: inclusive_scan([0.5, 0.7]), MeshError, "bool",
                 id="inclusive_scan-float-flags"),
    pytest.param(lambda p: Mesh.empty(dim=-1), MeshError, "dim", id="Mesh.empty-negative-dim"),
    pytest.param(lambda p: Mesh.empty(arity=-1), MeshError, "arity",
                 id="Mesh.empty-negative-arity"),
    # size arguments
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
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, coord_pool_size=0)), MeshError,
                 "coord_pool_size", id="random_mesh-empty-coord-pool"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, coord_pool_size=-3)), MeshError,
                 "coord_pool_size", id="random_mesh-negative-coord-pool"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, coord_pool_size=2.5)), MeshError,
                 "coord_pool_size", id="random_mesh-fractional-coord-pool"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, coord_pool_size=2**64)), MeshError,
                 "coord_pool_size", id="random_mesh-coord-pool-beyond-int64"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=-1)), MeshError, "seed",
                 id="random_mesh-negative-seed"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, dup_fraction="a")), MeshError,
                 "dup_fraction", id="random_mesh-string-fraction"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, unused_fraction=None)), MeshError,
                 "unused_fraction", id="random_mesh-none-fraction"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, dup_fraction=np.array([0.1, 0.2]))),
                 MeshError, "dup_fraction", id="random_mesh-array-fraction"),
    pytest.param(lambda p: random_mesh(RandomMeshSpec(seed=0, dup_fraction=np.array([0.5]))),
                 MeshError, "dup_fraction", id="random_mesh-one-element-array-fraction"),
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
