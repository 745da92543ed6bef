import ast
import inspect

import numpy as np

from remeshx import (Mesh, RandomMeshSpec, bitwise_equal, equivalent, random_mesh, reindex,
                     reindex_serial, serial, vertex_bits)
from conftest import A, B, C, D, E, F, elems, vtx


def test_serial_worked(worked_mesh):
    out = reindex_serial(worked_mesh)
    # first-use order: triangles visit A, B, C, then D, then E, F
    assert out.vertices.tolist() == vtx(A, B, C, D, E, F).tolist()
    assert out.elements.tolist() == [[0, 1, 2], [0, 2, 3], [2, 4, 5], [2, 5, 3]]


def test_serial_empty():
    out = reindex_serial(Mesh.empty())
    assert out.n_vertices == 0 and out.n_elements == 0


def test_serial_only_unused_vertices():
    out = reindex_serial(Mesh(vtx(A, B), np.empty((0, 3), np.uint32)))
    assert out.n_vertices == 0 and out.n_elements == 0


def test_serial_no_dup_no_unused(worked_mesh):
    out = reindex_serial(worked_mesh)
    assert len(np.unique(vertex_bits(out.vertices), axis=0)) == out.n_vertices
    used = np.zeros(out.n_vertices, bool)
    used[out.elements.reshape(-1)] = True
    assert used.all()


def test_serial_idempotent(worked_mesh):
    once = reindex_serial(worked_mesh)
    assert bitwise_equal(reindex_serial(once), once)


def test_equivalent_reflexive(worked_mesh):
    assert equivalent(worked_mesh, worked_mesh)


def test_equivalent_pipeline_vs_serial(worked_mesh):
    parallel_out, _ = reindex(worked_mesh)
    serial_out = reindex_serial(worked_mesh)
    assert equivalent(parallel_out, serial_out)


def test_equivalent_detects_perturbation():
    a = Mesh(vtx(A, B, C), elems((0, 1, 2)))
    b = Mesh(vtx(A, B, (0, 2.5)), elems((0, 1, 2)))
    assert not equivalent(a, b)


def test_equivalent_detects_extra_unused_vertex():
    a = Mesh(vtx(A, B, C), elems((0, 1, 2)))
    b = Mesh(vtx(A, B, C, F), elems((0, 1, 2)))
    # same soup but different vertex multisets
    assert not equivalent(a, b)


def test_equivalent_runs_none_of_the_code_it_checks(monkeypatch):
    # the oracle orders the vertex rows with np.lexsort, so a broken pipeline sort
    # cannot make it agree with the pipeline; it imports from neither module
    meshes = [random_mesh(RandomMeshSpec(seed=seed, dup_fraction=[0, 0.25, 0.5][seed % 3],
                                         unused_fraction=[0, 0.25, 0.5][(seed // 3) % 3],
                                         arity=[3, 4][(seed // 9) % 2])) for seed in (0, 10, 23)]
    outs = [reindex(mesh)[0] for mesh in meshes]

    def broken(*args):
        raise AssertionError("the oracle ran the pipeline's sort")

    monkeypatch.setattr("remeshx.pipeline._sort_order_buffer", broken)
    for mesh, out in zip(meshes, outs):
        serial_out = reindex_serial(mesh)
        assert equivalent(out, serial_out) and equivalent(serial_out, out)
        # the same vertex count and soup, but one vertex changed that no element uses
        spare = Mesh(np.vstack([serial_out.vertices, serial_out.vertices[:1]]),
                     serial_out.elements)
        other = Mesh(np.vstack([serial_out.vertices, serial_out.vertices[:1] + 1]),
                     serial_out.elements)
        assert equivalent(spare, spare) and not equivalent(spare, other)
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(serial)))
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"pipeline", "primitives"}, imported
