import numpy as np
import pytest

from remeshx import (Mesh, MeshError, RandomMeshSpec, bitwise_equal, check_all,
                     dereference, random_mesh, reindex, soups_equal)


def test_random_mesh_deterministic():
    spec = RandomMeshSpec(seed=42)
    assert bitwise_equal(random_mesh(spec), random_mesh(spec))


def test_random_mesh_differs_across_seeds():
    assert not bitwise_equal(random_mesh(RandomMeshSpec(seed=1)),
                             random_mesh(RandomMeshSpec(seed=2)))


def test_random_mesh_respects_spec():
    spec = RandomMeshSpec(seed=7, n_base_vertices=20, n_elements=15, arity=4,
                          dup_fraction=0.5, unused_fraction=0.5)
    mesh = random_mesh(spec)
    assert mesh.arity == 4
    assert mesh.n_elements == 15
    assert mesh.n_vertices == 20 + 10 + 10
    # elements never touch the trailing unused block
    assert int(mesh.elements.max()) < 30


def test_random_mesh_no_dups_large_pool():
    spec = RandomMeshSpec(seed=3, n_base_vertices=12, n_elements=30,
                          dup_fraction=0.0, unused_fraction=0.0,
                          coord_pool_size=10_000)
    mesh = random_mesh(spec)
    out, _ = reindex(mesh)
    referenced = np.unique(mesh.elements.reshape(-1))
    distinct = len(np.unique(mesh.vertices[referenced].view(np.uint32), axis=0))
    assert out.n_vertices == distinct


def test_random_mesh_zero_elements():
    mesh = random_mesh(RandomMeshSpec(seed=5, n_elements=0))
    out, _ = reindex(mesh)
    assert out.n_vertices == 0 and out.n_elements == 0


def test_random_mesh_rejects_bad_fraction():
    with pytest.raises(MeshError, match="fractions"):
        random_mesh(RandomMeshSpec(seed=0, dup_fraction=1.5))


def test_check_all_worked(worked_mesh):
    report = check_all(worked_mesh)
    assert all(report.values()), report


def test_check_all_negative_control(worked_mesh):
    out, _ = reindex(worked_mesh)
    corrupted = np.array(out.elements)
    corrupted[0, 0] = (corrupted[0, 0] + 1) % out.n_vertices
    assert not soups_equal(dereference(Mesh(out.vertices, corrupted)),
                           dereference(worked_mesh))


def test_check_all_sample_of_seeds():
    for seed in range(25):
        spec = RandomMeshSpec(seed=seed,
                              dup_fraction=[0, 0.25, 0.5][seed % 3],
                              unused_fraction=[0, 0.25, 0.5][(seed // 3) % 3],
                              arity=[3, 4][seed % 2])
        report = check_all(random_mesh(spec))
        assert all(report.values()), (seed, report)


def test_check_all_on_criterion_4_meshes_at_a_block_of_3_rows(monkeypatch):
    # every blocked loop iterates mesh.blocks, so this one patch moves every block boundary:
    # criterion 4's meshes (45 vertices at the median) then cross many of them; its first
    # 500 seeds cover each dup, unused and arity combination 27 or 28 times
    monkeypatch.setattr("remeshx.mesh.BLOCK_ROWS", 3)
    fractions = [0.0, 0.25, 0.5]
    for seed in range(500):
        spec = RandomMeshSpec(seed=seed,
                              dup_fraction=fractions[seed % 3],
                              unused_fraction=fractions[(seed // 3) % 3],
                              arity=[3, 4][(seed // 9) % 2])
        report = check_all(random_mesh(spec))
        assert all(report.values()), (seed, report)
