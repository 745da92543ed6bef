"""Randomized mesh generation and the cross-cutting consistency checker.

Random coordinates are drawn from a small integer lattice cast to float32,
so exact bitwise duplicates occur naturally and near-equal-float ambiguity
never arises.  ``check_all`` runs every invariant that binds the pipeline,
the serial baseline, and the composition ops together on one mesh and
reports pass/fail per property.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (Mesh, MeshError, bitwise_equal, dereference, size_value, soups_equal,
                   vertex_bits)
from .pipeline import reindex
from .serial import equivalent, reindex_serial


@dataclass(frozen=True)
class RandomMeshSpec:
    """Deterministic recipe for one random mesh (same seed, same bits)."""

    seed: int
    n_base_vertices: int = 30
    n_elements: int = 40
    arity: int = 3
    dup_fraction: float = 0.25
    unused_fraction: float = 0.25
    coord_pool_size: int = 16
    dim: int = 2


def random_mesh(spec: RandomMeshSpec) -> Mesh:
    """Lattice-coordinate mesh with controlled duplicate and unused fractions."""
    if not (0.0 <= spec.dup_fraction <= 1.0 and 0.0 <= spec.unused_fraction <= 1.0):
        raise MeshError("fractions must lie in [0, 1]")
    for name, low in (("n_base_vertices", 0), ("n_elements", 0), ("arity", 1), ("dim", 1)):
        size_value(getattr(spec, name), name, low)
    rng = np.random.default_rng(spec.seed)
    pool = max(1, spec.coord_pool_size)
    base = rng.integers(0, pool, size=(spec.n_base_vertices, spec.dim)).astype(np.float32)

    n_dups = round(spec.dup_fraction * spec.n_base_vertices)
    if n_dups and len(base):
        dups = base[rng.integers(0, len(base), size=n_dups)]
    else:
        dups = np.empty((0, spec.dim), np.float32)

    n_extra = round(spec.unused_fraction * spec.n_base_vertices)
    extra = rng.integers(0, pool, size=(n_extra, spec.dim)).astype(np.float32)

    vertices = np.vstack([base, dups, extra])
    referenced = len(base) + len(dups)
    if spec.n_elements and referenced:
        elements = rng.integers(0, referenced,
                                size=(spec.n_elements, spec.arity)).astype(np.uint32)
    else:
        elements = np.empty((0, spec.arity), np.uint32)
    return Mesh(vertices, elements)


def check_all(mesh: Mesh) -> dict[str, bool]:
    """Run every cross-cutting invariant on one mesh; returns property -> pass."""
    report: dict[str, bool] = {}
    out, scratch = reindex(mesh)

    report["oracle_equivalence"] = equivalent(out, reindex_serial(mesh))
    report["soup_preserved"] = soups_equal(dereference(out), dereference(mesh))

    bits = vertex_bits(out.vertices)
    report["no_duplicates"] = len(np.unique(bits, axis=0)) == out.n_vertices
    if mesh.n_elements:
        used = np.zeros(out.n_vertices, bool)
        used[out.elements.reshape(-1)] = True
        report["no_unused"] = bool(used.all())
    else:
        report["no_unused"] = out.n_vertices == 0

    report["size_bound"] = out.n_vertices <= mesh.n_vertices
    report["idempotent"] = bitwise_equal(reindex(out)[0], out)

    n = mesh.n_vertices
    coherent = scratch.new_count == out.n_vertices
    if mesh.n_elements:
        coherent &= bool(np.array_equal(scratch.perm[scratch.org_id],
                                        np.arange(n, dtype=np.uint32)))
        steps = np.diff(scratch.new_idx.astype(np.int64), prepend=-1)
        coherent &= bool(np.array_equal(steps == 1, scratch.nodup))
        coherent &= bool(np.all(steps >= 0))
    report["scratch_coherent"] = coherent

    report["deterministic_across_runs"] = bitwise_equal(reindex(mesh)[0], out)
    return report
