"""The benchmark workloads: seeded input files, the CLI op, and the oracle input.

Every workload is one file-to-file ``remeshx`` op.  Inputs are written by the
benchmark's own RMX1 writer, so their bytes do not change when the program's
writer does.  ``reindex_input`` rebuilds, from the generated arrays,
exactly the mesh that ``pipeline.reindex`` receives inside the op; the serial
oracle runs on it at set-up.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import remeshx as rx

_RMX_HEADER = struct.Struct("<4sIIQQ")


@dataclass
class Case:
    """One generated workload instance inside a work directory."""

    argvs: list[list[str]]            # remeshx CLI calls that make up one op
    outputs: list[str]                # files the op writes, relative to the work dir
    vertices_in: int                  # vertices the pipeline re-indexes per op
    reindex_input: Callable[[], rx.Mesh]
    expected_vertices_out: int | None  # exact output count for grid layouts
    input_bytes: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., Case]


def write_rmx(path: Path, vertices: np.ndarray, elements: np.ndarray) -> None:
    """RMX1 container as the README specifies it."""
    vertices = np.ascontiguousarray(vertices, dtype="<f4")
    elements = np.ascontiguousarray(elements, dtype="<u4")
    with open(path, "wb") as handle:
        handle.write(_RMX_HEADER.pack(b"RMX1", vertices.shape[1], elements.shape[1],
                                      len(vertices), len(elements)))
        handle.write(vertices.tobytes())
        handle.write(elements.tobytes())


def read_rmx(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = Path(path).read_bytes()
    magic, dim, arity, nv, ne = _RMX_HEADER.unpack_from(data)
    if magic != b"RMX1" or len(data) != _RMX_HEADER.size + 4 * (dim * nv + arity * ne):
        raise ValueError(f"{path}: not a well-formed RMX1 file")
    vertices = np.frombuffer(data, "<f4", dim * nv, _RMX_HEADER.size).reshape(nv, dim)
    elements = np.frombuffer(data, "<u4", arity * ne, _RMX_HEADER.size + 4 * dim * nv)
    return vertices.astype(np.float32), elements.reshape(ne, arity).astype(np.uint32)


def read_mesh(path: Path) -> rx.Mesh:
    return rx.Mesh(*read_rmx(path))


def build_grid_quads_rmx(workdir: Path, seed: int, n: int = 1024) -> Case:
    del seed  # the grid is fixed; the seed only varies the random workload
    mesh = rx.grid_quads(n)
    path = workdir / "in.rmx"
    write_rmx(path, mesh.vertices, mesh.elements)
    return Case(argvs=[["--quiet", "reindex", path.name, "out.rmx"]], outputs=["out.rmx"],
                vertices_in=mesh.n_vertices, reindex_input=lambda: mesh,
                expected_vertices_out=(n + 1) ** 2,
                input_bytes=path.stat().st_size)


def build_tri_soup3d_rmx(workdir: Path, seed: int, log2_tris: int = 19) -> Case:
    n_tris = 1 << log2_tris
    mesh = rx.random_mesh(rx.RandomMeshSpec(
        seed=seed, n_base_vertices=n_tris // 2, n_elements=n_tris, arity=3,
        dup_fraction=0.0, unused_fraction=0.0, coord_pool_size=256, dim=3))
    path = workdir / "in.rmx"
    write_rmx(path, mesh.vertices, mesh.elements)

    def soup_mesh() -> rx.Mesh:
        # soup_to_mesh re-indexes the dereferenced soup under trivial indexing
        return rx.Mesh(mesh.vertices[mesh.elements].reshape(-1, 3),
                       np.arange(3 * n_tris, dtype=np.uint32).reshape(n_tris, 3))

    return Case(argvs=[["--quiet", "soup", path.name, "out.rmx"]], outputs=["out.rmx"],
                vertices_in=3 * n_tris, reindex_input=soup_mesh,
                expected_vertices_out=None,
                input_bytes=path.stat().st_size)


WORKLOADS = {w.name: w for w in [
    Workload("grid_quads_rmx",
             "RMX1 reindex of grid_quads(1024): 5.2M vertices in, 20% unused, 60% duplicates; "
             "pipeline-bound, sort about half; seed-independent",
             build_grid_quads_rmx),
    Workload("tri_soup3d_rmx",
             "soup of 2^19 random 3-D triangles drawn from the seed: sort-heavy, random gathers, "
             "no unused vertices",
             build_tri_soup3d_rmx),
]}
