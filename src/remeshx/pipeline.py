"""The four-step re-indexing pipeline.

Step 1 marks used vertices and overwrites unused ones with a used vertex,
turning them into removable duplicates.  Step 2 key-value sorts the vertices
(carrying their original positions), flags first occurrences, and scans the
flags into compacted destinations.  Step 3 scatters the survivors into the
new vertex array.  Step 4 inverts the sort permutation and rewrites every
element index as ``new_idx[perm[i]]``.

All intermediates are returned in :class:`ReindexScratch` so they can be
inspected and asserted on directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MAX_VERTICES, Mesh, MeshError, require_valid, vertex_bits
from .primitives import bitwise_sort_order, inclusive_scan, scatter


@dataclass(frozen=True)
class ReindexScratch:
    """Intermediate arrays of one pipeline run.

    ``org_id`` records where each sorted vertex came from; ``perm`` is its
    inverse.  For a mesh with zero elements the pipeline short-circuits and
    all arrays except ``is_used`` are empty.
    """

    is_used: np.ndarray   # bool, one per input vertex
    org_id: np.ndarray    # uint32, one per sorted vertex
    nodup: np.ndarray     # bool, one per sorted vertex
    new_idx: np.ndarray   # uint32, one per sorted vertex
    perm: np.ndarray      # uint32, one per input vertex
    new_count: int


def mark_used(mesh: Mesh) -> np.ndarray:
    """Boolean flag per vertex: referenced by at least one element."""
    require_valid(mesh)
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.elements.reshape(-1)] = True
    return used


def overwrite_unused(vertices: np.ndarray, is_used: np.ndarray,
                     replacement: np.ndarray) -> np.ndarray:
    """Copy of ``vertices`` with every unused slot replaced by ``replacement``."""
    vertices = np.asarray(vertices, dtype=np.float32)
    is_used = np.asarray(is_used, dtype=bool)
    if len(vertices) != len(is_used):
        raise MeshError(f"length mismatch: {len(vertices)} vertices, {len(is_used)} flags")
    out = vertices.copy()
    out[~is_used] = replacement
    return out


def compute_sort_permutation(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable bitwise sort; returns (sorted vertices, origin of each sorted slot)."""
    vertices = np.asarray(vertices, dtype=np.float32)
    org_id = bitwise_sort_order(vertices)
    return np.take(vertices, org_id, axis=0), org_id


def flag_first_occurrences(sorted_vtx: np.ndarray) -> np.ndarray:
    """True where a sorted vertex differs bitwise from its predecessor."""
    nodup = np.ones(len(sorted_vtx), dtype=bool)
    if len(sorted_vtx) > 1:
        later = nodup[1:]
        later[:] = False
        for column in vertex_bits(sorted_vtx).T:
            later |= column[1:] != column[:-1]
    return nodup


def compute_new_indices(nodup: np.ndarray) -> tuple[np.ndarray, int]:
    """Scan the first-occurrence flags and subtract one: compacted destination per slot."""
    nodup = np.asarray(nodup)
    if nodup.size == 0:
        return np.empty(0, np.uint32), 0
    if not nodup[0]:
        raise MeshError("first sorted vertex must be flagged as a first occurrence")
    new_idx = inclusive_scan(nodup) - 1
    return new_idx, int(new_idx[-1]) + 1


def compact_vertices(sorted_vtx: np.ndarray, nodup: np.ndarray,
                     new_idx: np.ndarray, new_count: int) -> np.ndarray:
    """Scatter first occurrences to their compacted positions."""
    return scatter(np.asarray(sorted_vtx, dtype=np.float32), new_idx, nodup, new_count)


def invert_permutation(org_id: np.ndarray) -> np.ndarray:
    """perm with perm[org_id[i]] == i; rejects non-permutations via a coverage check."""
    org_id = np.asarray(org_id)
    n = len(org_id)
    if n >= MAX_VERTICES:
        raise MeshError(f"permutation of {n} entries exceeds 32-bit index range")
    # negative entries would wrap around in the scatter below and pass both checks
    if n and org_id.dtype.kind != "u" and int(org_id.min()) < 0:
        raise MeshError(f"entry {int(org_id.min())} out of range for permutation of {n}")
    if n and int(org_id.max()) >= n:
        raise MeshError(f"entry {int(org_id.max())} out of range for permutation of {n}")
    # n marks a slot no entry reached; it fits in uint32 because n < 2**32
    perm = np.full(n, n, dtype=np.uint32)
    perm[org_id] = np.arange(n, dtype=np.uint32)
    if n and int(perm.max()) >= n:
        raise MeshError("input is not a permutation (repeated entries)")
    return perm


def remap_elements(elements: np.ndarray, perm: np.ndarray,
                   new_idx: np.ndarray) -> np.ndarray:
    """Rewrite every index i as new_idx[perm[i]] (sort position, then compacted position)."""
    elements = np.asarray(elements, dtype=np.uint32)
    if len(perm) != len(new_idx):
        raise MeshError(f"perm/new_idx length mismatch: {len(perm)} vs {len(new_idx)}")
    if elements.size and int(elements.max()) >= len(perm):
        raise MeshError(f"element index {int(elements.max())} >= vertex count {len(perm)}")
    return new_idx[perm[elements]]


def reindex(mesh: Mesh) -> tuple[Mesh, ReindexScratch]:
    """Remove duplicate and unused vertices; returns the new mesh and all intermediates.

    The output has vertices in bitwise-sorted order, the same element count
    and arity, and an identical soup.  A mesh with zero elements collapses to
    the empty mesh (every vertex is unused).
    """
    require_valid(mesh)
    is_used = mark_used(mesh)
    if mesh.n_elements == 0:
        empty_u32 = np.empty(0, np.uint32)
        empty_bool = np.empty(0, bool)
        scratch = ReindexScratch(is_used, empty_u32, empty_bool, empty_u32, empty_u32, 0)
        return Mesh.empty(dim=mesh.dim, arity=mesh.arity), scratch

    replacement = mesh.vertices[int(mesh.elements[0, 0])]
    cleaned = overwrite_unused(mesh.vertices, is_used, replacement)
    sorted_vtx, org_id = compute_sort_permutation(cleaned)
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    new_vtx = compact_vertices(sorted_vtx, nodup, new_idx, new_count)
    perm = invert_permutation(org_id)
    new_elements = remap_elements(mesh.elements, perm, new_idx)
    scratch = ReindexScratch(is_used, org_id, nodup, new_idx, perm, new_count)
    return Mesh(new_vtx, new_elements), scratch
