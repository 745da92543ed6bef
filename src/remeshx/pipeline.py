"""The four-step re-indexing pipeline.

Step 1 marks used vertices and overwrites unused ones with a used vertex,
turning them into removable duplicates.  Step 2 key-value sorts the vertices
(carrying their original positions), flags first occurrences, and scans the
flags into compacted destinations.  Step 3 scatters the survivors into the
new vertex array.  Step 4 scatters each sorted slot's new index to its
original position, then rewrites every element index through that table.

All intermediates are returned in :class:`ReindexScratch` so they can be
inspected and asserted on directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (MAX_VERTICES, Mesh, MeshError, flag_array, index_array, vertex_bits,
                   vertex_rows)
from .primitives import bitwise_sort_order, inclusive_scan, scatter


@dataclass(frozen=True)
class ReindexScratch:
    """Intermediate arrays of one pipeline run.

    ``org_id`` records where each sorted vertex came from; step 4 scatters
    ``new_idx`` through it.  For a mesh with zero elements the pipeline
    short-circuits and all arrays except ``is_used`` are empty.
    """

    is_used: np.ndarray   # bool, one per input vertex
    org_id: np.ndarray    # uint32, one per sorted vertex
    nodup: np.ndarray     # bool, one per sorted vertex
    new_idx: np.ndarray   # uint32, one per sorted vertex
    new_count: int

    @cached_property
    def perm(self) -> np.ndarray:
        """Inverse of ``org_id``, one uint32 per input vertex; reindex never computes it."""
        return invert_permutation(self.org_id)


def mark_used(mesh: Mesh) -> np.ndarray:
    """Boolean flag per vertex: referenced by at least one element."""
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.elements.reshape(-1)] = True
    return used


def overwrite_unused(vertices: np.ndarray, is_used: np.ndarray,
                     replacement: np.ndarray) -> np.ndarray:
    """Copy of ``vertices`` with every unused slot replaced by ``replacement``."""
    vertices = vertex_rows(vertices, "vertices")
    replacement = vertex_rows(replacement, "replacement", ndim=1)
    is_used = flag_array(is_used, len(vertices), "used flags")
    if replacement.shape != vertices.shape[1:]:
        raise MeshError(f"replacement of shape {replacement.shape} for vertices {vertices.shape}")
    out = vertices.copy()
    out[~is_used] = replacement
    return out


def compute_sort_permutation(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable bitwise sort; returns (sorted vertices, origin of each sorted slot)."""
    vertices = vertex_rows(vertices, "vertices")
    org_id = bitwise_sort_order(vertices)
    return np.take(vertices, org_id, axis=0), org_id


def flag_first_occurrences(sorted_vtx: np.ndarray) -> np.ndarray:
    """True where a sorted vertex differs bitwise from its predecessor."""
    bits = vertex_bits(sorted_vtx)
    nodup = np.ones(len(bits), dtype=bool)
    if len(bits) > 1:
        later = nodup[1:]
        later[:] = False
        for column in bits.T:
            later |= column[1:] != column[:-1]
    return nodup


def compute_new_indices(nodup: np.ndarray) -> tuple[np.ndarray, int]:
    """Scan the first-occurrence flags and subtract one: compacted destination per slot."""
    nodup = flag_array(nodup, np.size(nodup), "first-occurrence flags")
    if nodup.size == 0:
        return np.empty(0, np.uint32), 0
    if not nodup[0]:
        raise MeshError("first sorted vertex must be flagged as a first occurrence")
    new_idx = inclusive_scan(nodup) - 1
    return new_idx, int(new_idx[-1]) + 1


def compact_vertices(sorted_vtx: np.ndarray, nodup: np.ndarray,
                     new_idx: np.ndarray, new_count: int) -> np.ndarray:
    """Scatter first occurrences to their compacted positions."""
    return scatter(vertex_rows(sorted_vtx, "sorted vertices"), new_idx, nodup, new_count)


def invert_permutation(org_id: np.ndarray) -> np.ndarray:
    """perm with perm[org_id[i]] == i; rejects non-permutations via a coverage check."""
    org_id = index_array(org_id, np.size(org_id), "permutation entry", ndim=1)
    n = len(org_id)
    if n >= MAX_VERTICES:
        raise MeshError(f"permutation of {n} entries exceeds 32-bit index range")
    # n marks a slot no entry reached; it fits in uint32 because n < 2**32
    perm = np.full(n, n, dtype=np.uint32)
    perm[org_id] = np.arange(n, dtype=np.uint32)
    if n and int(perm.max()) >= n:
        raise MeshError("input is not a permutation (repeated entries)")
    return perm


def reindex(mesh: Mesh) -> tuple[Mesh, ReindexScratch]:
    """Remove duplicate and unused vertices; returns the new mesh and all intermediates.

    The output has vertices in bitwise-sorted order, the same element count
    and arity, and an identical soup.  A mesh with zero elements collapses to
    the empty mesh (every vertex is unused).
    """
    is_used = mark_used(mesh)
    if mesh.n_elements == 0:
        empty_u32 = np.empty(0, np.uint32)
        empty_bool = np.empty(0, bool)
        scratch = ReindexScratch(is_used, empty_u32, empty_bool, empty_u32, 0)
        return Mesh.empty(dim=mesh.dim, arity=mesh.arity), scratch

    replacement = mesh.vertices[int(mesh.elements[0, 0])]
    cleaned = overwrite_unused(mesh.vertices, is_used, replacement)
    sorted_vtx, org_id = compute_sort_permutation(cleaned)
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    new_vtx = compact_vertices(sorted_vtx, nodup, new_idx, new_count)
    # org_id is a permutation of every input position, so each slot is written
    table = np.empty(mesh.n_vertices, np.uint32)
    table[org_id] = new_idx
    scratch = ReindexScratch(is_used, org_id, nodup, new_idx, new_count)
    return Mesh(new_vtx, table[mesh.elements]), scratch
