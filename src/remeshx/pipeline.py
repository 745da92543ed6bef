"""The four-step re-indexing pipeline.

Step 1 of the paper marks used vertices and overwrites unused ones with a
used vertex, turning them into removable duplicates.  Step 2 key-value sorts
the vertices (carrying their original positions), flags first occurrences,
and scans the flags into compacted destinations.  Step 3 stream-compacts the
survivors into the new vertex array: the k-th first occurrence goes to slot k,
which, with the scan positions of step 2, is the paper's scatter.  Step 4
scatters each sorted slot's new index to its original position, then rewrites
every element index through that table.  :func:`compact_vertices` checks its
arguments, then calls the kernel that :func:`reindex` calls directly on the
arrays the steps before it made.

:func:`reindex` marks the used vertices but does not overwrite the others:
steps 2 to 4 run over the used vertices alone, since the overwritten ones
would only be removed again.  :func:`overwrite_unused` remains the paper's
step 1 for running the steps by hand.  :func:`reindex` keeps step 4's table
and returns it in :class:`ReindexScratch`, which rebuilds the paper's
full-length arrays from it exactly when they are first read, so they can be
inspected and asserted on directly.

:func:`reindex` reads the input's vertex rows for the last time in the sort
and then drops its reference to the input mesh.  On Python 3.11 or later, a
mesh passed as a temporary, as in ``reindex(read_bin(path))``, is therefore
freed before the later steps allocate; a mesh the caller still holds is kept,
and is never modified.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (MAX_VERTICES, Mesh, MeshError, blocks, flag_array, index_array,
                   put_rows, size_value, take_rows, vertex_bits, vertex_rows)
from .primitives import _sort_order_buffer, bitwise_sort_order, inclusive_scan


@dataclass(frozen=True, eq=False)
class ReindexScratch:
    """Intermediate arrays of one pipeline run.

    ``table`` is step 4's table: the new index of each used vertex, and 0 at
    each unused one.  ``org_id``, ``nodup`` and ``new_idx`` are the paper's
    arrays, one entry per input vertex, built on first access from the table:
    step 1 overwrites each unused vertex with vertex ``elements[0, 0]`` (new
    index ``replacement_idx``), and the stable sort of the table with that
    index filled in is the stable sort of the overwritten rows.  A mesh with
    zero elements has no used vertex and no ``elements[0, 0]``: ``table`` is
    all 0, ``org_id``, ``nodup`` and ``new_idx`` are empty, and
    ``replacement_idx`` is 0.  Records compare and hash by identity.
    """

    is_used: np.ndarray       # bool, one per input vertex
    new_count: int
    table: np.ndarray         # uint32, one per input vertex: new index if used, else 0
    replacement_idx: int      # new index of vertex elements[0, 0]; 0 with no elements

    def _filled(self) -> np.ndarray:
        """The table with ``replacement_idx`` at the unused vertices; empty with no elements."""
        if not self.new_count:  # no elements: no vertex is used, and none is sorted
            return self.table[:0]
        return np.where(self.is_used, self.table, np.uint32(self.replacement_idx))

    @cached_property
    def org_id(self) -> np.ndarray:
        """uint32, one per input vertex: where each sorted vertex came from."""
        # the filled table's stable order, sorted as rows of one uint32 component
        return bitwise_sort_order(self._filled()[:, None].view(np.float32))

    @cached_property
    def new_idx(self) -> np.ndarray:
        """uint32, one per input vertex: the compacted index of each sorted slot."""
        # the filled table in sorted order, the values its gather through org_id gives
        return np.sort(self._filled())

    @cached_property
    def nodup(self) -> np.ndarray:
        """bool, one per input vertex: True at the first sorted slot of each distinct row."""
        return flag_first_occurrences(self.new_idx[:, None].view(np.float32))

    @property
    def counts(self) -> dict[str, int]:
        """The run's vertex counts: ``vertices_in == unused + duplicates + vertices_out``."""
        n, used = len(self.is_used), int(np.count_nonzero(self.is_used))
        return {"vertices_in": n, "unused": n - used, "duplicates": used - self.new_count,
                "vertices_out": self.new_count}

    @cached_property
    def perm(self) -> np.ndarray:
        """Inverse of ``org_id``, one uint32 per input vertex; reindex never computes it."""
        return invert_permutation(self.org_id)


def mark_used(mesh: Mesh) -> np.ndarray:
    """Boolean flag per vertex: referenced by at least one element."""
    used = np.zeros(mesh.n_vertices, dtype=bool)
    put_rows(used, mesh.elements.reshape(-1), True)
    return used


def overwrite_unused(vertices: np.ndarray, is_used: np.ndarray,
                     replacement: np.ndarray) -> np.ndarray:
    """C-ordered copy of ``vertices`` with every unused row replaced by ``replacement``,
    written as one boolean row assignment."""
    vertices = vertex_rows(vertices, "vertices")
    replacement = vertex_rows(replacement, "replacement", ndim=1)
    is_used = flag_array(is_used, len(vertices), "used flags")
    if replacement.shape != vertices.shape[1:]:
        raise MeshError(f"replacement of shape {replacement.shape} for vertices {vertices.shape}")
    out = np.array(vertices, order="C")
    out[~is_used] = replacement
    return out


def compute_sort_permutation(vertices: np.ndarray,
                             used: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stable bitwise sort; returns (sorted vertices, origin of each sorted slot).

    With ``used`` (one bool per row) only the flagged rows are sorted and returned.

    The sort runs in a buffer of ``max(8, 4 * dim)`` bytes per sorted row beside
    its 4-byte order, which is returned as ``org_id``.  The sorted rows are
    gathered over the spent words by ``take_rows``, so the sort and the gather
    hold ``4 + max(8, 4 * dim)`` bytes per sorted row, plus temporaries of one
    block of :func:`~remeshx.mesh.blocks`.  The sorted rows are a view of that buffer.
    """
    vertices = vertex_rows(vertices, "vertices")
    dim = vertices.shape[1]
    org_id, buffer = _sort_order_buffer(vertices.view(np.uint32), used, max(2, dim))
    n = len(org_id)
    # the rows go over the spent words, so words and rows are never held together: a fresh
    # array beside the held words raised the tri soup op's peak RSS from 81.4 to 93.8 MiB
    sorted_vtx = buffer[:n * dim].view(np.float32).reshape(n, dim)
    take_rows(vertices, org_id, sorted_vtx)  # org_id holds distinct row ids
    return sorted_vtx, org_id


def flag_first_occurrences(sorted_vtx: np.ndarray) -> np.ndarray:
    """True where a sorted vertex differs bitwise from its predecessor."""
    bits = vertex_bits(sorted_vtx)
    nodup = np.ones(len(bits), dtype=bool)
    later = nodup[1:]
    later[:] = False
    for tile in blocks(bits.shape[1], len(bits)):
        later |= (bits[1:, tile] != bits[:-1, tile]).any(axis=1)
    return nodup


def compute_new_indices(nodup: np.ndarray) -> tuple[np.ndarray, int]:
    """Scan the first-occurrence flags and subtract one: compacted destination per slot."""
    nodup = flag_array(nodup, np.size(nodup), "first-occurrence flags")
    if nodup.size == 0:
        return np.empty(0, np.uint32), 0
    if not nodup[0]:
        raise MeshError("first sorted vertex must be flagged as a first occurrence")
    new_idx = inclusive_scan(nodup)
    new_idx -= 1
    return new_idx, int(new_idx[-1]) + 1


def compact_vertices(sorted_vtx: np.ndarray, nodup: np.ndarray,
                     new_idx: np.ndarray, new_count: int) -> np.ndarray:
    """Stream-compact the first occurrences: the k-th flagged row goes to slot k.

    With the scan positions of :func:`compute_new_indices` this is the paper's
    scatter of survivors to ``new_idx``.  ``MeshError`` is raised unless ``new_count``
    is the flag count and the flagged ``new_idx`` run 0, 1, ..., ``new_count - 1``; the
    unflagged ones are not checked.  Checks and ``take_rows`` gathers go a block of
    sorted rows at a time: one block's temporaries beyond the output.
    """
    sorted_vtx = vertex_rows(sorted_vtx, "sorted vertices")
    nodup = flag_array(nodup, len(sorted_vtx), "first-occurrence flags")
    new_idx = index_array(new_idx, MAX_VERTICES, "new index", ndim=1)
    if len(new_idx) != len(nodup):
        raise MeshError(f"{len(new_idx)} new indices for {len(nodup)} sorted vertices")
    n_flags = 0
    for block in blocks(len(nodup)):
        flagged = new_idx[block][np.flatnonzero(nodup[block])]
        if not np.array_equal(flagged, np.arange(n_flags, n_flags + len(flagged))):
            raise MeshError("flagged new indices must run 0, 1, ..., new_count - 1")
        n_flags += len(flagged)
    if size_value(new_count, "new vertex count") != n_flags:
        raise MeshError(f"new vertex count {new_count} for {n_flags} first occurrences")
    return _compact(sorted_vtx, nodup, new_count)


def _compact(sorted_vtx: np.ndarray, nodup: np.ndarray, new_count: int) -> np.ndarray:
    """Unchecked kernel of :func:`compact_vertices`: ``new_count`` must be the flag count."""
    out = np.empty((new_count, sorted_vtx.shape[1]), np.float32)
    offset = 0
    for block in blocks(len(nodup)):
        rows = np.flatnonzero(nodup[block])
        take_rows(sorted_vtx[block], rows, out[offset:offset + len(rows)])
        offset += len(rows)
    return out


def invert_permutation(org_id: np.ndarray) -> np.ndarray:
    """perm with perm[org_id[i]] == i; rejects non-permutations via a coverage check."""
    org_id = index_array(org_id, np.size(org_id), "permutation entry", ndim=1)
    n = len(org_id)
    if n >= MAX_VERTICES:
        raise MeshError(f"permutation of {n} entries exceeds 32-bit index range")
    # n marks a slot no entry reached; it fits in uint32 because n < 2**32
    perm = np.full(n, n, dtype=np.uint32)
    put_rows(perm, org_id, np.arange(n, dtype=np.uint32))
    if n and int(perm.max()) >= n:
        raise MeshError("input is not a permutation (repeated entries)")
    return perm


def reindex(mesh: Mesh) -> tuple[Mesh, ReindexScratch]:
    """Remove duplicate and unused vertices; returns the new mesh and all intermediates.

    The output has vertices in bitwise-sorted order, the same element count
    and arity, and an identical soup.  A mesh with zero elements takes the
    same steps: it has no used vertex, so the sort, scan and compaction run
    over zero rows, and the result is the empty mesh of its dim and arity.

    The input's vertex rows are last read by the sort, after which ``reindex``
    holds only the element indices.  Passing a temporary, as in
    ``reindex(read_bin(path))``, lets Python 3.11 or later free the rows before
    the remaining steps run; before 3.11 the calling frame keeps the argument
    alive until the call returns.
    """
    is_used = mark_used(mesh)
    # the unused rows are left out of the sort rather than overwritten into duplicates;
    # ReindexScratch sorts them back in where the paper's step 1 would have put them
    sorted_vtx, org_id = compute_sort_permutation(mesh.vertices, is_used)
    # the vertex rows are not read again: dropping the mesh frees them before the next
    # steps allocate when the caller passed a temporary (Python 3.11 or later)
    n_vertices, elements = mesh.n_vertices, mesh.elements
    del mesh
    nodup = flag_first_occurrences(sorted_vtx)
    new_idx, new_count = compute_new_indices(nodup)
    new_vtx = _compact(sorted_vtx, nodup, new_count)  # the steps above made its inputs
    del sorted_vtx, nodup  # free the sorted rows and flags before the table allocates
    # only the used positions are written; table[elements] never reads the unused zeros
    table = np.zeros(n_vertices, np.uint32)
    put_rows(table, org_id, new_idx)
    del org_id, new_idx  # the table holds what they said: free them before the remap
    scratch = ReindexScratch(is_used, new_count, table,
                             int(table[elements[0, 0]]) if len(elements) else 0)
    new_elements = np.empty(elements.shape, np.uint32)  # the owner, which the mesh freezes
    take_rows(table, elements.reshape(-1), new_elements.reshape(-1))
    # both arrays are fresh and referenced nowhere else, so the mesh adopts them uncopied
    return Mesh._adopt(new_vtx, new_elements), scratch
