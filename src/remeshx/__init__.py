"""remeshx: data-parallel re-indexing of indexed meshes.

Removes duplicate and unused vertices from triangle, quad, tet, or general
fixed-arity meshes using only parallel-friendly primitives (map, key-value
sort, inclusive scan, scatter), with a serial map-based baseline, mesh
composition ops, a benchmark harness, and OBJ/binary I/O.
"""
from .mesh import (InvalidMeshError, Issue, Mesh, MeshError, bitwise_equal,
                   dereference, soups_equal, vertex_bits)
from .primitives import inclusive_scan
from .pipeline import (ReindexScratch, compact_vertices, compute_new_indices,
                       compute_sort_permutation, flag_first_occurrences,
                       invert_permutation, mark_used, overwrite_unused,
                       reindex)
from .ops import merge, soup_to_mesh, subset
from .serial import equivalent, reindex_serial
from .bench import BenchRecord, grid_quads, run_bench, write_csv
from .fileio import FormatError, read_bin, read_obj, write_bin, write_obj
from .testing import RandomMeshSpec, check_all, random_mesh

__version__ = "0.1.0"

__all__ = [
    "Mesh", "Issue", "MeshError", "InvalidMeshError", "FormatError",
    "ReindexScratch", "BenchRecord", "RandomMeshSpec",
    "dereference", "soups_equal", "bitwise_equal", "vertex_bits",
    "inclusive_scan", "mark_used", "overwrite_unused", "compute_sort_permutation",
    "flag_first_occurrences", "compute_new_indices", "compact_vertices",
    "invert_permutation", "reindex",
    "merge", "soup_to_mesh", "subset",
    "reindex_serial", "equivalent",
    "grid_quads", "run_bench", "write_csv",
    "read_obj", "write_obj", "read_bin", "write_bin",
    "random_mesh", "check_all",
]
