"""Map-based serial re-indexer: the ground truth the pipeline is checked against.

Walks elements in order and slots within each element in order, appending
each never-seen vertex value to the output and reusing the recorded index on
every later occurrence.  Output vertices are therefore in first-use order
(the pipeline emits sorted order); the two are compared through
:func:`equivalent`, never by raw array equality.  Deliberately
single-threaded and unoptimized: it is the serial baseline.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh, dereference, soups_equal, vertex_bits
from .primitives import bitwise_sort_order


def reindex_serial(mesh: Mesh) -> Mesh:
    """Duplicate- and unused-free mesh with vertices in first-use order."""
    stride = mesh.dim * 4
    raw = mesh.vertices.tobytes()
    seen: dict[bytes, int] = {}
    out_vertices: list[bytes] = []
    out_elements: list[list[int]] = []
    for element in mesh.elements.tolist():
        row = []
        for index in element:
            key = raw[index * stride:(index + 1) * stride]
            slot = seen.get(key)
            if slot is None:
                slot = len(out_vertices)
                seen[key] = slot
                out_vertices.append(key)
            row.append(slot)
        out_elements.append(row)

    vertices = np.frombuffer(b"".join(out_vertices), dtype=np.float32)
    vertices = vertices.reshape(len(out_vertices), mesh.dim)
    elements = np.array(out_elements, dtype=np.uint32).reshape(len(out_elements), mesh.arity)
    return Mesh(vertices, elements)


def equivalent(a: Mesh, b: Mesh) -> bool:
    """Same soup (bitwise, elementwise) and same vertex multiset."""
    if not soups_equal(dereference(a), dereference(b)):
        return False
    if a.vertices.shape != b.vertices.shape:
        return False
    sorted_a = a.vertices[bitwise_sort_order(a.vertices)]
    sorted_b = b.vertices[bitwise_sort_order(b.vertices)]
    return bool(np.array_equal(vertex_bits(sorted_a), vertex_bits(sorted_b)))
