"""Mesh composition built on the pipeline: merge, soup-to-mesh, subset."""
from __future__ import annotations

import numpy as np

from .mesh import MAX_VERTICES, Mesh, MeshError, flag_array, index_array, vertex_rows
from .pipeline import reindex


def merge(meshes: list[Mesh]) -> Mesh:
    """Concatenate vertex arrays, offset each mesh's indices, then re-index.

    The result's soup is the concatenation of the input soups.  All inputs
    must share arity and vertex dimension.
    """
    if not meshes:
        raise MeshError("merge needs at least one mesh")
    dim, arity = meshes[0].dim, meshes[0].arity
    for k, m in enumerate(meshes):
        if m.dim != dim or m.arity != arity:
            raise MeshError(
                f"mesh {k} has dim={m.dim} arity={m.arity}, expected dim={dim} arity={arity}")
    total = sum(m.n_vertices for m in meshes)
    if total >= MAX_VERTICES:
        raise MeshError(f"merged vertex count {total} exceeds 32-bit index range")

    vertices = np.vstack([m.vertices for m in meshes])
    shifted = []
    offset = 0
    for m in meshes:
        # cannot wrap: every index is below its mesh's vertex count and total < 2**32
        shifted.append(m.elements + np.uint32(offset))
        offset += m.n_vertices
    elements = np.vstack(shifted)
    return reindex(Mesh(vertices, elements))[0]


def soup_to_mesh(soup: np.ndarray) -> Mesh:
    """Build a compact mesh from value-carrying elements.

    ``soup`` has shape ``(m, arity, dim)``.  A dummy mesh with trivial
    indexing ``[(0..K-1), (K..2K-1), ...]`` is re-indexed into shared form;
    dereferencing the result reproduces the soup exactly.
    """
    arr = vertex_rows(soup, "soup", ndim=3)
    m, arity, dim = arr.shape
    vertices = arr.reshape(m * arity, dim)
    elements = np.arange(m * arity, dtype=np.uint32).reshape(m, arity)
    return reindex(Mesh(vertices, elements))[0]


def subset(mesh: Mesh, keep) -> Mesh:
    """Compact mesh of the selected elements only.

    ``keep`` is either a boolean mask (one entry per element) or a strictly
    ascending list of element positions.  The full vertex array is copied,
    unselected elements dropped, and re-indexing removes what is now unused.
    """
    mask = _normalize_selector(keep, mesh.n_elements)
    return reindex(Mesh(mesh.vertices, mesh.elements[mask]))[0]


def _normalize_selector(keep, n_elements: int) -> np.ndarray:
    sel = np.asarray(keep)
    if sel.dtype == bool:
        return flag_array(sel, n_elements, "element mask")
    sel = index_array(sel, n_elements, "selector position", ndim=1)
    if sel.size > 1 and not np.all(sel[1:] > sel[:-1]):
        raise MeshError("selector positions must be strictly ascending and unique")
    mask = np.zeros(n_elements, dtype=bool)
    mask[sel] = True
    return mask
