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
    # the list is the concatenation's only holder: with the inputs dropped, a temporary
    # input list is freed before the sort, and the stacked rows after it (Python 3.11+)
    held = [_concatenation(meshes)]
    del meshes, m
    return reindex(held.pop())[0]


def _concatenation(meshes: list[Mesh]) -> Mesh:
    """One mesh of all vertex and element arrays, each mesh's indices offset by the
    vertex count before it; the indices are written straight into the stacked array."""
    vertices = np.vstack([m.vertices for m in meshes])
    elements = np.empty((sum(m.n_elements for m in meshes), meshes[0].arity), np.uint32)
    row = offset = 0
    for m in meshes:
        # cannot wrap: every index is below its mesh's vertex count and total < 2**32
        np.add(m.elements, np.uint32(offset), out=elements[row:row + m.n_elements])
        row += m.n_elements
        offset += m.n_vertices
    return Mesh._adopt(vertices, elements)


def soup_to_mesh(soup: np.ndarray) -> Mesh:
    """Build a compact mesh from value-carrying elements.

    ``soup`` has shape ``(m, arity, dim)``.  A dummy mesh with trivial
    indexing ``[(0..K-1), (K..2K-1), ...]`` is re-indexed into shared form;
    dereferencing the result reproduces the soup exactly.

    The dummy mesh reads the soup's rows in place, and this call keeps no
    reference to the soup while ``reindex`` runs.  A soup passed as a
    temporary, as in ``soup_to_mesh(dereference(mesh))``, is therefore freed
    after the sort on Python 3.11 or later, as ``reindex`` frees a temporary
    mesh; a soup the caller still holds is kept, and is never modified.
    """
    arr = vertex_rows(soup, "soup", ndim=3)
    m, arity, dim = arr.shape
    elements = np.arange(m * arity, dtype=np.uint32).reshape(m, arity)
    # the list is the dummy mesh's only holder here: pop hands it to reindex, whose
    # drop of its input then releases the soup
    held = [Mesh._adopt(arr.reshape(m * arity, dim), elements)]
    del soup, arr
    return reindex(held.pop())[0]


def subset(mesh: Mesh, keep) -> Mesh:
    """Compact mesh of the selected elements only.

    ``keep`` is either a boolean mask (one entry per element) or a strictly
    ascending list of element positions; either one indexes the element array
    directly, and both select the elements in source order.  The selected
    elements share the source's read-only vertex array, and re-indexing
    removes what is now unused.  As in :func:`merge`, a temporary source or
    ``keep`` is freed before the sort's later steps (Python 3.11+).
    """
    selector = _checked_selector(keep, mesh.n_elements)
    held = [Mesh._adopt(mesh.vertices, mesh.elements[selector])]
    del mesh, keep, selector
    return reindex(held.pop())[0]


def _checked_selector(keep, n_elements: int) -> np.ndarray:
    """``keep`` as a bool mask of ``n_elements`` entries, or as strictly ascending positions."""
    sel = np.asarray(keep)
    if sel.dtype == bool:
        return flag_array(sel, n_elements, "element mask")
    sel = index_array(sel, n_elements, "selector position", ndim=1)
    if not np.all(sel[1:] > sel[:-1]):
        raise MeshError("selector positions must be strictly ascending and unique")
    return sel
