"""Indexed-mesh data model: vertices, fixed-arity elements, input gates.

A mesh is a vertex array of shape ``(n, dim)`` (float32) plus an element
array of shape ``(m, arity)`` (uint32) indexing into it.  A :class:`Mesh` is
valid once built: construction rejects any element index ``>= n`` with an
:class:`InvalidMeshError` listing every bad slot.  Caller arrays are copied;
arrays the package has just made (read from a file, or returned by
``reindex``) are frozen in place, as are those of the temporary mesh an op
re-indexes and never returns.  Vertices are compared on their raw bit
patterns, lexicographically by component: this is a strict total order
(unlike numeric float comparison under NaN), it keeps ``-0.0`` and ``+0.0``
distinct, and it treats identical NaN payloads as duplicates.  A "soup" is
the dereferenced form: an ``(m, arity, dim)`` float32 array carrying every
element's vertices by value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_VERTICES = 2**32
# rows per block of the blocked gathers and of the sort's word building and composing
BLOCK_ROWS = 1 << 16


class MeshError(Exception):
    """Base class for all errors raised by this package."""


def index_array(values, bound: int, what: str, ndim: int | None = None) -> np.ndarray:
    """Gate for index arguments: an integer array, of ``ndim`` axes if given, entries in
    [0, bound).  Empty input of any dtype passes as uint32 (``np.asarray([])`` is float64)."""
    values = np.asarray(values)
    if ndim is not None and values.ndim != ndim:
        raise MeshError(f"{what} array must have {ndim} axes, got shape {values.shape}")
    if not values.size:
        return values.astype(np.uint32)
    if values.dtype.kind not in "ui":
        raise MeshError(f"{what} must be integers, got dtype {values.dtype}")
    if values.dtype.kind == "u" and np.iinfo(values.dtype).max < bound:
        return values
    if (values.dtype.kind == "i" and values.min() < 0) or values.max() >= bound:
        where = tuple(int(i) for i in np.argwhere((values < 0) | (values >= bound))[0])
        raise MeshError(f"{what} {int(values[where])} at {where} is outside [0, {bound})")
    return values


def vertex_rows(values, what: str, ndim: int = 2) -> np.ndarray:
    """Gate for vertex arguments: a float32 array of ``ndim`` axes, last axis at least 1."""
    try:
        rows = np.asarray(values, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"{what} must be numeric: {exc}") from None
    if rows.ndim != ndim or rows.shape[-1] < 1:
        raise MeshError(f"{what} needs {ndim} axes and >= 1 component, got shape {rows.shape}")
    return rows


def size_value(n, what: str, low: int = 0) -> int:
    """Gate for size arguments: a Python or numpy integer, not bool, of at least ``low``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
        raise MeshError(f"{what} must be a non-negative integer >= {low}, got {n!r}")
    return int(n)


def flag_array(values, length: int, what: str) -> np.ndarray:
    """Gate for flag arguments: bool of shape ``(length,)``; empty input passes as bool."""
    flags = np.asarray(values)
    if not flags.size:
        flags = flags.astype(bool)
    if flags.dtype != bool or flags.shape != (length,):
        raise MeshError(f"{what}: need bool of shape ({length},), got {flags.dtype} {flags.shape}")
    return flags


class InvalidMeshError(MeshError):
    """Some element index is not below the mesh's vertex count.

    The bad slots are kept as three read-only array attributes, ``element``,
    ``slot`` and ``index``, one entry per bad slot in row-major order.  The
    message needs only their count and the first one, so the :class:`Issue`
    records are built when ``issues`` is first read.  Pickling carries the
    three arrays.
    """

    element = property(lambda self: self._bad_slots[0])
    slot = property(lambda self: self._bad_slots[1])
    index = property(lambda self: self._bad_slots[2])

    def __init__(self, element: np.ndarray, slot: np.ndarray, index: np.ndarray):
        self._bad_slots = (element, slot, index)
        super().__init__(
            f"{len(index)} out-of-range index(es); first: element "
            f"{element[0]} slot {slot[0]} references vertex {index[0]}"
        )

    def __reduce__(self):
        return type(self), self._bad_slots

    @cached_property
    def issues(self) -> list[Issue]:
        return [Issue(*bad) for bad in zip(*(a.tolist() for a in self._bad_slots))]


@dataclass(frozen=True)
class Issue:
    """One element index that names no vertex, carried by :class:`InvalidMeshError`."""

    element: int
    slot: int
    index: int


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable indexed mesh, valid once built, with indices < n_vertices.

    Caller arrays are copied; ``_adopt`` freezes arrays in place instead.  Either way
    the mesh holds views of a frozen owner, so ``flags.writeable = True`` raises.
    """

    vertices: np.ndarray
    elements: np.ndarray

    def __post_init__(self, fresh: bool = False):
        # np.asarray converts only where dtype or layout differ, so a fresh array is kept as is
        own = np.asarray if fresh else np.array
        vertices = own(vertex_rows(self.vertices, "vertices"), order="C")
        elements = own(index_array(self.elements, MAX_VERTICES, "element index", ndim=2),
                       dtype=np.uint32, order="C")
        if elements.shape[1] < 1:
            raise MeshError(f"elements must be (m, arity) with arity >= 1, got {elements.shape}")
        if len(vertices) >= MAX_VERTICES:
            raise MeshError(f"vertex count {len(vertices)} exceeds 32-bit index range")
        if elements.size and int(elements.max()) >= len(vertices):
            element, slot = np.nonzero(elements >= len(vertices))
            raise InvalidMeshError(element, slot, elements[element, slot])
        # freeze each owner and keep a view of it: numpy refuses to make that view writeable
        for name, array in (("vertices", vertices), ("elements", elements)):
            array.flags.writeable = False
            object.__setattr__(self, name, array.view())

    @classmethod
    def _adopt(cls, vertices: np.ndarray, elements: np.ndarray) -> "Mesh":
        """Build over arrays without copying them: arrays the package has just made and
        keeps no other reference to, or a temporary mesh that never leaves its op (it
        may view, but never writes, a caller's array).  Every gate and the index range
        check run as in ``Mesh(...)``.  A frozen caller array is no candidate for a
        returned mesh: it may still have a writeable view.
        """
        mesh = object.__new__(cls)
        object.__setattr__(mesh, "vertices", vertices)
        object.__setattr__(mesh, "elements", elements)
        mesh.__post_init__(fresh=True)
        return mesh

    @classmethod
    def empty(cls, dim: int = 2, arity: int = 3) -> "Mesh":
        dim, arity = size_value(dim, "empty mesh dim", 1), size_value(arity, "empty mesh arity", 1)
        return cls(np.empty((0, dim), np.float32), np.empty((0, arity), np.uint32))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def arity(self) -> int:
        return self.elements.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return (f"Mesh({self.n_vertices} vertices dim={self.dim}, "
                f"{self.n_elements} elements arity={self.arity})")


def vertex_bits(vertices: np.ndarray) -> np.ndarray:
    """uint32 view of a float32 vertex array; the basis of all comparisons."""
    return vertex_rows(vertices, "vertices").view(np.uint32)


def dereference(mesh: Mesh) -> np.ndarray:
    """Expand a mesh into its soup: ``out[e, k] = vertices[elements[e, k]]``.

    The corners are gathered ``BLOCK_ROWS`` at a time into the soup, so numpy's
    intp copy of the element indices is one block, not 8 bytes per corner.
    """
    soup = np.empty(mesh.elements.shape + (mesh.dim,), np.float32)
    rows, corners = soup.reshape(-1, mesh.dim), mesh.elements.reshape(-1)
    for start in range(0, len(corners), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        # a Mesh's indices are in range, so "clip" never clips; it skips numpy's buffered out copy
        np.take(mesh.vertices, corners[block], axis=0, out=rows[block], mode="clip")
    return soup


def soups_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise elementwise equality of two soups."""
    a, b = vertex_rows(a, "soup", ndim=3), vertex_rows(b, "soup", ndim=3)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint32), b.view(np.uint32)))


def bitwise_equal(a: Mesh, b: Mesh) -> bool:
    """True iff both meshes have bit-identical vertex and element arrays."""
    return (a.vertices.shape == b.vertices.shape
            and a.elements.shape == b.elements.shape
            and bool(np.array_equal(vertex_bits(a.vertices), vertex_bits(b.vertices)))
            and bool(np.array_equal(a.elements, b.elements)))
