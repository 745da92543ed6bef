"""Indexed-mesh data model: vertices, fixed-arity elements, validation.

A mesh is a vertex array of shape ``(n, dim)`` (float32) plus an element
array of shape ``(m, arity)`` (uint32) indexing into it.  Vertices are
compared on their raw bit patterns, lexicographically by component: this is
a strict total order (unlike numeric float comparison under NaN), it keeps
``-0.0`` and ``+0.0`` distinct, and it treats identical NaN payloads as
duplicates.  A "soup" is the dereferenced form: an ``(m, arity, dim)``
float32 array carrying every element's vertices by value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_VERTICES = 2**32


class MeshError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMeshError(MeshError):
    """A mesh failed validation (some element index is out of range)."""

    def __init__(self, issues):
        self.issues = list(issues)
        first = self.issues[0]
        super().__init__(
            f"{len(self.issues)} out-of-range index(es); first: element "
            f"{first.element} slot {first.slot} references vertex {first.index}"
        )


@dataclass(frozen=True)
class Issue:
    """One out-of-range index found by :func:`validate`."""

    element: int
    slot: int
    index: int


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable indexed mesh: both arrays are copied and frozen on construction."""

    vertices: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=np.float32, order="C")
        elements = np.array(_checked_indices(self.elements), dtype=np.uint32, order="C")
        if vertices.ndim != 2 or vertices.shape[1] < 1:
            raise MeshError(f"vertices must be (n, dim) with dim >= 1, got {vertices.shape}")
        if elements.ndim != 2 or elements.shape[1] < 1:
            raise MeshError(f"elements must be (m, arity) with arity >= 1, got {elements.shape}")
        if len(vertices) >= MAX_VERTICES:
            raise MeshError(f"vertex count {len(vertices)} exceeds 32-bit index range")
        vertices.flags.writeable = False
        elements.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def empty(cls, dim: int = 2, arity: int = 3) -> "Mesh":
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


def _checked_indices(elements) -> np.ndarray:
    """``elements`` as an integer array whose every value fits the uint32 index range."""
    elements = np.asarray(elements)
    if not elements.size:
        return elements
    if elements.dtype.kind not in "ui":
        raise MeshError(f"element indices must be integers, got dtype {elements.dtype}")
    if not np.can_cast(elements.dtype, np.uint32) and (
            elements.min() < 0 or elements.max() >= MAX_VERTICES):
        bad = (elements < 0) | (elements >= MAX_VERTICES)
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise MeshError(f"element index {int(elements[where])} at {where} "
                        "is outside the 32-bit index range")
    return elements


def vertex_bits(vertices: np.ndarray) -> np.ndarray:
    """uint32 view of a float32 vertex array; the basis of all comparisons."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float32)
    return vertices.view(np.uint32)


def validate(mesh: Mesh) -> list[Issue]:
    """Return one :class:`Issue` per out-of-range element index (empty = well-formed)."""
    bad = np.argwhere(mesh.elements >= mesh.n_vertices)
    return [Issue(int(e), int(s), int(mesh.elements[e, s])) for e, s in bad]


def require_valid(mesh: Mesh) -> None:
    if mesh.n_elements and int(mesh.elements.max()) >= mesh.n_vertices:
        raise InvalidMeshError(validate(mesh))


def dereference(mesh: Mesh) -> np.ndarray:
    """Expand a mesh into its soup: ``out[e, k] = vertices[elements[e, k]]``."""
    require_valid(mesh)
    return np.take(mesh.vertices, mesh.elements, axis=0)


def soups_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise elementwise equality of two soups."""
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(vertex_bits(a.reshape(-1, 1)), vertex_bits(b.reshape(-1, 1))))


def bitwise_equal(a: Mesh, b: Mesh) -> bool:
    """True iff both meshes have bit-identical vertex and element arrays."""
    return (a.vertices.shape == b.vertices.shape
            and a.elements.shape == b.elements.shape
            and bool(np.array_equal(vertex_bits(a.vertices), vertex_bits(b.vertices)))
            and bool(np.array_equal(a.elements, b.elements)))
