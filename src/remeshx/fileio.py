"""Mesh file formats: Wavefront OBJ (text) and the RMX1 binary container.

OBJ is read permissively (v/f plus ignorable directives); group and material
directives are collected as element annotations for subset selection but do
not affect geometry.  The writer emits the shortest decimal that
round-trips each float32, so ``read_obj(write_obj(m))`` is bit-exact; the
writer refuses what the text cannot carry (see :func:`write_obj`).

RMX1 layout (little-endian): magic ``RMX1``, u32 dim, u32 arity, u64 vertex
count, u64 element count, vertices as dim x f32 each, elements as arity x u32
each.  The binary round trip is bit-exact for every mesh.
"""
from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .mesh import MAX_VERTICES, Mesh, MeshError, size_value, vertex_bits

_RMX_MAGIC = b"RMX1"
_RMX_HEADER = struct.Struct("<4sIIQQ")
_STREAM_CHUNK = 1 << 20
_OBJ_NAN_BITS = 0x7FC00000  # the float32 that read_obj makes of the text "nan"


class FormatError(MeshError):
    """Malformed or truncated mesh file."""


def _utf8_lines(handle, path):
    """The lines of a UTF-8 text ``handle``; undecodable bytes raise ``FormatError``."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_obj(path, dim: int | None = None, return_groups: bool = False):
    """Parse an OBJ file into a mesh.

    ``dim=None`` infers the dimension: 2 when no vertex line carries a z
    component, else 3.  ``dim=2`` truncates (drops z), ``dim=3`` pads missing
    z with 0.  With ``return_groups`` also returns a dict mapping each
    group/material name to the list of element positions it covers.
    """
    if dim is not None and size_value(dim, "OBJ dim") not in (2, 3):
        raise FormatError(f"dim must be 2 or 3, got {dim}")
    coords: list[list[float]] = []
    faces: list[list[int]] = []
    groups: dict[str, list[int]] = {}
    active_groups: list[str] = []
    active_material: list[str] = []
    active: list[str] = []  # distinct names over both, so a face is recorded once per name
    max_components = 0

    # utf-8-sig skips a leading byte-order mark, which would otherwise hide the first directive
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(_utf8_lines(handle, path), start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            kind = tokens[0]
            if kind == "v":
                if not 2 <= len(tokens) - 1 <= 4:
                    raise FormatError(f"{path}:{lineno}: vertex needs 2-4 coordinates")
                try:
                    row = [float(t) for t in tokens[1:4]]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad coordinate") from None
                max_components = max(max_components, len(row))
                coords.append(row)
            elif kind == "f":
                if len(tokens) - 1 < 3:
                    raise FormatError(f"{path}:{lineno}: face needs at least 3 indices")
                if len(tokens) - 1 > 4:
                    raise FormatError(f"{path}:{lineno}: faces of arity > 4 not supported")
                try:
                    raw = [int(t.split("/")[0]) for t in tokens[1:]]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad face index") from None
                face = []
                for value in raw:
                    if value > 0:
                        index = value - 1
                    elif value < 0:
                        index = len(coords) + value
                    else:
                        raise FormatError(f"{path}:{lineno}: OBJ indices are 1-based, got 0")
                    if not 0 <= index < len(coords):
                        raise FormatError(f"{path}:{lineno}: index {value} out of range")
                    face.append(index)
                if faces and len(face) != len(faces[0]):
                    raise FormatError(
                        f"{path}:{lineno}: mixed arity ({len(face)} vs {len(faces[0])})")
                for name in active:
                    groups[name].append(len(faces))
                faces.append(face)
            elif kind in ("g", "o", "usemtl"):
                # group/object and material annotations are orthogonal
                names = tokens[1:] if kind == "g" else tokens[1:2]
                if kind == "usemtl":
                    active_material = names
                else:
                    active_groups = names
                active = list(dict.fromkeys(active_groups + active_material))
                for name in names:
                    groups.setdefault(name, [])
            # vn/vt/s/mtllib and anything unknown: ignored

    if dim is None:
        dim = 2 if max_components <= 2 else 3
    vertices = np.zeros((len(coords), dim), dtype=np.float32)
    for i, row in enumerate(coords):
        vertices[i, :min(dim, len(row))] = row[:dim]
    arity = len(faces[0]) if faces else 3
    elements = np.array(faces, dtype=np.uint32).reshape(len(faces), arity)
    mesh = Mesh(vertices, elements)
    return (mesh, groups) if return_groups else mesh


def _shortest(value: np.float32) -> str:
    if not np.isfinite(value):
        return repr(float(value))
    return np.format_float_positional(value, unique=True, trim="0")


def write_obj(mesh: Mesh, path) -> None:
    """Write v then f lines (1-based indices), shortest round-trippable decimals.

    Refuses, before opening ``path``, the meshes :func:`read_obj` would read
    back differently: dim other than 2 or 3, arity other than 3 or 4, dim 3
    with no vertices or arity 4 with no elements (the file then reads back as
    dim 2 or arity 3), and a NaN other than 0x7fc00000 (every NaN is written
    as ``nan``, which loses its sign and payload).
    """
    if mesh.dim not in (2, 3) or mesh.arity not in (3, 4):
        raise FormatError(f"OBJ holds dim 2 or 3 and arity 3 or 4, "
                          f"got dim={mesh.dim} arity={mesh.arity}")
    if (mesh.n_vertices == 0 and mesh.dim != 2) or (mesh.n_elements == 0 and mesh.arity != 3):
        raise FormatError("an OBJ file without vertices or faces cannot record "
                          f"dim={mesh.dim} arity={mesh.arity}")
    lossy = np.isnan(mesh.vertices) & (vertex_bits(mesh.vertices) != _OBJ_NAN_BITS)
    if lossy.any():
        vertex, component = (int(i) for i in np.argwhere(lossy)[0])
        raise FormatError(f"vertex {vertex} component {component} is a NaN with sign or "
                          "payload bits, which OBJ's 'nan' cannot carry")
    with open(path, "w") as handle:
        for row in mesh.vertices:
            handle.write("v " + " ".join(_shortest(c) for c in row) + "\n")
        for element in mesh.elements:
            handle.write("f " + " ".join(str(int(i) + 1) for i in element) + "\n")


def write_bin(mesh: Mesh, path) -> None:
    """Write the RMX1 binary container."""
    with open(path, "wb") as handle:
        handle.write(_RMX_HEADER.pack(_RMX_MAGIC, mesh.dim, mesh.arity,
                                      mesh.n_vertices, mesh.n_elements))
        handle.write(np.ascontiguousarray(mesh.vertices, dtype="<f4"))
        handle.write(np.ascontiguousarray(mesh.elements, dtype="<u4"))


def read_bin(path) -> Mesh:
    """Read the RMX1 binary container; bit-exact inverse of :func:`write_bin`."""
    with open(path, "rb") as handle:
        header = handle.read(_RMX_HEADER.size)
        if len(header) < _RMX_HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        magic, dim, arity, n_vertices, n_elements = _RMX_HEADER.unpack(header)
        if magic != _RMX_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if dim < 1 or arity < 1:
            raise FormatError(f"{path}: invalid dim={dim} arity={arity}")
        if n_vertices >= MAX_VERTICES:
            raise FormatError(f"{path}: header promises {n_vertices} vertices, "
                              "beyond the 32-bit index range")
        n_coords = dim * n_vertices
        n_indices = arity * n_elements
        expected = 4 * (n_coords + n_indices)
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode):
            # check the header against the file before trusting it with an allocation
            if info.st_size - _RMX_HEADER.size < expected:
                raise FormatError(f"{path}: header promises {expected} payload bytes, "
                                  f"file holds {info.st_size - _RMX_HEADER.size}")
            payload = handle.read(expected + 1)
        else:
            # a pipe or device has no size to check, so grow the buffer only as data arrives
            payload = _read_upto(handle, expected + 1)
        if len(payload) < expected:
            raise FormatError(f"{path}: truncated payload")
        if len(payload) > expected:
            raise FormatError(f"{path}: trailing bytes after payload")
    vertices = np.frombuffer(payload, "<f4", n_coords)
    elements = np.frombuffer(payload, "<u4", n_indices, offset=4 * n_coords)
    return Mesh(vertices.reshape(n_vertices, dim), elements.reshape(n_elements, arity))


def _read_upto(handle, limit: int) -> bytearray:
    """Read until end of file or ``limit`` bytes, in chunks."""
    data = bytearray()
    while len(data) < limit:
        chunk = handle.read(min(limit - len(data), _STREAM_CHUNK))
        if not chunk:
            break
        data += chunk
    return data
