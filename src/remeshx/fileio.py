"""Mesh file formats: Wavefront OBJ (text) and the RMX1 binary container.

OBJ is read permissively (v/f plus ignorable directives); group and material
directives are collected as element annotations for subset selection but do
not affect geometry.  The writer prints nine significant digits, within half a
float32 ulp, so ``read_obj(write_obj(m))`` is bit-exact; the writer refuses
what the text cannot carry (see :func:`write_obj`).

RMX1 layout (little-endian): magic ``RMX1``, u32 dim, u32 arity, u64 vertex
count, u64 element count, vertices as dim x f32 each, elements as arity x u32
each.  The binary round trip is bit-exact for every mesh.  :func:`read_bin`
checks the header against a regular file's size, then reads the payload
straight into the vertex and element arrays of the mesh it returns, which
are frozen in place.  From a pipe or device it reads in chunks up to the
promised size and copies the buffer into the mesh.  Both writers replace a regular
file only once the new one is written in full.
"""
from __future__ import annotations

import contextlib
import os
import stat
import struct

import numpy as np

from .mesh import MAX_VERTICES, Mesh, MeshError, blocks, size_value, vertex_bits

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
    A finite coordinate beyond the float32 range raises ``FormatError``.
    """
    if dim is not None and size_value(dim, "OBJ dim") not in (2, 3):
        raise FormatError(f"dim must be 2 or 3, got {dim}")
    coords: list[list[float]] = []  # x, y, z; a 2-D row gets z = 0
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
                    # a fourth (w) component is parsed, so a bad one is refused, then dropped
                    row = [float(t) for t in tokens[1:]]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad coordinate") from None
                coords.append(row[:3] + [0.0] * (3 - len(row)))
                max_components = max(max_components, len(tokens) - 1)
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
                    index = value - 1 if value > 0 else len(coords) + value  # 0 is out of range
                    if not 0 <= index < len(coords):
                        if not value:
                            raise FormatError(f"{path}:{lineno}: OBJ indices are 1-based, got 0")
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
    wide = np.array(coords, dtype=np.float64).reshape(len(coords), 3)[:, :dim]
    with np.errstate(over="ignore"):  # a finite coordinate that became inf is refused below
        vertices = wide.astype(np.float32)
    beyond = np.flatnonzero((np.isinf(vertices) & np.isfinite(wide)).any(axis=1))
    if len(beyond):
        raise FormatError(f"{path}: vertex {beyond[0] + 1} has a coordinate beyond float32")
    # np.array of the face rows owns its data, so the mesh can freeze it (a reshape would not)
    elements = np.array(faces if faces else np.empty((0, 3)), dtype=np.uint32)
    mesh = Mesh._adopt(vertices, elements)
    return (mesh, groups) if return_groups else mesh


def write_obj(mesh: Mesh, path) -> None:
    """Write v then f lines (1-based indices), coordinates as ``%.9g``.

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
    vertex_line = "v" + " %.9g" * mesh.dim + "\n"  # nine digits err by under half a float32 ulp
    face_line = "f" + " %d" * mesh.arity + "\n"
    with _replacing(path, "w") as handle:
        for rows in blocks(mesh.n_vertices):
            block = mesh.vertices[rows]
            handle.write(vertex_line * len(block) % tuple(block.ravel().tolist()))
        for rows in blocks(mesh.n_elements):
            block = mesh.elements[rows] + 1  # OBJ indices are 1-based
            handle.write(face_line * len(block) % tuple(block.ravel().tolist()))


def write_bin(mesh: Mesh, path) -> None:
    """Write the RMX1 binary container."""
    with _replacing(path, "wb") as handle:
        handle.write(_RMX_HEADER.pack(_RMX_MAGIC, mesh.dim, mesh.arity,
                                      mesh.n_vertices, mesh.n_elements))
        handle.write(np.ascontiguousarray(mesh.vertices, dtype="<f4"))
        handle.write(np.ascontiguousarray(mesh.elements, dtype="<u4"))


@contextlib.contextmanager
def _replacing(path, mode: str):
    """Open ``path`` for writing so that a failed write leaves it as it was.

    A regular file or a missing path is written to a temporary file beside it, which then
    replaces it, or is removed if the write fails.  A symlink is followed to the file it
    names.  A new file gets the mode ``open`` gives it under the umask, an existing one
    keeps its mode.  Anything else, such as a FIFO or a device, is written in place.
    """
    info = os.stat(path) if os.path.exists(path) else None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, mode) as handle:
            yield handle
        return
    target = os.path.realpath(path)
    temporary = f"{target}.{os.urandom(4).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:  # O_EXCL never overwrites a file; 0o666 under the umask is the mode open() gives
        fd = os.open(temporary, flags, 0o666)
    except OSError as exc:  # name the target, not the temporary
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, mode) as handle:
            if info is not None:
                os.chmod(temporary, stat.S_IMODE(info.st_mode))
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


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
        regular = stat.S_ISREG(info.st_mode)
        if regular:
            # check the header against the file before trusting it with an allocation
            if info.st_size - _RMX_HEADER.size < expected:
                raise FormatError(f"{path}: header promises {expected} payload bytes, "
                                  f"file holds {info.st_size - _RMX_HEADER.size}")
            # read straight into the mesh's own arrays, so the payload is copied once
            vertices = np.empty((n_vertices, dim), "<f4")
            elements = np.empty((n_elements, arity), "<u4")
            got = handle.readinto(vertices) + handle.readinto(elements)
            trailing = bool(handle.read(1))
        else:
            # a pipe or device has no size to check, so grow the buffer only as data arrives
            payload = _read_upto(handle, expected + 1)
            got, trailing = len(payload), len(payload) > expected
        if got < expected:
            raise FormatError(f"{path}: truncated payload")
        if trailing:
            raise FormatError(f"{path}: trailing bytes after payload")
    if regular:
        return Mesh._adopt(vertices, elements)
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
