import errno
import os
import stat
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import fileio
from remeshx import (FormatError, Mesh, bitwise_equal, equivalent, grid_quads, read_bin,
                     read_obj, vertex_bits, write_bin, write_obj)
from remeshx.fileio import _RMX_HEADER, _RMX_MAGIC
from remeshx.mesh import BLOCK_ROWS
from conftest import A, B, C, elems, feed_fifo, vtx

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


def test_obj_minimal(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = read_obj(path)
    assert mesh.n_vertices == 3 and mesh.n_elements == 1
    assert mesh.elements.tolist() == [[0, 1, 2]]


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0\nv 1 0\nv 0 1\nf -3 -2 -1\n")
    mesh = read_obj(path)
    assert mesh.elements.tolist() == [[0, 1, 2]]


def test_obj_dim_inference(tmp_path):
    flat = tmp_path / "flat.obj"
    flat.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n")
    assert read_obj(flat).dim == 2
    solid = tmp_path / "solid.obj"
    solid.write_text("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    assert read_obj(solid).dim == 3
    assert read_obj(solid, dim=2).dim == 2
    assert read_obj(flat, dim=3).vertices[:, 2].tolist() == [0, 0, 0]


def test_obj_face_slash_syntax(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text("v 0 0\nv 1 0\nv 0 1\nf 1/1 2/2/2 3//3\n")
    assert read_obj(path).elements.tolist() == [[0, 1, 2]]


def test_obj_groups(tmp_path):
    path = tmp_path / "grouped.obj"
    path.write_text(
        "v 0 0\nv 1 0\nv 0 1\nv 1 1\n"
        "g left\nf 1 2 3\nusemtl steel\nf 2 4 3\ng right\nf 1 3 4\n")
    mesh, groups = read_obj(path, return_groups=True)
    assert mesh.n_elements == 3
    assert groups["left"] == [0, 1]
    # materials persist across group changes
    assert groups["steel"] == [1, 2]
    assert groups["right"] == [2]


def test_obj_errors(tmp_path):
    cases = {
        "mixed.obj": "v 0 0\nv 1 0\nv 0 1\nv 1 1\nf 1 2 3\nf 1 2 3 4\n",
        "range.obj": "v 0 0\nf 1 2 3\n",
        "badline.obj": "v 0 0\nv zero one\n",
        "zero.obj": "v 0 0\nv 1 0\nv 0 1\nf 0 1 2\n",
        "fat.obj": "v 0 0\nv 1 0\nv 0 1\nv 1 1\nv 2 2\nf 1 2 3 4 5\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(FormatError):
            read_obj(path)


@pytest.mark.parametrize("w", ["zz", "1..0", "nan0"])
def test_obj_bad_w_coordinate_is_format_error(tmp_path, w):
    # the fourth component is dropped, but it must still be a number
    path = tmp_path / "w.obj"
    path.write_text(f"v 0 0 0 1\nv 1 0 0 {w}\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(FormatError, match=f"{path.name}:2: bad coordinate"):
        read_obj(path)


def test_obj_numeric_w_coordinate_is_dropped(tmp_path):
    path = tmp_path / "w.obj"
    path.write_text("v 0 0 0 1\nv 1 0 2 0.5\nv 0 1 0 nan\nf 1 2 3\n")
    assert read_obj(path).vertices.tolist() == [[0, 0, 0], [1, 0, 2], [0, 1, 0]]


@pytest.mark.parametrize("padding", [0, 100_000], ids=["first-chunk", "later-chunk"])
def test_obj_undecodable_text_is_format_error(tmp_path, padding):
    # the padding puts the bad bytes past the first block the text reader decodes
    path = tmp_path / "bad.obj"
    path.write_bytes(b"v 0 0\nv 1 0\nv 0 1\n" + b"# pad\n" * padding + b"# \xff\xfe\nf 1 2 3\n")
    with pytest.raises(FormatError, match=f"{path.name}: not UTF-8"):
        read_obj(path)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_obj_reads_utf8_text(tmp_path, bom):
    # a byte-order mark must not hide the first vertex line
    path = tmp_path / "named.obj"
    path.write_bytes(bom + "v 5 5\nv 1 0\nv 0 1\ng größe\nf 1 2 3\n".encode("utf-8"))
    mesh, groups = read_obj(path, return_groups=True)
    assert mesh.vertices.tolist() == [[5, 5], [1, 0], [0, 1]]
    assert groups == {"größe": [0]}


def test_obj_roundtrip_worked(tmp_path, worked_mesh):
    path = tmp_path / "worked.obj"
    write_obj(worked_mesh, path)
    back = read_obj(path, dim=worked_mesh.dim)
    assert bitwise_equal(back, worked_mesh)
    assert equivalent(back, worked_mesh)


def test_obj_roundtrip_awkward_floats(tmp_path):
    mesh = Mesh(vtx((0.1, -0.0), (1e-8, 3.4e38), (-123.456, 7.0)), elems((0, 1, 2)))
    path = tmp_path / "awkward.obj"
    write_obj(mesh, path)
    assert bitwise_equal(read_obj(path, dim=2), mesh)


def _floats(*bits):
    return np.array(bits, np.uint32).view(np.float32)


# -0, 0.1, the smallest subnormal, the largest finite float32, inf and nan in each mesh
@pytest.mark.parametrize("mesh,text", [
    (Mesh(_floats(0x80000000, 0x3DCCCCCD, 0x00000001, 0x7F7FFFFF, 0x7F800000,
                  0x7FC00000).reshape(3, 2), elems((0, 1, 2))),
     "v -0 0.100000001\nv 1.40129846e-45 3.40282347e+38\nv inf nan\nf 1 2 3\n"),
    (Mesh(_floats(0xFF800000, 0x80000000, 0x3DCCCCCD, 0x00000001, 0xFF7FFFFF, 0x3F800000,
                  0x7FC00000, 0x40490FDB, 0x00000000, 0x807FFFFF, 0x7F800000,
                  0xC2F6E979).reshape(4, 3), elems((0, 1, 2, 3), (3, 2, 1, 0))),
     "v -inf -0 0.100000001\nv 1.40129846e-45 -3.40282347e+38 1\n"
     "v nan 3.14159274 0\nv -1.17549421e-38 inf -123.456001\nf 1 2 3 4\nf 4 3 2 1\n"),
], ids=["dim2-triangle", "dim3-quads"])
def test_obj_text_is_pinned(tmp_path, mesh, text):
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    assert path.read_text() == text
    assert bitwise_equal(read_obj(path), mesh)


def test_obj_round_trips_across_write_blocks(tmp_path):
    # more vertex rows and more face rows than one formatted write holds
    rng = np.random.default_rng(12)
    n = BLOCK_ROWS + 3
    vertices = rng.standard_normal((n, 3)).astype(np.float32) * np.float32(1e4)
    mesh = Mesh(vertices, rng.integers(0, n, size=(BLOCK_ROWS + 5, 3)).astype(np.uint32))
    path = tmp_path / "big.obj"
    write_obj(mesh, path)
    with open(path) as handle:
        assert sum(1 for _ in handle) == mesh.n_vertices + mesh.n_elements
    assert bitwise_equal(read_obj(path), mesh)


def test_obj_round_trips_a_sweep_of_float32_bit_patterns(tmp_path):
    rng = np.random.default_rng(2024)
    extremes = np.array([0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
                         0x00800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000,
                         0x7FC00000, 0x3F800000], np.uint32)
    bits = np.concatenate([rng.integers(0, 2**32, size=2**16, dtype=np.uint32), extremes])
    values = bits.view(np.float32)
    # every NaN is written as "nan", so the writer refuses all but the one it reads back as
    values = values[~np.isnan(values) | (bits == 0x7FC00000)]
    values = values[:len(values) // 2 * 2].reshape(-1, 2)
    mesh = Mesh(values, elems((0, 1, 2)))
    path = tmp_path / "sweep.obj"
    write_obj(mesh, path)
    assert bitwise_equal(read_obj(path), mesh)


@pytest.mark.parametrize("coordinate", ["1e39", "-1e39", "3.4028235677973366e38"])
def test_obj_coordinate_beyond_float32_is_format_error(tmp_path, coordinate):
    # the last is half an ulp past the largest float32, which rounds to inf
    path = tmp_path / "big.obj"
    path.write_text(f"v 0 0\nv 1 {coordinate}\nv 0 1\nf 1 2 3\n")
    with pytest.raises(FormatError, match=f"{path.name}: vertex 2 .*float32"):
        read_obj(path)


def test_obj_reads_infinities_nan_and_underflow_as_before(tmp_path):
    path = tmp_path / "edges.obj"
    path.write_text("v inf -inf nan\nv 3.4028235e38 1e-50 -1e-46\nf 1 2 1\n")
    assert vertex_bits(read_obj(path).vertices).tolist() == [
        [0x7F800000, 0xFF800000, 0x7FC00000], [0x7F7FFFFF, 0x00000000, 0x80000000]]


def test_bin_roundtrip(tmp_path, worked_mesh):
    path = tmp_path / "worked.rmx"
    write_bin(worked_mesh, path)
    assert bitwise_equal(read_bin(path), worked_mesh)


def test_bin_empty_mesh_is_28_bytes(tmp_path):
    path = tmp_path / "empty.rmx"
    write_bin(Mesh.empty(), path)
    assert path.stat().st_size == 28
    back = read_bin(path)
    assert back.n_vertices == 0 and back.n_elements == 0
    assert back.dim == 2 and back.arity == 3


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "bad.rmx"
    path.write_bytes(b"XXXX" + b"\0" * 24)
    with pytest.raises(FormatError):
        read_bin(path)


def test_bin_truncated(tmp_path):
    good = tmp_path / "good.rmx"
    write_bin(Mesh(vtx(A, B, C), elems((0, 1, 2))), good)
    bad = tmp_path / "cut.rmx"
    bad.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(FormatError):
        read_bin(bad)
    short = tmp_path / "short.rmx"
    short.write_bytes(good.read_bytes()[:10])
    with pytest.raises(FormatError):
        read_bin(short)


def test_bin_preserves_nan_bits(tmp_path):
    payload = np.frombuffer(np.uint32(0x7FC00123).tobytes(), np.float32)[0]
    mesh = Mesh(vtx((payload, -0.0)), elems((0, 0, 0)))
    path = tmp_path / "nan.rmx"
    write_bin(mesh, path)
    assert bitwise_equal(read_bin(path), mesh)


def test_bin_trailing_byte_in_regular_file(tmp_path):
    good = tmp_path / "good.rmx"
    write_bin(Mesh(vtx(A, B, C), elems((0, 1, 2))), good)
    bad = tmp_path / "long.rmx"
    bad.write_bytes(good.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        read_bin(bad)


def test_bin_file_shorter_than_its_size_is_truncated_payload(tmp_path, monkeypatch):
    # a file cut between the size check and the read: the reader must not trust np.empty
    path = tmp_path / "shrunk.rmx"
    write_bin(Mesh(vtx(A, B, C), elems((0, 1, 2))), path)
    path.write_bytes(path.read_bytes()[:-3])
    real_fstat = os.fstat

    def stale_fstat(fd):
        info = real_fstat(fd)
        return SimpleNamespace(st_mode=info.st_mode, st_size=info.st_size + 3)

    monkeypatch.setattr("remeshx.fileio.os.fstat", stale_fstat)
    with pytest.raises(FormatError, match="truncated payload"):
        read_bin(path)


@pytest.mark.parametrize("n_vertices,n_elements", [(2**62, 1), (1, 2**62), (2**64 - 1, 2**64 - 1)])
def test_bin_header_larger_than_file_is_format_error(tmp_path, n_vertices, n_elements):
    path = tmp_path / "huge.rmx"
    path.write_bytes(_RMX_HEADER.pack(_RMX_MAGIC, 2, 3, n_vertices, n_elements) + b"\0" * 20)
    with pytest.raises(FormatError, match="header promises"):
        read_bin(path)


@needs_fifo
@pytest.mark.parametrize("n_vertices,match", [(2**62, "32-bit"), (2**31, "truncated")])
def test_bin_huge_header_from_fifo_is_format_error(tmp_path, n_vertices, match):
    # a FIFO has no size to check the header against; 2**31 dim-3 vertices
    # would be a 24 GiB read, which must not be allocated up front
    path = tmp_path / "huge.rmx"
    os.mkfifo(path)
    writer = feed_fifo(path, _RMX_HEADER.pack(_RMX_MAGIC, 3, 3, n_vertices, 1))
    with pytest.raises(FormatError, match=match):
        read_bin(path)
    writer.join(timeout=10)
    assert not writer.is_alive()


@needs_fifo
def test_bin_round_trips_through_fifo(tmp_path):
    mesh = grid_quads(200)  # a payload of several read chunks
    good = tmp_path / "good.rmx"
    write_bin(mesh, good)
    path = tmp_path / "pipe.rmx"
    os.mkfifo(path)
    writer = feed_fifo(path, good.read_bytes())
    assert bitwise_equal(read_bin(path), mesh)
    writer.join(timeout=10)
    assert not writer.is_alive()
    writer = feed_fifo(path, good.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        read_bin(path)
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_obj_write_round_trips_or_refuses(tmp_path, dim, arity):
    rng = np.random.default_rng(10 * dim + arity)
    mesh = Mesh(rng.integers(-8, 8, size=(6, dim)).astype(np.float32) / 4,
                rng.integers(0, 6, size=(5, arity)).astype(np.uint32))
    path = tmp_path / "m.obj"
    if dim in (2, 3) and arity in (3, 4):
        write_obj(mesh, path)
        assert bitwise_equal(read_obj(path), mesh)
    else:
        with pytest.raises(FormatError):
            write_obj(mesh, path)
        assert not path.exists()


# +-0.0, the NaN that OBJ's "nan" reads back as, NaNs with sign or payload bits,
# infinities, the smallest subnormal and the largest finite float32
_AWKWARD_BITS = [0x00000000, 0x80000000, 0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800001,
                 0x7F800000, 0xFF800000, 0x00000001, 0x7F7FFFFF]


@st.composite
def meshes_of_any_shape(draw):
    dim, arity = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n_vertices = draw(st.integers(0, 6))
    n_elements = draw(st.integers(0, 4)) if n_vertices else 0
    bits = draw(st.lists(st.one_of(st.sampled_from(_AWKWARD_BITS), st.integers(0, 2**32 - 1)),
                         min_size=n_vertices * dim, max_size=n_vertices * dim))
    indices = draw(st.lists(st.integers(0, max(n_vertices - 1, 0)),
                            min_size=n_elements * arity, max_size=n_elements * arity))
    vertices = np.array(bits, np.uint32).reshape(n_vertices, dim).view(np.float32)
    return Mesh(vertices, np.array(indices, np.uint32).reshape(n_elements, arity))


@settings(max_examples=200, deadline=None)
@given(meshes_of_any_shape())
def test_writers_round_trip_bit_exactly_or_refuse(mesh):
    lossy_nan = np.isnan(mesh.vertices) & (vertex_bits(mesh.vertices) != 0x7FC00000)
    obj_refuses = (mesh.dim not in (2, 3) or mesh.arity not in (3, 4)
                   or (mesh.n_vertices == 0 and mesh.dim != 2)
                   or (mesh.n_elements == 0 and mesh.arity != 3) or bool(lossy_nan.any()))
    with tempfile.TemporaryDirectory() as tmp:
        rmx, obj = Path(tmp) / "m.rmx", Path(tmp) / "m.obj"
        write_bin(mesh, rmx)
        assert bitwise_equal(read_bin(rmx), mesh)
        if obj_refuses:
            with pytest.raises(FormatError):
                write_obj(mesh, obj)
            assert not obj.exists()
        else:
            write_obj(mesh, obj)
            assert bitwise_equal(read_obj(obj), mesh)


class _FailingWrites:
    """A writer's file handle whose second ``write`` writes half its data, then fails."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.handle.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)


WRITERS = {"obj": write_obj, "rmx": write_bin}


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "existing"])
@pytest.mark.parametrize("suffix", sorted(WRITERS))
def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, suffix, existing):
    # the disk fills after the vertex block: the target is unchanged or absent, and no
    # temporary is left beside it
    path = tmp_path / f"m.{suffix}"
    if existing:
        path.write_bytes(b"the old file\n")
    before = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingWrites(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[suffix](grid_quads(4), path)
    assert sorted(os.listdir(tmp_path)) == before
    assert not existing or path.read_bytes() == b"the old file\n"


@pytest.mark.parametrize("suffix", sorted(WRITERS))
def test_writers_replace_a_file_keeping_its_mode_and_create_one_under_the_umask(
        tmp_path, suffix):
    umask = os.umask(0o022)
    os.umask(umask)
    mesh, path = grid_quads(4), tmp_path / f"m.{suffix}"
    WRITERS[suffix](mesh, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    fresh = path.read_bytes()
    path.write_bytes(b"the old file\n")
    path.chmod(0o640)
    WRITERS[suffix](mesh, path)
    assert path.read_bytes() == fresh and stat.S_IMODE(path.stat().st_mode) == 0o640
    # a symlink keeps naming the file, whose contents are replaced
    (tmp_path / "sub").mkdir()
    link = tmp_path / "sub" / f"link.{suffix}"
    link.symlink_to(path)
    path.write_bytes(b"the old file\n")
    WRITERS[suffix](mesh, link)
    assert link.is_symlink() and path.read_bytes() == fresh
    assert sorted(os.listdir(tmp_path)) == sorted([path.name, "sub"])
    assert os.listdir(tmp_path / "sub") == [link.name]


def test_writers_refuse_a_missing_directory_naming_the_target(tmp_path):
    path = tmp_path / "none" / "m.rmx"
    with pytest.raises(FileNotFoundError) as err:
        write_bin(grid_quads(4), path)
    assert err.value.filename == str(path)


@needs_fifo
@pytest.mark.parametrize("suffix", sorted(WRITERS))
def test_writers_write_a_fifo_in_place(tmp_path, suffix):
    mesh, regular, fifo = grid_quads(4), tmp_path / f"m.{suffix}", tmp_path / f"p.{suffix}"
    WRITERS[suffix](mesh, regular)
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    WRITERS[suffix](mesh, fifo)
    reader.join(timeout=10)
    assert got == [regular.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == sorted([regular.name, fifo.name])
