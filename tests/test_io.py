import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remeshx import (FormatError, Mesh, bitwise_equal, equivalent, grid_quads, read_bin,
                     read_obj, vertex_bits, write_bin, write_obj)
from remeshx.fileio import _RMX_HEADER, _RMX_MAGIC
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
