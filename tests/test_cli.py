import contextlib
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import remeshx
from remeshx import Mesh, grid_quads, read_bin, write_bin, write_obj
from remeshx.cli import _parse_ranges, main
from remeshx.fileio import _RMX_HEADER, _RMX_MAGIC
from conftest import FREED_AFTER_THE_SORT_NEEDS_3_11, elems, feed_fifo, traced_peak, vtx


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_reindex_stats(tmp_path, capsys):
    grid = tmp_path / "g.rmx"
    out = tmp_path / "out.rmx"
    assert run(capsys, "gen", "--n", 8, grid)[0] == 0
    assert run(capsys, "reindex", grid, out)[0] == 0
    code, stdout, _ = run(capsys, "stats", out)
    assert code == 0
    assert "vertices:  81" in stdout
    assert "elements:  64" in stdout
    assert "duplicate vertices: 0" in stdout
    assert "unused vertices:    0" in stdout


@pytest.mark.parametrize("suffix", ["rmx", "obj"])
def test_reindex_in_place_equals_reindex_to_a_new_file(tmp_path, capsys, suffix):
    # the output replaces the input only once it is written in full
    grid, ref, same = tmp_path / "g.rmx", tmp_path / f"ref.{suffix}", tmp_path / f"same.{suffix}"
    assert run(capsys, "gen", "--n", 8, grid)[0] == 0
    assert run(capsys, "reindex", grid, same)[0] == 0
    assert run(capsys, "reindex", same, ref)[0] == 0
    assert run(capsys, "reindex", same, same)[0] == 0
    assert same.read_bytes() == ref.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([grid.name, ref.name, same.name])


STATS = ("vertices:  {} (dim {})\nelements:  {} (arity {})\n"
         "duplicate vertices: {}\nunused vertices:    {}\n")


def test_the_ci_cli_step_through_main(tmp_path, capsys, monkeypatch):
    # the CLI step of .github/workflows/tier1.yml, with its expected bytes and text; each
    # derived file must equal reindex of the same input byte for byte
    monkeypatch.chdir(tmp_path)

    def ok(*args):
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, ""), args
        return out

    def same(path, ref):
        assert Path(path).read_bytes() == Path(ref).read_bytes(), path

    # grids of one block of rows (n 64) and of two (n 128)
    for n, counts in ((64, (20480, 2, 4096, 4, 12159, 4096)),
                      (128, (81920, 2, 16384, 4, 48895, 16384))):
        ok("gen", "--n", n, f"g{n}.rmx")
        assert ok("stats", f"g{n}.rmx") == STATS.format(*counts)
        ok("reindex", f"g{n}.rmx", f"ref{n}.rmx")
        for derived in (["soup", f"g{n}.rmx", "s.rmx"], ["merge", f"g{n}.rmx", "s.rmx"],
                        ["subset", f"g{n}.rmx", "s.rmx", "--keep", f"0-{n * n - 1}"]):
            ok(*derived)
            same("s.rmx", f"ref{n}.rmx")
    # the OBJ round trip
    ok("reindex", "g64.rmx", "g.obj")
    assert ok("stats", "g.obj") == STATS.format(4225, 2, 4096, 4, 0, 0)
    ok("reindex", "g.obj", "back.rmx")
    same("back.rmx", "ref64.rmx")
    # two tiles sharing a border, merged, against reindex of their concatenation
    g = grid_quads(64)
    tiles = [Mesh(g.vertices + np.float32([64 * k, 0]), g.elements) for k in (0, 1)]
    write_bin(tiles[0], "t0.rmx")
    write_bin(tiles[1], "t1.rmx")
    write_bin(Mesh(np.vstack([t.vertices for t in tiles]),
                   np.vstack([g.elements, g.elements + g.n_vertices])), "cat.rmx")
    ok("merge", "t0.rmx", "t1.rmx", "m.rmx")
    ok("reindex", "cat.rmx", "catref.rmx")
    same("m.rmx", "catref.rmx")
    # full-width random floats: the sort packs no two components into one word
    r = np.random.default_rng(7)
    write_bin(Mesh(r.standard_normal((2000, 3), dtype=np.float32)[r.integers(0, 2000, 6000)],
                   r.integers(0, 5000, (4000, 3)).astype(np.uint32)), "f.rmx")
    ok("reindex", "f.rmx", "fref.rmx")
    ok("soup", "f.rmx", "fs.rmx")
    same("fs.rmx", "fref.rmx")
    ok("reindex", "fref.rmx", "fagain.rmx")
    same("fagain.rmx", "fref.rmx")
    # three rows of 4096 components, two of them equal
    a, b = np.random.default_rng(9).standard_normal((2, 4096), dtype=np.float32)
    write_bin(Mesh(np.stack([a, b, a]), [[0, 1, 2]]), "w.rmx")
    assert ok("stats", "w.rmx") == STATS.format(3, 4096, 1, 3, 1, 0)
    ok("reindex", "w.rmx", "wref.rmx")
    for command in ("soup", "merge"):
        ok(command, "w.rmx", "ws.rmx")
        same("ws.rmx", "wref.rmx")
    # an index past the vertex count: exit 1 without a traceback, each bad slot named
    Path("bad.rmx").write_bytes(struct.pack("<4sIIQQ2f3I", b"RMX1", 2, 3, 1, 1, 0, 0, 0, 1, 2))
    for command in ("stats", "validate"):
        code, out, err = run(capsys, command, "bad.rmx")
        assert code == 1 and "Traceback" not in err
    assert (out, err) == ("bad.rmx: 2 issue(s)\n", "element 0 slot 1: index 1 out of range\n"
                                                   "element 0 slot 2: index 2 out of range\n")
    # the console entry point, with every warning an error
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=os.path.dirname(os.path.dirname(remeshx.__file__)))
    done = subprocess.run([sys.executable, "-c", "from remeshx.cli import entry; entry()",
                           "stats", "w.rmx"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == STATS.format(3, 4096, 1, 3, 1, 0)


def test_validate_ok_and_failing(tmp_path, capsys):
    good = tmp_path / "good.obj"
    good.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n")
    assert run(capsys, "validate", good)[0] == 0

    bad = tmp_path / "bad.rmx"
    from remeshx.fileio import _RMX_HEADER, _RMX_MAGIC
    payload = np.array([0, 0, 1, 1], "<f4").tobytes() + \
        np.array([0, 1, 9], "<u4").tobytes()
    bad.write_bytes(_RMX_HEADER.pack(_RMX_MAGIC, 2, 3, 2, 1) + payload)
    code, _, stderr = run(capsys, "validate", bad)
    assert code == 1
    assert "out of range" in stderr


def test_validate_lists_every_bad_slot(tmp_path, capsys):
    bad = tmp_path / "bad.rmx"
    payload = np.array([0, 0], "<f4").tobytes() + np.array([0, 5, 7, 9, 0, 0], "<u4").tobytes()
    bad.write_bytes(_RMX_HEADER.pack(_RMX_MAGIC, 2, 3, 1, 2) + payload)
    code, stdout, stderr = run(capsys, "validate", bad)
    assert code == 1
    assert stderr.splitlines() == ["element 0 slot 1: index 5 out of range",
                                   "element 0 slot 2: index 7 out of range",
                                   "element 1 slot 0: index 9 out of range"]
    assert stdout == f"{bad}: 3 issue(s)\n"


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "reindex", tmp_path / "missing.obj",
                          tmp_path / "out.obj")
    assert code == 1
    assert "error" in stderr


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["reindex"]) == 2


def test_merge_cli(tmp_path, capsys):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(Mesh(vtx((0, 0), (1, 0), (0, 1)), elems((0, 1, 2))), a)
    write_obj(Mesh(vtx((1, 0), (0, 1), (1, 1)), elems((0, 1, 2))), b)
    out = tmp_path / "merged.rmx"
    assert run(capsys, "merge", a, b, out)[0] == 0
    merged = read_bin(out)
    assert merged.n_vertices == 4 and merged.n_elements == 2


def test_soup_cli(tmp_path, capsys):
    src = tmp_path / "dup.obj"
    # duplicated vertex rows; soup rebuild welds them
    src.write_text("v 0 0\nv 1 0\nv 0 1\nv 0 0\nv 1 0\nv 1 1\nf 1 2 3\nf 4 5 6\n")
    out = tmp_path / "welded.rmx"
    assert run(capsys, "soup", src, out)[0] == 0
    assert read_bin(out).n_vertices == 4


def test_subset_cli_keep_and_group(tmp_path, capsys):
    src = tmp_path / "grouped.obj"
    src.write_text(
        "v 0 0\nv 1 0\nv 0 1\nv 1 1\n"
        "g left\nf 1 2 3\ng right\nf 2 4 3\n")
    out = tmp_path / "left.rmx"
    assert run(capsys, "subset", src, out, "--group", "left")[0] == 0
    assert read_bin(out).n_elements == 1
    out2 = tmp_path / "kept.rmx"
    assert run(capsys, "subset", src, out2, "--keep", "0-1")[0] == 0
    assert read_bin(out2).n_elements == 2
    code, _, stderr = run(capsys, "subset", src, out2, "--group", "nope")
    assert code == 1 and "nope" in stderr


def test_subset_group_named_by_both_group_and_material(tmp_path, capsys):
    # "foo" names a group and a material, and "bar" repeats on its g line: each
    # face must still be listed once per name, or the selector is refused
    src = tmp_path / "named.obj"
    src.write_text("v 0 0\nv 1 0\nv 0 1\nv 1 1\n"
                   "g foo\nusemtl foo\nf 1 2 3\nf 2 4 3\ng bar bar\nf 1 2 4\n")
    out = tmp_path / "foo.rmx"
    assert run(capsys, "subset", src, out, "--group", "foo")[0] == 0
    assert read_bin(out).n_elements == 3
    assert run(capsys, "subset", src, out, "--group", "bar")[0] == 0
    assert read_bin(out).n_elements == 1


def test_bench_cli_csv(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", "--sizes", "4,8", "--reps", "1",
                          "--csv", csv)
    assert code == 0
    assert "vertices_out" in stdout
    lines = csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "25"
    assert lines[2].split(",")[3] == "81"


def test_reindex_twice_writes_identical_bytes(tmp_path, capsys):
    grid = tmp_path / "g.rmx"
    out1, out2 = tmp_path / "o1.rmx", tmp_path / "o2.rmx"
    assert run(capsys, "gen", "--n", 4, grid)[0] == 0
    assert run(capsys, "reindex", grid, out1)[0] == 0
    assert run(capsys, "reindex", grid, out2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reindex_over_its_own_input_writes_the_same_bytes(tmp_path, capsys):
    # the input is read in full before the output is opened
    grid, out, same = tmp_path / "g.rmx", tmp_path / "o.rmx", tmp_path / "same.rmx"
    assert run(capsys, "gen", "--n", 8, grid)[0] == 0
    same.write_bytes(grid.read_bytes())
    assert run(capsys, "reindex", grid, out)[0] == 0
    assert run(capsys, "reindex", same, same)[0] == 0
    assert same.read_bytes() == out.read_bytes() != grid.read_bytes()


@pytest.mark.parametrize("command", [["reindex"], ["merge"], ["soup"], ["subset", "--keep", "0"]])
def test_unknown_output_format_fails_before_reading_input(tmp_path, capsys, command):
    code, _, stderr = run(capsys, *command, tmp_path / "missing.rmx", tmp_path / "out.txt")
    assert code == 1
    assert "out.txt: cannot infer format" in stderr
    assert "missing.rmx" not in stderr


def test_threads_flag_is_gone(tmp_path, capsys):
    grid = tmp_path / "g.rmx"
    assert run(capsys, "gen", "--n", 2, grid)[0] == 0
    assert run(capsys, "--threads", 2, "reindex", grid, tmp_path / "o.rmx")[0] == 2


@pytest.mark.parametrize("keep", ["abc", "3-1", "1-", ","])
def test_subset_bad_keep_is_usage_error(tmp_path, capsys, keep):
    src = tmp_path / "tri.obj"
    src.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\nf 1 3 2\nf 2 3 1\nf 3 2 1\n")
    out = tmp_path / "out.rmx"
    code, _, stderr = run(capsys, "subset", src, out, "--keep", keep)
    assert code == 2 and "--keep" in stderr
    assert not out.exists()


def test_gen_zero_n_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "gen", "--n", 0, tmp_path / "g.rmx")
    assert code == 2 and "--n" in stderr
    assert not (tmp_path / "g.rmx").exists()


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_bad_reps_is_usage_error(capsys, reps):
    code, _, stderr = run(capsys, "bench", "--sizes", "4", "--reps", reps)
    assert code == 2 and "--reps" in stderr


def test_gen_refuses_grid_beyond_index_range(tmp_path, capsys):
    code, _, stderr = run(capsys, "gen", "--n", 29309, tmp_path / "g.rmx")
    assert code == 1 and "2**32" in stderr
    assert not (tmp_path / "g.rmx").exists()


@pytest.mark.parametrize("sizes", ["x", "4,y", "0"])
def test_bench_bad_sizes_is_usage_error(capsys, sizes):
    code, _, stderr = run(capsys, "bench", "--sizes", sizes)
    assert code == 2 and "--sizes" in stderr


def test_stats_huge_rmx_header_fails_closed(tmp_path, capsys):
    huge = tmp_path / "huge.rmx"
    huge.write_bytes(_RMX_HEADER.pack(_RMX_MAGIC, 2, 3, 2**62, 1) + b"\0" * 12)
    code, _, stderr = run(capsys, "stats", huge)
    assert code == 1
    assert "header promises" in stderr and "Traceback" not in stderr


def test_stats_undecodable_obj_fails_closed(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_bytes(b"v 0 0\nv 1 0\nv 0 1\n# \xff\xfe\nf 1 2 3\n")
    code, _, stderr = run(capsys, "stats", bad)
    assert code == 1
    assert "not UTF-8" in stderr and "Traceback" not in stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_stats_huge_rmx_header_from_fifo_fails_closed(tmp_path, capsys):
    fifo = tmp_path / "huge.rmx"
    os.mkfifo(fifo)
    writer = feed_fifo(fifo, _RMX_HEADER.pack(_RMX_MAGIC, 2, 3, 2**62, 1))
    code, _, stderr = run(capsys, "stats", fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 1 and "32-bit" in stderr


def test_stats_counts_duplicates_on_bit_patterns(tmp_path, capsys):
    nan_a, nan_b = np.array([0x7FC00001, 0x7FC00002], np.uint32).view(np.float32)
    # duplicates: the second (0, 1) and the second nan_a row; -0.0 and nan_b stay distinct
    mesh = Mesh(vtx((0.0, 1), (-0.0, 1), (0.0, 1), (nan_a, 2), (nan_b, 2), (nan_a, 2), (-1, 3)),
                elems((0, 1, 2), (3, 4, 5), (6, 6, 6)))
    path = tmp_path / "m.rmx"
    write_bin(mesh, path)
    code, stdout, _ = run(capsys, "stats", path)
    assert code == 0
    assert "duplicate vertices: 2" in stdout
    assert "unused vertices:    0" in stdout


def test_stats_counts_match_what_reindex_removes(tmp_path, capsys):
    # vertex 3 is unused and copies vertex 0: it is unused, not also a duplicate
    path, out = tmp_path / "m.rmx", tmp_path / "out.rmx"
    write_bin(Mesh(vtx((0, 0), (1, 0), (0, 1), (0, 0)), elems((0, 1, 2))), path)
    code, stdout, _ = run(capsys, "stats", path)
    assert code == 0
    assert "vertices:  4" in stdout
    assert "duplicate vertices: 0" in stdout
    assert "unused vertices:    1" in stdout
    assert run(capsys, "reindex", path, out)[0] == 0
    assert read_bin(out).n_vertices == 4 - 1 - 0


@FREED_AFTER_THE_SORT_NEEDS_3_11
def test_stats_and_subset_peak_as_reindex_of_the_same_file(tmp_path, capsys):
    # each command hands reindex the mesh it loaded and holds nothing else: holding the
    # input through the sort put stats at 1.18x and subset at 1.32x reindex's peak
    src, ref, kept = tmp_path / "g.rmx", tmp_path / "ref.rmx", tmp_path / "kept.rmx"
    write_bin(grid_quads(256), src)
    reference = traced_peak(main, ["reindex", str(src), str(ref)])
    for argv in (["stats", str(src)],
                 ["subset", str(src), str(kept), "--keep", f"0-{256 * 256 - 1}"]):
        peak = traced_peak(main, argv)
        assert peak <= 1.05 * reference, f"{argv[0]}: peak {peak / reference:.2f}x reindex's"
    capsys.readouterr()
    assert kept.read_bytes() == ref.read_bytes()


def test_keep_parses_ranges_in_input_order():
    # overlapping and unordered ranges are kept as given: the mask fill handles overlap
    assert _parse_ranges("7,0-3,2-5,9") == [(7, 7), (0, 3), (2, 5), (9, 9)]
    assert _parse_ranges("4-6,0-1,2-3") == [(4, 6), (0, 1), (2, 3)]
    assert _parse_ranges("0-99999999999") == [(0, 99999999999)]


def test_subset_keep_ranges_select_and_bound_check(tmp_path, capsys):
    src = tmp_path / "tri.obj"
    src.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\nf 1 3 2\nf 2 3 1\nf 3 2 1\n")
    out = tmp_path / "out.rmx"
    assert run(capsys, "subset", src, out, "--keep", "3,0-1,1")[0] == 0
    assert read_bin(out).n_elements == 3
    out.unlink()
    # a range past the element count is refused before any mask is built
    for keep in ("0-99999999999", "4", "1,2-4"):
        code, _, stderr = run(capsys, "subset", src, out, "--keep", keep)
        assert code == 1 and "out of range" in stderr
        assert not out.exists()


def test_subset_keep_bound_checks_the_highest_end_in_any_range(tmp_path, capsys):
    src = tmp_path / "eight.rmx"
    write_bin(Mesh(vtx((0, 0), (1, 0), (0, 1)), [[0, 1, 2]] * 8), src)
    out = tmp_path / "out.rmx"
    code, _, stderr = run(capsys, "subset", src, out, "--keep", "5-9,0-2")
    assert code == 1 and "position 9 out of range [0, 8)" in stderr
    assert not out.exists()


def test_format_override_and_quiet(tmp_path, capsys):
    src = tmp_path / "mesh.dat"
    src.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n")
    out = tmp_path / "out.rmx"
    code, stdout, _ = run(capsys, "--format", "obj", "--quiet", "reindex", src, out)
    # output format falls back to the flag too, so write also goes through OBJ
    assert code == 0
    assert stdout == ""


def test_obj_bad_w_coordinate_fails_closed(tmp_path, capsys):
    src, out = tmp_path / "w.obj", tmp_path / "out.obj"
    src.write_text("v 0 0 0\nv 1 0 0 zz\nv 0 1 0\nf 1 2 3\n")
    code, _, stderr = run(capsys, "reindex", src, out)
    assert code == 1
    assert "w.obj:2: bad coordinate" in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_obj_coordinate_beyond_float32_fails_closed(tmp_path, capsys):
    src, out = tmp_path / "big.obj", tmp_path / "out.obj"
    src.write_text("v 0 0\nv 1e39 0\nv 0 1\nf 1 2 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, stderr = run(capsys, "reindex", src, out)
    assert code == 1
    assert "vertex 2" in stderr and "float32" in stderr
    assert not caught and "Warning" not in stderr
    assert not out.exists()


def test_validate_formats_the_bad_slots_in_blocks(tmp_path, capsys):
    # 2^18 bad slots: the lines are formatted in blocks straight from the error's arrays
    n_bad = 1 << 18
    bad = tmp_path / "bad.rmx"
    elements = np.full((n_bad // 4, 4), 7, "<u4")
    bad.write_bytes(_RMX_HEADER.pack(_RMX_MAGIC, 2, 4, 1, n_bad // 4)
                    + np.zeros(2, "<f4").tobytes() + elements.tobytes())
    with open(tmp_path / "err.txt", "w") as err, contextlib.redirect_stderr(err):
        peak = traced_peak(main, ["validate", str(bad)])
    assert peak <= 96 * n_bad, f"{peak / n_bad:.1f} bytes per bad slot"
    lines = (tmp_path / "err.txt").read_text().splitlines()
    assert len(lines) == n_bad
    assert lines[0] == "element 0 slot 0: index 7 out of range"
    assert lines[-1] == f"element {n_bad // 4 - 1} slot 3: index 7 out of range"
    assert capsys.readouterr().out == f"{bad}: {n_bad} issue(s)\n"


# the child caps its own address space at what it maps once the input is read, plus a
# margin smaller than the 12 MiB of words that sorting 2^20 rows needs
_CAPPED_MAIN = """
import resource, sys
from remeshx.cli import main
with open("/proc/self/status") as status:
    vm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = vm_kib * 1024 + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_out_of_memory_exits_1_without_a_traceback(tmp_path):
    n = 1 << 20
    rng = np.random.default_rng(0)
    src = tmp_path / "in.rmx"
    write_bin(Mesh(rng.standard_normal((n, 3), dtype=np.float32),
                   np.arange(n, dtype=np.uint32).reshape(-1, 4)), src)
    margin = src.stat().st_size + (4 << 20)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(remeshx.__file__)))
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, str(margin), "reindex",
                           str(src), str(tmp_path / "out.rmx")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("remeshx: error: out of memory: ")
    assert done.stderr.count("\n") == 1
