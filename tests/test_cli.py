import contextlib
import os
import warnings

import numpy as np
import pytest

from remeshx import Mesh, read_bin, write_bin, write_obj
from remeshx.cli import _parse_ranges, main
from remeshx.fileio import _RMX_HEADER, _RMX_MAGIC
from conftest import elems, feed_fifo, traced_peak, vtx


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


def test_keep_parses_to_merged_ranges():
    assert _parse_ranges("7,0-3,2-5,9") == [(0, 5), (7, 7), (9, 9)]
    assert _parse_ranges("4-6,0-1,2-3") == [(0, 6)]
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
