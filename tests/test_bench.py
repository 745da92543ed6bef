import io

import numpy as np
import pytest

from remeshx import MeshError, dereference, grid_quads, reindex, run_bench, write_csv
from remeshx.bench import CSV_HEADER, format_table


def test_grid_counts_n8():
    mesh = grid_quads(8)
    assert mesh.n_elements == 64
    assert mesh.n_vertices == 320
    assert reindex(mesh)[0].n_vertices == 81


def test_grid_counts_n64():
    mesh = grid_quads(64)
    assert mesh.n_elements == 4096
    assert mesh.n_vertices == 20480
    assert reindex(mesh)[0].n_vertices == 4225


def test_grid_rejects_zero():
    with pytest.raises(MeshError):
        grid_quads(0)


def test_grid_refuses_vertex_count_beyond_index_range():
    # 5 * 29309**2 >= 2**32: refused before any array is allocated
    with pytest.raises(MeshError, match=r"2\*\*32"):
        grid_quads(29309)


def test_grid_structure():
    mesh = grid_quads(2)
    # per-quad layout: 4 corners then the unused center at a half-integer point
    assert mesh.vertices[4].tolist() == [0.5, 0.5]
    assert mesh.elements[0].tolist() == [0, 1, 2, 3]
    out, _ = reindex(mesh)
    assert out.n_vertices == 9
    # centers never survive
    assert not np.any(out.vertices != np.floor(out.vertices))


def test_grid_soup_preserved():
    mesh = grid_quads(5)
    out, _ = reindex(mesh)
    assert np.array_equal(dereference(out), dereference(mesh))


def test_run_bench_n8():
    records = run_bench([8], reps=3)
    assert len(records) == 1
    record = records[0]
    assert (record.n, record.quads_in, record.vertices_in, record.vertices_out) == \
        (8, 64, 320, 81)
    assert record.t_serial_ms >= 0 and record.t_parallel_ms >= 0
    assert record.threads >= 1


def test_run_bench_empty():
    assert run_bench([], reps=3) == []


def test_run_bench_multiple_sizes():
    records = run_bench([4, 8], reps=1)
    assert [r.vertices_out for r in records] == [25, 81]


def test_csv_schema():
    records = run_bench([4], reps=1)
    buffer = io.StringIO()
    write_csv(records, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:4] == ["4", "16", "80", "25"]
    assert len(fields) == 7


def test_format_table():
    table = format_table(run_bench([4], reps=1))
    assert table.splitlines()[0].split() == CSV_HEADER.split(",")
