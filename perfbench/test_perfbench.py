"""Self-tests of the benchmark, on small inputs.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import remeshx as rx
from remeshx.cli import main as cli_main
from run import END_TO_END, PER_LAYER, end_to_end, failed
from spans import Tracer, op_figures, self_times
from worker import file_digest, run_op, timed_op
from workloads import WORKLOADS

SMALL = {"grid_quads_rmx": {"n": 6}, "tri_soup3d_rmx": {"log2_tris": 9}}


def build(tmp_path, name, seed, tag):
    work = tmp_path / f"{name}-{seed}-{tag}"
    work.mkdir()
    case = WORKLOADS[name].build(work, seed, **SMALL[name])
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return case, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    _, first = build(tmp_path, name, 7, "a")
    _, second = build(tmp_path, name, 7, "b")
    assert first and first == second


def test_other_seed_changes_random_inputs_but_not_grid_counts(tmp_path):
    _, tri_a = build(tmp_path, "tri_soup3d_rmx", 7, "a")
    _, tri_b = build(tmp_path, "tri_soup3d_rmx", 8, "b")
    assert tri_a != tri_b
    for name in sorted(WORKLOADS):
        case_a, _ = build(tmp_path, name, 7, "c")
        case_b, _ = build(tmp_path, name, 8, "d")
        assert case_a.expected_vertices_out == case_b.expected_vertices_out
        assert case_a.vertices_in == case_b.vertices_in


def test_self_time_on_hand_built_tree():
    def span(sid, start, end, parent):
        return {"id": sid, "name": f"s{sid}", "start": start, "end": end,
                "parent": parent, "op": 0}

    spans = [span(0, 0.0, 10.0, None),
             span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0),   # overlapping children
             span(3, 8.0, 12.0, 0),                       # runs past its parent's end
             span(4, 2.0, 3.0, 1)]                        # grandchild
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_corrupted_output_is_a_failed_op(tmp_path, monkeypatch):
    case, _ = build(tmp_path, "grid_quads_rmx", 1, "a")
    monkeypatch.chdir(tmp_path / "grid_quads_rmx-1-a")
    cold, stdout = timed_op(cli_main, case.argvs, case.outputs)
    reference = file_digest(case.outputs, stdout)
    good, _ = timed_op(cli_main, case.argvs, case.outputs)

    bad, _ = timed_op(cli_main, case.argvs, case.outputs)
    with open(case.outputs[0], "r+b") as handle:
        handle.seek(-1, 2)
        last = handle.read(1)
        handle.seek(-1, 2)
        handle.write(bytes([last[0] ^ 1]))
    bad["digest"] = file_digest(case.outputs, "")

    # exits 0 but writes nothing: the previous op's output must not count for it
    silent, _ = timed_op(cli_main, [["--quiet", "validate", "in.rmx"]], case.outputs)

    assert not failed(cold, reference) and not failed(good, reference)
    assert failed(bad, reference) and failed(silent, reference)
    result = {"cold": cold, "ops": [good, bad], "import_s": 0.1, "max_rss_kb": 1024}
    metrics, attempted, n_failed, _ = end_to_end([result], case, reference)
    assert (attempted, n_failed) == (3, 1)
    assert metrics["op_p50_ms"] == good["ms"]
    assert metrics["ok_op_ratio"] == pytest.approx(2 / 3)


def test_traced_op_matches_untraced_output_and_counts(tmp_path, monkeypatch):
    case, _ = build(tmp_path, "tri_soup3d_rmx", 1, "a")
    monkeypatch.chdir(tmp_path / "tri_soup3d_rmx-1-a")
    _, stdout = timed_op(cli_main, case.argvs, case.outputs)
    reference = file_digest(case.outputs, stdout)

    tracer = Tracer()
    tracer.op = 0
    with tracer.patched(), tracer.span("op"):
        rc, traced_stdout = run_op(cli_main, case.argvs, span=tracer.span)
    assert rc == 0 and file_digest(case.outputs, traced_stdout) == reference
    assert rx.reindex.__name__ == "reindex" and not hasattr(rx.reindex, "__wrapped__")

    spans = [{"id": i, "name": n, "start": a, "end": b, "parent": p, "op": o, **attrs}
             for i, n, a, b, p, o, attrs in tracer.spans]
    fig = op_figures(spans)
    mesh = case.reindex_input()
    expected_out = rx.reindex_serial(mesh).n_vertices
    assert fig["pipeline.vertices_in"] == mesh.n_vertices
    assert fig["pipeline.vertices_out"] == expected_out
    assert fig["pipeline.unused"] == 0
    assert fig["pipeline.duplicates"] == mesh.n_vertices - expected_out
    assert fig["fileio.bytes_read"] > 0 and fig["fileio.bytes_written"] > 0
    for key in ("pipeline.sort_ms", "ops.soup_to_mesh_ms", "mesh.dereference_ms",
                "mesh.construct_ms"):
        assert fig[key] > 0, key
    assert np.isfinite(fig["pipeline.gap_ms"])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
