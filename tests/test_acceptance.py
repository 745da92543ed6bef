"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""
import time

import numpy as np
import pytest

from remeshx import (Mesh, RandomMeshSpec, bitwise_equal, check_all,
                     dereference, grid_quads, inclusive_scan, merge,
                     random_mesh, read_bin, read_obj, reindex, run_bench,
                     soup_to_mesh, soups_equal, subset, write_bin, write_obj)
from conftest import WORKED_ELEMENTS, WORKED_VERTICES


def _report(name, passed):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}")
    assert passed, name


def worked():
    return Mesh(np.array(WORKED_VERTICES, np.float32),
                np.array(WORKED_ELEMENTS, np.uint32))


def test_criterion_1_worked_example_fixture():
    mesh = worked()
    out, scratch = reindex(mesh)
    ok = out.n_vertices == 6
    ok &= out.elements.tolist() == [[0, 1, 2], [0, 2, 3], [2, 4, 5], [2, 5, 3]]
    ok &= scratch.is_used.astype(int).tolist() == [1, 1, 1, 0, 1, 1, 1, 1, 0, 1]
    ok &= scratch.nodup.astype(int).tolist() == [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
    ok &= inclusive_scan(scratch.nodup).tolist() == [1, 1, 1, 2, 3, 3, 4, 4, 5, 6]
    ok &= scratch.new_idx.tolist() == [0, 0, 0, 1, 2, 2, 3, 3, 4, 5]
    best = min(_timed(lambda: reindex(mesh)) for _ in range(20))
    ok &= best < 1e-3
    _report(f"criterion 1: worked-example fixture (best run {best * 1e6:.0f} us)", ok)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.parametrize("n,quads,vin,vout", [
    (8, 64, 320, 81),
    (64, 4096, 20480, 4225),
    (1024, 1048576, 5242880, 1050625),
])
def test_criterion_2_table_counts(n, quads, vin, vout):
    mesh = grid_quads(n)
    out, _ = reindex(mesh)
    ok = (mesh.n_elements, mesh.n_vertices, out.n_vertices) == (quads, vin, vout)
    _report(f"criterion 2: grid counts N={n} "
            f"({mesh.n_elements}/{mesh.n_vertices}/{out.n_vertices})", ok)


def test_criterion_3_parallel_speedup():
    # reindex runs on one thread, so the ratio does not depend on the core count
    record = run_bench([1024], reps=5)[0]
    speedup = record.t_serial_ms / record.t_parallel_ms
    _report(f"criterion 3: N=1024 speedup {speedup:.2f}x "
            f"(serial {record.t_serial_ms:.0f} ms, parallel "
            f"{record.t_parallel_ms:.0f} ms)", speedup >= 2.0)


def test_criterion_4_property_suite_1000_meshes():
    fractions = [0.0, 0.25, 0.5]
    failures = []
    for seed in range(1000):
        spec = RandomMeshSpec(
            seed=seed,
            dup_fraction=fractions[seed % 3],
            unused_fraction=fractions[(seed // 3) % 3],
            arity=[3, 4][(seed // 9) % 2])
        report = check_all(random_mesh(spec))
        if not all(report.values()):
            failures.append((seed, {k: v for k, v in report.items() if not v}))
    _report(f"criterion 4: check_all on 1000 seeded meshes "
            f"({len(failures)} failures)", not failures)


def test_criterion_5_use_case_laws():
    bad = 0
    for seed in range(100):
        arity = [3, 4][seed % 2]
        parts = [random_mesh(RandomMeshSpec(seed=seed * 10 + k, arity=arity))
                 for k in range(3)]
        merged = merge(parts)
        if not soups_equal(dereference(merged),
                           np.vstack([dereference(p) for p in parts])):
            bad += 1
            continue
        soup = dereference(parts[0])
        if not soups_equal(dereference(soup_to_mesh(soup)), soup):
            bad += 1
            continue
        mesh = parts[1]
        keep = [e for e in range(mesh.n_elements) if (e + seed) % 3]
        if not soups_equal(dereference(subset(mesh, keep)),
                           dereference(mesh)[keep]):
            bad += 1
    _report(f"criterion 5: merge/soup/subset laws on 100 seeds ({bad} failures)",
            bad == 0)


def test_criterion_6_io_round_trips(tmp_path):
    bad = 0
    for seed in range(50):
        mesh = random_mesh(RandomMeshSpec(
            seed=seed, arity=[3, 4][seed % 2], dim=[2, 3][(seed // 2) % 2]))
        rmx = tmp_path / f"m{seed}.rmx"
        write_bin(mesh, rmx)
        if not bitwise_equal(read_bin(rmx), mesh):
            bad += 1
            continue
        obj = tmp_path / f"m{seed}.obj"
        write_obj(mesh, obj)
        if not bitwise_equal(read_obj(obj, dim=mesh.dim), mesh):
            bad += 1
    _report(f"criterion 6: 50 binary + OBJ round trips ({bad} failures)", bad == 0)
