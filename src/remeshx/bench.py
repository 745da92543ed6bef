"""Benchmark mesh generator and the timing harness.

``grid_quads(n)`` builds an n-by-n quad grid where every quad replicates its
four corner vertices (shared positions, separate storage) and adds one unused
center vertex, so 5n^2 vertices go in and exactly (n+1)^2 come out of
re-indexing.  ``run_bench`` times the serial baseline against the parallel
pipeline and refuses to report a run whose output count is wrong.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from .mesh import MAX_VERTICES, Mesh, MeshError, size_value
from .pipeline import reindex
from .serial import reindex_serial

CSV_HEADER = "n,quads_in,vertices_in,vertices_out,t_serial_ms,t_parallel_ms,threads"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row (timings are medians over the requested repetitions)."""

    n: int
    quads_in: int
    vertices_in: int
    vertices_out: int
    t_serial_ms: float
    t_parallel_ms: float
    threads: int

    def csv_row(self) -> str:
        return (f"{self.n},{self.quads_in},{self.vertices_in},{self.vertices_out},"
                f"{self.t_serial_ms:.3f},{self.t_parallel_ms:.3f},{self.threads}")


def grid_quads(n: int) -> Mesh:
    """n x n grid of quads, 5 vertices stored per quad (4 corners + unused center)."""
    n = size_value(n, "grid size", 1)
    if 5 * n * n >= MAX_VERTICES:
        raise MeshError(f"grid size must give under 2**32 vertices (5 n^2), got {n}")
    quads = n * n
    q = np.arange(quads, dtype=np.int64)
    qi = (q % n).astype(np.float32)
    qj = (q // n).astype(np.float32)

    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=np.float32)
    vertices = np.stack([qi, qj], axis=1)[:, None, :] + corners
    base = np.arange(quads, dtype=np.uint32)[:, None] * 5
    elements = base + np.array([0, 1, 2, 3], dtype=np.uint32)
    return Mesh(vertices.reshape(quads * 5, 2), elements)


def _time_median(fn, reps: int) -> float:
    fn()  # warm-up, untimed
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def run_bench(sizes: list[int], reps: int = 5) -> list[BenchRecord]:
    """Generate each grid once, time both paths, verify counts, and report."""
    reps = size_value(reps, "reps", 1)
    records = []
    for n in sizes:
        mesh = grid_quads(n)
        expected = (n + 1) ** 2
        out, _ = reindex(mesh)
        if out.n_vertices != expected:
            raise MeshError(
                f"N={n}: got {out.n_vertices} output vertices, expected {expected}; "
                "refusing to report")
        t_parallel = _time_median(lambda: reindex(mesh), reps)
        t_serial = _time_median(lambda: reindex_serial(mesh), reps)
        records.append(BenchRecord(
            n=n, quads_in=mesh.n_elements, vertices_in=mesh.n_vertices,
            vertices_out=out.n_vertices, t_serial_ms=t_serial,
            t_parallel_ms=t_parallel, threads=1))
    return records


def write_csv(records: list[BenchRecord], stream) -> None:
    """Emit the fixed-schema CSV to an open text stream."""
    stream.write(CSV_HEADER + "\n")
    for record in records:
        stream.write(record.csv_row() + "\n")


def format_table(records: list[BenchRecord]) -> str:
    """Human-readable table for terminal output."""
    names = [f.name for f in fields(BenchRecord)]
    rows = [[f"{getattr(r, c):.3f}" if isinstance(getattr(r, c), float)
             else str(getattr(r, c)) for c in names] for r in records]
    widths = [max(len(n), *(len(row[i]) for row in rows)) if rows else len(n)
              for i, n in enumerate(names)]
    lines = ["  ".join(n.rjust(w) for n, w in zip(names, widths))]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
