"""File-to-file benchmark of the remeshx CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_quads_rmx --seed 1 --seconds 45 --trace 0

Each workload is one ``remeshx`` op, file in to file out, run in-process
through ``remeshx.cli.main`` by one client in a closed loop.  Inputs are made
from the seed in this process; the ops run in fresh child processes
(``worker.py``), so input generation and the serial oracle do not count in the
program's memory or set-up time.

``--trace 0`` runs three child processes one after another, each importing
remeshx, running one cold op and then its share of the timed loop, and
prints the end-to-end metrics.  ``--trace 1`` runs one child that alternates
untraced ops with traced ones and prints the per-layer metrics.

Before any figure is reported, the cold op's output must be equivalent to the
serial oracle ``reindex_serial`` (and have the exact grid count where the
layout fixes it).
Every later op's outputs are digested and compared with the cold op's; an op
that differs or exits non-zero is failed and its time is not used.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report, and
the spans of a traced run, are written under ``perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILDREN = 3       # fresh processes per untraced run; setup_s is their median
MIN_OPS = 11       # so that some percentile has at least 10 samples beyond it
TRACE_MIN_OPS = 3  # traced iterations per traced run
RUN_LIMIT_S = 165  # every child stops timing ops once the run has lasted this long

END_TO_END = {  # name -> unit
    "op_p50_ms": "ms", "op_tail_ms": "ms", "vertices_per_s": "1/s",
    "peak_rss_mb": "MiB", "setup_s": "s", "ok_op_ratio": "ratio",
}

PROBE_ONLY = "none: no workload's op calls it; a probe measures it"
STAGE_NAMES = ("mark", "overwrite", "sort", "flag", "scan", "compact", "invert", "remap")
PER_LAYER = {  # name -> (unit, the end-to-end metric it should move, and where)
    **{f"pipeline.{s}_ms": ("ms", "op_p50_ms, vertices_per_s on grid_quads_rmx, tri_soup3d_rmx")
       for s in STAGE_NAMES},
    "pipeline.reindex_ms": ("ms", "op_p50_ms, vertices_per_s on grid_quads_rmx, tri_soup3d_rmx"),
    "pipeline.gap_ms": ("ms", "op_p50_ms on grid_quads_rmx (reindex time outside the stages)"),
    "pipeline.vertices_in": ("count", "exact; a change is a correctness failure"),
    "pipeline.unused": ("count", "exact; a change is a correctness failure"),
    "pipeline.duplicates": ("count", "exact; a change is a correctness failure"),
    "pipeline.vertices_out": ("count", "exact; a change is a correctness failure"),
    "pipeline.kept_ratio": ("ratio", "exact; a change is a correctness failure"),
    "primitives.sort_keys_per_s": ("1/s", "op_p50_ms on tri_soup3d_rmx most, grid_quads_rmx next"),
    "primitives.sort_share": ("ratio", "op_p50_ms on tri_soup3d_rmx most, grid_quads_rmx next"),
    "mesh.validate_ms": ("ms", "op_p50_ms, peak_rss_mb on grid_quads_rmx"),
    "mesh.construct_ms": ("ms", "op_p50_ms, peak_rss_mb on grid_quads_rmx"),
    "mesh.dereference_ms": ("ms", "op_p50_ms, peak_rss_mb on tri_soup3d_rmx"),
    "parallel.workers": ("count", "op_p50_ms on grid_quads_rmx"),
    "parallel.reindex_w1_ms": ("ms", "op_p50_ms on grid_quads_rmx"),
    "parallel.speedup": ("ratio", "op_p50_ms on grid_quads_rmx"),
    "fileio.read_ms": ("ms", "op_p50_ms on every workload, by 15% or less"),
    "fileio.write_ms": ("ms", "op_p50_ms on every workload, by 15% or less"),
    "fileio.bytes_read": ("bytes", "exact for a given output format"),
    "fileio.bytes_written": ("bytes", "exact for a given output format"),
    "fileio.read_mb_s": ("MB/s", "op_p50_ms on every workload, by 15% or less"),
    "fileio.write_mb_s": ("MB/s", "op_p50_ms on every workload, by 15% or less"),
    "ops.merge_ms": ("ms", PROBE_ONLY),
    "ops.merge_concat_ms": ("ms", PROBE_ONLY),
    "ops.soup_to_mesh_ms": ("ms", "op_p50_ms on tri_soup3d_rmx"),
    "cli.stats_ms": ("ms", PROBE_ONLY),
    "cli.overhead_ms": ("ms", "op_p50_ms on every workload (cli self time outside stats)"),
    "serial.reindex_ms": ("ms", "none: the single-threaded baseline"),
    "serial.speedup": ("ratio", "none: serial.reindex_ms over pipeline.reindex_ms"),
    "trace.overhead_ratio": ("ratio", "none: traced op_p50_ms over untraced op_p50_ms"),
}

# per-layer figures some ops never produce, and the probe that measures them instead
PROBED = {"mesh.dereference_ms": "probe:mesh.dereference", "ops.merge_ms": "probe:ops.merge",
          "ops.merge_concat_ms": "probe:ops.merge", "ops.soup_to_mesh_ms": "probe:ops.soup_to_mesh",
          "cli.stats_ms": "probe:cli.stats"}


class GateError(Exception):
    """The program's output failed the correctness gate."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least 10 samples above it.

    Returns (value, percentile, samples above it).  With fewer than 11 samples
    no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 11 if n >= MIN_OPS else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def cache_sizes() -> dict[str, int]:
    """Unified/data cache sizes in bytes by level, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def env_record(root: Path, workers: int, numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    caches = cache_sizes()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "workers": workers, "l2_bytes": caches.get("L2"), "l3_bytes": caches.get("L3"),
            "machine": platform.machine(), "git_commit": commit}


def spawn(cfg: dict, work: Path, run_start: float) -> dict:
    """Run one worker process to completion and return its result."""
    cfg_path = work / f"config-{cfg['tag']}.json"
    cfg_path.write_text(json.dumps(cfg))
    timeout = max(5.0, RUN_LIMIT_S + 10 - (time.time() - run_start))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                          cwd=work, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cfg['tag']} exited with code {proc.returncode}")
    return json.loads(Path(cfg["result_path"]).read_text())


def gate(case, work: Path, cold_stdout: str) -> dict:
    """Check the cold op's saved outputs against the serial oracle; returns oracle facts."""
    import numpy as np
    import remeshx as rx
    from workloads import read_mesh
    from worker import file_digest

    cold_files = [work / f"cold-{name}" for name in case.outputs]
    out = read_mesh(cold_files[-1])
    mesh = case.reindex_input()
    start = time.perf_counter()
    serial = rx.reindex_serial(mesh)
    serial_ms = (time.perf_counter() - start) * 1e3
    if not rx.equivalent(out, serial):
        raise GateError("output is not equivalent to the serial oracle")
    if case.expected_vertices_out is not None and out.n_vertices != case.expected_vertices_out:
        raise GateError(f"{out.n_vertices} output vertices, expected {case.expected_vertices_out}")
    used = np.zeros(mesh.n_vertices, bool)
    used[mesh.elements.reshape(-1)] = True
    unused = mesh.n_vertices - int(used.sum())
    counts = {"pipeline.vertices_in": mesh.n_vertices, "pipeline.unused": unused,
              "pipeline.duplicates": mesh.n_vertices - unused - serial.n_vertices,
              "pipeline.vertices_out": serial.n_vertices}
    return {"serial_ms": serial_ms, "counts": counts,
            "digest": file_digest(cold_files, cold_stdout),
            "output_bytes": sum(p.stat().st_size for p in cold_files)}


def failed(sample: dict, digest: str) -> bool:
    return sample["rc"] != 0 or sample["digest"] != digest


def end_to_end(results: list[dict], case, digest: str) -> tuple[dict, int, int, dict]:
    cold = [r["cold"] for r in results]
    timed = [s for r in results for s in r["ops"]]
    checked = cold + timed
    n_failed = sum(failed(s, digest) for s in checked)
    good = [s["ms"] for s in timed if not failed(s, digest)]
    if not good:
        raise GateError("every timed op failed its check")
    value, pct, beyond = tail(good)
    metrics = {
        "op_p50_ms": statistics.median(good),
        "op_tail_ms": value,
        "vertices_per_s": case.vertices_in * len(good) / (sum(s["ms"] for s in timed) / 1e3),
        "peak_rss_mb": statistics.median(r["max_rss_kb"] / 1024 for r in results),
        "setup_s": statistics.median(r["import_s"] + r["cold"]["ms"] / 1e3 for r in results),
        "ok_op_ratio": (len(checked) - n_failed) / len(checked),
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {len(good)} samples, {beyond} beyond",
             "ok_op_ratio": f"failed_op_ratio {n_failed / len(checked):.4f} "
                            f"({n_failed} of {len(checked)}, cold ops included)",
             "setup_s": "median of " + ", ".join(
                 f"{r['import_s']:.3f}+{r['cold']['ms'] / 1e3:.3f}" for r in results)
                 + " s (import + cold op)"}
    return metrics, len(checked), n_failed, notes


def per_layer(result: dict, spans: list[dict], oracle: dict, digest: str
              ) -> tuple[dict, int, int, dict]:
    from spans import per_op_medians

    ops = result["ops"]
    checked = [result["cold"]] + ops
    n_failed = sum(failed(s, digest) for s in checked)
    traced_ids = [s["op"] for s in ops if s["traced"] and not failed(s, digest)]
    if not traced_ids:
        raise GateError("every traced op failed its check")
    fig = per_op_medians(spans, traced_ids)
    notes = {}
    for metric, probe in PROBED.items():
        if metric not in fig:
            fig[metric] = per_op_medians(spans, [probe]).get(metric, 0.0)
            notes[metric] = f"probe: the op does not call it; measured once on the op's data"
    for key, want in oracle["counts"].items():
        if fig.get(key) != want:
            raise GateError(f"{key} traced {fig.get(key)}, oracle gives {want}")
    untraced = [s["ms"] for s in ops if not s["traced"] and not failed(s, digest)]
    traced = [s["ms"] for s in ops if s["traced"] and not failed(s, digest)]
    # a program without a worker setting runs reindex on one worker already
    w1 = statistics.median(result["w1_ms"] or [fig["pipeline.reindex_ms"]])
    metrics = {name: fig.get(name, 0.0) for name in PER_LAYER}
    metrics.update({
        "parallel.workers": result["workers"],
        "parallel.reindex_w1_ms": w1,
        "parallel.speedup": w1 / fig["pipeline.reindex_ms"],
        "serial.reindex_ms": oracle["serial_ms"],
        "serial.speedup": oracle["serial_ms"] / fig["pipeline.reindex_ms"],
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    })
    notes["trace.overhead_ratio"] = (
        f"traced p50 {statistics.median(traced):.1f} ms over untraced p50 "
        f"{statistics.median(untraced):.1f} ms, {len(traced)}+{len(untraced)} ops alternating "
        "in one process")
    notes["serial.reindex_ms"] = "one call, timed in the benchmark process during the gate"
    notes["layer self time (ms)"] = ", ".join(
        f"{layer} {fig.get(f'{layer}.self_ms', 0.0):.1f}" for layer in
        ("cli", "fileio", "ops", "mesh", "pipeline", "primitives", "parallel"))
    return metrics, len(checked), n_failed, notes


def fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def print_table(title: str, metrics: dict, units: dict, notes: dict, extra: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        line = f"  {name:<{width}}  {fmt(value):>12} {units[name]:<6}"
        if name in extra:
            line += f"  moves: {extra[name]}"
        if name in notes:
            line += f"  [{notes[name]}]"
        print(line)
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "remeshx" / "__init__.py").is_file():
        print(f"run.py: {src / 'remeshx'} not found; run from the root of a remeshx checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import remeshx as rx
    if Path(rx.__file__).resolve().parent != (src / "remeshx").resolve():
        print(f"run.py: imported remeshx from {rx.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_start = time.time()
    out_dir = root / "perfbench-out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        start = time.perf_counter()
        case = WORKLOADS[args.workload].build(work, args.seed)
        gen_s = time.perf_counter() - start
        base = {"src": str(src), "argvs": case.argvs, "outputs": case.outputs,
                "deadline": run_start + RUN_LIMIT_S, "trace": bool(args.trace),
                "spans_path": str(out_dir / f"spans-{tag}.jsonl")}
        n_children = 1 if args.trace else CHILDREN
        results, oracle, oracle_s = [], None, 0.0
        for k in range(n_children):
            cfg = {**base, "tag": str(k), "keep_cold": k == 0,
                   "seconds": args.seconds / n_children,
                   "min_ops": TRACE_MIN_OPS if args.trace else math.ceil(MIN_OPS / n_children),
                   "result_path": str(work / f"result-{k}.json")}
            results.append(spawn(cfg, work, run_start))
            if k == 0:
                start = time.perf_counter()
                oracle = gate(case, work, results[0]["cold_stdout"])
                oracle_s = time.perf_counter() - start
        if args.trace:
            from spans import load_spans
            metrics, attempted, n_failed, notes = per_layer(
                results[0], load_spans(base["spans_path"]), oracle, oracle["digest"])
            units = {k: v[0] for k, v in PER_LAYER.items()}
            moves = {k: v[1] for k, v in PER_LAYER.items()}
        else:
            metrics, attempted, n_failed, notes = end_to_end(results, case, oracle["digest"])
            units, moves = END_TO_END, {}
    except GateError as exc:
        print(f"run.py: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = env_record(root, results[0]["workers"], np.__version__)
    working_set = statistics.median(
        (r["max_rss_kb"] - r["rss_import_kb"]) * 1024 for r in results)
    llc = env["l3_bytes"] or float("nan")
    ws_note = (f"working set ~{working_set / 2**20:.0f} MiB (peak RSS growth after import), "
               f"input {case.input_bytes / 2**20:.1f} MiB, output "
               f"{oracle['output_bytes'] / 2**20:.1f} MiB; LLC {llc / 2**20:.0f} MiB: "
               + ("at least 4x LLC" if working_set >= 4 * llc else
                  "below 4x LLC, so the memory-bandwidth rule is not met and no bandwidth "
                  "figure is claimed"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"closed loop, 1 client, {len(results)} fresh process(es); ops checked {attempted}, "
          f"failed {n_failed}")
    print_table("end-to-end (tracing off)" if not args.trace else
                "per layer (traced ops, median per op)", metrics, units, notes, moves)
    print(f"benchmark overhead: inputs {gen_s:.2f} s, oracle gate {oracle_s:.2f} s "
          f"(serial reindex {oracle['serial_ms'] / 1e3:.2f} s)")
    print(ws_note)
    print("env " + json.dumps(env))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "notes": notes,
              "working_set_bytes": working_set, "gen_s": gen_s, "oracle_s": oracle_s,
              "samples": [[s["ms"] for s in r["ops"]] for r in results]}
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
