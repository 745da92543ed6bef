"""One benchmark process: import remeshx, run the cold op, then the timed closed loop.

Usage: ``python3 worker.py CONFIG.json``, with the work directory as the
current directory.  The config names the op's CLI calls and outputs, how long
to measure and whether to trace; the result goes to the file the config names.

One client, closed loop: the next op starts only after the previous one has
returned and its outputs have been digested.  Nothing heavy is imported before
``import remeshx``, so the import time includes numpy.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def file_digest(outputs, stdout: str) -> str:
    """Digest of every output file's bytes plus the op's standard output."""
    h = hashlib.blake2b(digest_size=16)
    for path in outputs:
        try:
            h.update(Path(path).read_bytes())
        except FileNotFoundError:
            h.update(b"<missing>")
    h.update(stdout.encode())
    return h.hexdigest()


def command_of(argv: list[str]) -> str:
    return next(a for a in argv if not a.startswith("-"))


def clear(outputs) -> None:
    """Remove the previous op's outputs, so an op that writes nothing cannot pass."""
    for path in outputs:
        Path(path).unlink(missing_ok=True)


def run_op(cli_main, argvs, span=None) -> tuple[int, str]:
    """Run the op's CLI calls in order, capturing stdout; stop at the first non-zero exit."""
    buf = io.StringIO()
    rc = 0
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            with span(f"cli.{command_of(argv)}") if span else contextlib.nullcontext():
                rc = cli_main(list(argv))
            if rc:
                break
    return rc, buf.getvalue()


def timed_op(cli_main, argvs, outputs) -> tuple[dict, str]:
    """One untraced op: its sample (time, exit code, output digest) and its stdout."""
    clear(outputs)
    start = time.perf_counter()
    rc, stdout = run_op(cli_main, argvs)
    ms = (time.perf_counter() - start) * 1e3
    return {"ms": ms, "rc": rc, "digest": file_digest(outputs, stdout)}, stdout


def keep_going(start: float, seconds: float, done: int, min_done: int, deadline: float) -> bool:
    if time.time() > deadline:
        return False
    return time.perf_counter() - start < seconds or done < min_done


def max_rss_kb() -> int:
    """Peak RSS of this process in KiB.

    ``VmHWM`` belongs to the address space made at exec.  ``ru_maxrss`` is
    kept across exec, so in a child it can report the parent's larger peak;
    it is the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def traced_loop(cfg, cli_main, rx) -> dict:
    """Alternate untraced and traced ops; then probe the layers the op never called."""
    from spans import Tracer

    tracer = Tracer()
    argvs, outputs = cfg["argvs"], cfg["outputs"]
    ops, w1_ms = [], []
    start = time.perf_counter()
    k = 0
    while keep_going(start, cfg["seconds"], k, cfg["min_ops"], cfg["deadline"]):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced:
                ops.append({**timed_op(cli_main, argvs, outputs)[0], "traced": False})
                continue
            tracer.op = k
            clear(outputs)
            root = len(tracer.spans)
            with tracer.patched(), tracer.span("op"):
                rc, stdout = run_op(cli_main, argvs, span=tracer.span)
            _, _, t0, t1, *_ = tracer.spans[root]
            ops.append({"ms": (t1 - t0) * 1e3, "rc": rc, "traced": True, "op": k,
                        "digest": file_digest(outputs, stdout)})
        if tracer.last_reindex is None:
            break  # the op failed before re-indexing; the failure is in ops
        if hasattr(rx, "set_num_workers"):
            # the same reindex input with one worker; the default count ran inside the op
            rx.set_num_workers(1)
            try:
                t = time.perf_counter()
                rx.reindex(tracer.last_reindex[0])
                w1_ms.append((time.perf_counter() - t) * 1e3)
            finally:
                rx.set_num_workers(None)
        k += 1

    if tracer.last_reindex is not None:
        probe_uncalled(tracer, rx, cli_main, outputs)
    tracer.write(cfg["spans_path"])
    return {"ops": ops, "w1_ms": w1_ms}


def probe_uncalled(tracer, rx, cli_main, outputs) -> None:
    """Make, once and traced, each layer call the op never made, on the op's own data."""
    mesh, out = tracer.last_reindex
    seen = {s[1] for s in tracer.spans}
    probes = {
        "mesh.dereference": lambda: rx.dereference(mesh),
        "ops.merge": lambda: rx.merge([mesh]),
        "ops.soup_to_mesh": lambda: rx.soup_to_mesh(rx.dereference(out)),
        "cli.stats": lambda: run_op(cli_main, [["stats", outputs[0]]], span=tracer.span),
    }
    for name, probe in probes.items():
        if name not in seen:
            tracer.op = f"probe:{name}"
            with tracer.patched():
                probe()
    tracer.last_reindex = None


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, cfg["src"])
    start = time.perf_counter()
    import remeshx as rx
    from remeshx.cli import main as cli_main
    import_s = time.perf_counter() - start
    rss_import = max_rss_kb()

    argvs, outputs = cfg["argvs"], cfg["outputs"]
    cold, cold_stdout = timed_op(cli_main, argvs, outputs)
    if cfg["keep_cold"]:
        for name in outputs:
            shutil.copyfile(name, f"cold-{name}")

    result = {"import_s": import_s, "cold": cold, "cold_stdout": cold_stdout,
              "workers": rx.num_workers() if hasattr(rx, "num_workers") else 1,
              "rss_import_kb": rss_import}
    if cfg["trace"]:
        result.update(traced_loop(cfg, cli_main, rx))
    else:
        ops = []
        loop_start = time.perf_counter()
        while keep_going(loop_start, cfg["seconds"], len(ops), cfg["min_ops"], cfg["deadline"]):
            ops.append(timed_op(cli_main, argvs, outputs)[0])
        result["ops"] = ops
    result["max_rss_kb"] = max_rss_kb()
    Path(cfg["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
