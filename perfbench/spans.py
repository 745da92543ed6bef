"""Spans recorded around calls into remeshx's layers, and the per-layer figures derived from them.

The program is not instrumented.  :func:`Tracer.patched` rebinds every public
function of each layer module, wherever a ``remeshx`` module holds a reference
to it, to a wrapper that records a span; leaving the block restores the
originals.  A span is ``(id, name, start, end, parent, op, attrs)``.  Spans stay
in memory until :meth:`Tracer.write` at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable

LAYERS = ("cli", "fileio", "ops", "mesh", "pipeline", "primitives", "parallel", "serial")

# reindex's stages in call order, as (metric name, pipeline function)
STAGES = (("mark", "mark_used"), ("overwrite", "overwrite_unused"),
          ("sort", "compute_sort_permutation"), ("flag", "flag_first_occurrences"),
          ("scan", "compute_new_indices"), ("compact", "compact_vertices"),
          ("invert", "invert_permutation"), ("remap", "remap_elements"))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _reindex_counts(args, result) -> dict:
    mesh, (out, scratch) = args[0], result
    unused = mesh.n_vertices - int(scratch.is_used.sum())
    return {"vertices_in": mesh.n_vertices, "unused": unused,
            "duplicates": mesh.n_vertices - unused - out.n_vertices,
            "vertices_out": out.n_vertices}


# counts recorded at a boundary, computed after the span has closed
_COUNTS: dict[str, Callable] = {
    "fileio.read_bin": lambda args, result: {"bytes": _file_size(args[0])},
    "fileio.read_obj": lambda args, result: {"bytes": _file_size(args[0])},
    "fileio.write_bin": lambda args, result: {"bytes": _file_size(args[1])},
    "fileio.write_obj": lambda args, result: {"bytes": _file_size(args[1])},
    "primitives.key_value_sort": lambda args, result: {"keys": len(args[0])},
    "pipeline.reindex": _reindex_counts,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self.last_reindex = None  # (input mesh, output mesh) of the latest reindex call
        self._local = threading.local()
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on close
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (sid, name, start - self._t0, end - self._t0,
                               parent, self.op, attrs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if count is not None:
                attrs.update(count(args, result))
            if name == "pipeline.reindex":
                self.last_reindex = (args[0], result[0])
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every public layer function everywhere remeshx binds it."""
        originals: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"remeshx.{layer}")
            except ModuleNotFoundError:
                continue  # a layer the program no longer has
            for attr, fn in vars(module).items():
                if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                        and getattr(fn, "__module__", None) == module.__name__):
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "remeshx" or n.startswith("remeshx."))]
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        # Mesh's dataclass __init__ looks __post_init__ up on the class at each call
        mesh_cls = sys.modules["remeshx.mesh"].Mesh
        post_init = vars(mesh_cls).get("__post_init__")
        if post_init is not None:
            mesh_cls.__post_init__ = self.wrap("mesh.construct", post_init)
        try:
            yield
        finally:
            if post_init is not None:
                mesh_cls.__post_init__ = post_init
            for module, attr, value in undo:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for sid, name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op,
                                         **attrs}) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans (seconds)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ms(s: dict) -> float:
    return (s["end"] - s["start"]) * 1e3


def op_figures(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one op's spans (times in ms, counts as numbers)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def total(name: str, under: str | None = None) -> float:
        return sum(_ms(s) for s in spans if s["name"] == name
                   and (under is None or by_id.get(s["parent"], {}).get("name") == under))

    def count(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    f: dict[str, float] = {}
    reindex = total("pipeline.reindex")
    f["pipeline.reindex_ms"] = reindex
    stage_sum = 0.0
    for metric, fn in STAGES:
        f[f"pipeline.{metric}_ms"] = total(f"pipeline.{fn}", under="pipeline.reindex")
        stage_sum += f[f"pipeline.{metric}_ms"]
    f["pipeline.gap_ms"] = reindex - stage_sum
    for key in ("vertices_in", "unused", "duplicates", "vertices_out"):
        f[f"pipeline.{key}"] = count("pipeline.reindex", key)
    if f["pipeline.vertices_in"]:
        f["pipeline.kept_ratio"] = f["pipeline.vertices_out"] / f["pipeline.vertices_in"]

    sort_ms = total("primitives.key_value_sort")
    if sort_ms:
        f["primitives.sort_keys_per_s"] = count("primitives.key_value_sort", "keys") / sort_ms * 1e3
    if reindex:
        f["primitives.sort_share"] = sort_ms / reindex

    f["mesh.validate_ms"] = total("mesh.require_valid") + total("mesh.validate")
    f["mesh.construct_ms"] = total("mesh.construct")

    for kind, done in (("read", "read"), ("write", "written")):
        ms = total(f"fileio.{kind}_bin") + total(f"fileio.{kind}_obj")
        size = count(f"fileio.{kind}_bin", "bytes") + count(f"fileio.{kind}_obj", "bytes")
        f[f"fileio.{kind}_ms"] = ms
        f[f"fileio.bytes_{done}"] = size
        if ms:
            f[f"fileio.{kind}_mb_s"] = size / 1e6 / (ms / 1e3)

    # calls that only some workloads' ops make; absent here means "not called"
    names = {s["name"] for s in spans}
    if "mesh.dereference" in names:
        f["mesh.dereference_ms"] = total("mesh.dereference")
    if "ops.merge" in names:
        f["ops.merge_ms"] = total("ops.merge")
        f["ops.merge_concat_ms"] = f["ops.merge_ms"] - total("pipeline.reindex", under="ops.merge")
    if "ops.soup_to_mesh" in names:
        f["ops.soup_to_mesh_ms"] = total("ops.soup_to_mesh")
    if "cli.stats" in names:
        f["cli.stats_ms"] = total("cli.stats")

    f["cli.overhead_ms"] = sum(selfs[s["id"]] * 1e3 for s in spans
                               if s["name"].startswith("cli.") and s["name"] != "cli.stats")
    for layer in LAYERS:
        f[f"{layer}.self_ms"] = sum(selfs[s["id"]] * 1e3 for s in spans
                                    if s["name"].split(".")[0] == layer)
    return f


def per_op_medians(spans: list[dict], ops) -> dict[str, float]:
    """Median over ``ops`` of each figure; figures absent from every op are left out."""
    grouped: dict = {}
    for s in spans:
        grouped.setdefault(s["op"], []).append(s)
    rows = [op_figures(grouped.get(op, [])) for op in ops]
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row[k] for row in rows if k in row) for k in sorted(keys)}
