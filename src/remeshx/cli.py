"""Command-line interface exposing every operation to shell pipelines.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from . import fileio
from .mesh import InvalidMeshError, Mesh, MeshError, blocks
from .ops import merge, soup_to_mesh, subset
from .pipeline import reindex

_FORMATS = {"obj", "bin"}


def _infer_format(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".obj"):
        return "obj"
    if path.endswith(".rmx"):
        return "bin"
    raise MeshError(f"{path}: cannot infer format from extension (use --format)")


def _load(path: str, args, return_groups: bool = False):
    fmt = _infer_format(path, args.format)
    if fmt == "obj":
        return fileio.read_obj(path, dim=args.dim, return_groups=return_groups)
    mesh = fileio.read_bin(path)
    return (mesh, {}) if return_groups else mesh


def _save(mesh: Mesh, path: str, args) -> None:
    if _infer_format(path, args.format) == "obj":
        fileio.write_obj(mesh, path)
    else:
        fileio.write_bin(mesh, path)


def _parse_ranges(text: str) -> list[tuple[int, int]]:
    """argparse type for ``--keep``: "0-3,7,9" -> inclusive (lo, hi) ranges in input order."""
    ranges = []
    try:
        for part in filter(None, (p.strip() for p in text.split(","))):
            lo, dash, hi = part.partition("-")
            lo = int(lo)
            hi = int(hi) if dash else lo
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            ranges.append((lo, hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range list {text!r}") from None
    if not ranges:
        raise argparse.ArgumentTypeError(f"{text!r} selects no elements")
    return ranges


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer >= 1 (argparse reports a ValueError as usage)."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_sizes(text: str) -> list[int]:
    """argparse type for ``--sizes``: "8,64,1024" -> grid sizes, each >= 1."""
    return [_positive_int(s) for s in text.split(",")]


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_result(out: Mesh, args) -> int:
    _save(out, args.output, args)
    _say(args, f"{args.output}: {out.n_vertices} vertices, {out.n_elements} elements")
    return 0


def _cmd_reindex(args) -> int:
    return _write_result(reindex(_load(args.input, args))[0], args)


def _cmd_merge(args) -> int:
    return _write_result(merge([_load(p, args) for p in args.inputs]), args)


def _cmd_soup(args) -> int:
    from .mesh import dereference
    return _write_result(soup_to_mesh(dereference(_load(args.input, args))), args)


def _cmd_subset(args) -> int:
    mesh, groups = _load(args.input, args, return_groups=True)
    if args.group is not None:
        if args.group not in groups:
            raise MeshError(f"group {args.group!r} not present in {args.input}")
        keep = np.asarray(groups[args.group], dtype=np.int64)
    else:
        last = max(hi for _, hi in args.keep)
        if last >= mesh.n_elements:
            raise MeshError(f"--keep position {last} out of range [0, {mesh.n_elements})")
        keep = np.zeros(mesh.n_elements, dtype=bool)
        for lo, hi in args.keep:
            keep[lo:hi + 1] = True
    held = [keep, mesh]  # subset is the only holder of the mesh and keep, so it can free them
    del mesh, groups, keep
    return _write_result(subset(held.pop(), held.pop()), args)


def _cmd_gen(args) -> int:
    mesh = bench_mod.grid_quads(args.n)
    _save(mesh, args.output, args)
    _say(args, f"{args.output}: {mesh.n_vertices} vertices, {mesh.n_elements} quads")
    return 0


def _cmd_bench(args) -> int:
    records = bench_mod.run_bench(args.sizes, reps=args.reps)
    if not args.quiet:
        print(bench_mod.format_table(records))
    if args.csv:
        with open(args.csv, "w") as handle:
            bench_mod.write_csv(records, handle)
    return 0


def _cmd_validate(args) -> int:
    try:
        _load(args.input, args)
    except InvalidMeshError as exc:
        # one block of lines per % format, straight from the error's arrays
        line = "element %d slot %d: index %d out of range\n"
        for rows in blocks(len(exc.index)):
            block = np.stack([a[rows] for a in (exc.element, exc.slot, exc.index)], axis=1)
            sys.stderr.write(line * len(block) % tuple(block.ravel().tolist()))
        _say(args, f"{args.input}: {len(exc.index)} issue(s)")
        return 1
    _say(args, f"{args.input}: OK")
    return 0


def _cmd_stats(args) -> int:
    # a temporary input: the output has its dim, arity and element count
    out, scratch = reindex(_load(args.input, args))
    counts = scratch.counts
    print(f"vertices:  {counts['vertices_in']} (dim {out.dim})")
    print(f"elements:  {out.n_elements} (arity {out.arity})")
    print(f"duplicate vertices: {counts['duplicates']}")
    print(f"unused vertices:    {counts['unused']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remeshx",
                                     description="Indexed-mesh re-indexing toolkit")
    parser.add_argument("--format", choices=sorted(_FORMATS), default=None,
                        help="force file format instead of inferring from extension")
    parser.add_argument("--dim", type=int, choices=(2, 3), default=None,
                        help="OBJ vertex dimension (default: inferred)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reindex", help="remove duplicate and unused vertices")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_reindex)

    p = sub.add_parser("merge", help="merge meshes, welding shared vertices")
    p.add_argument("inputs", nargs="+")
    p.add_argument("output")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("soup", help="rebuild indexing from scratch (elements as fat tuples)")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_soup)

    p = sub.add_parser("subset", help="compact mesh of selected elements")
    p.add_argument("input")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep", type=_parse_ranges, metavar="RANGES",
                       help="element positions, e.g. 0-3,7,9")
    group.add_argument("--group", metavar="NAME", help="OBJ group/material name")
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser("gen", help="generate the N x N benchmark quad grid")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time serial vs parallel re-indexing")
    p.add_argument("--sizes", type=_parse_sizes, required=True, metavar="N,N,...")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--csv", metavar="PATH", help="also write a CSV report")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="check all element indices are in range")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="print vertex/element/duplicate/unused counts")
    p.add_argument("input")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "output"):
            _infer_format(args.output, args.format)  # refuse before reading any input
        return args.func(args)
    except (MeshError, OSError) as exc:
        print(f"remeshx: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the library lets it through: it says nothing about the input
        print(f"remeshx: error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
