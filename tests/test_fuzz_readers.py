"""Seeded fuzz gate for the file readers: mutated small OBJ and RMX files fail closed.

Each mutant is a seed file with one to three mutations: a flipped bit, an inserted
directive or number token, a deleted span, or a repeat of a span spliced in
elsewhere.  Reading one, and re-indexing what was read, may raise only
``MeshError``; ``remeshx stats`` on it returns 0, 1 or 2 and never raises.
"""
import numpy as np

from remeshx import Mesh, MeshError, grid_quads, read_bin, read_obj, reindex, write_bin, write_obj
from remeshx.cli import main

N_MUTANTS = 1000
TOKENS = [b"v", b"f", b"g", b"usemtl", b"-1", b"0", b"1e39", b"nan", b"\xef\xbb\xbf", b"\x00",
          b"9" * 30, b"-" + b"1" * 30]
OBJ_SEEDS = [
    b"v 0 0\nv 1 0\nv 0 1\nv 1 1\nf 1 2 3\nf 2 4 3\n",
    b"# two faces\nmtllib a.mtl\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 1.5\nvt 0 0\nvn 0 0 1\n"
    b"g side top\nusemtl red\nf 1/1/1 2/1/1 3/1/1 4/1/1\ng other\ns off\nf -4 -3 -1 -2\n",
]


def seed_files(tmp_path) -> list[tuple[str, bytes]]:
    """(suffix, bytes) of every seed: the OBJ texts, and files the writers made."""
    rng = np.random.default_rng(0)
    meshes = [grid_quads(3), Mesh(rng.standard_normal((5, 3), dtype=np.float32),
                                  rng.integers(0, 5, (4, 3)).astype(np.uint32))]
    seeds = [("obj", text) for text in OBJ_SEEDS]
    for i, mesh in enumerate(meshes):
        for suffix, write in (("obj", write_obj), ("rmx", write_bin)):
            path = tmp_path / f"seed{i}.{suffix}"
            write(mesh, path)
            seeds.append((suffix, path.read_bytes()))
    return seeds


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` with one to three seeded mutations."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, len(data) + 1))
        kind = rng.integers(0, 4)
        if kind == 0 and data:
            data[min(at, len(data) - 1)] ^= 1 << int(rng.integers(0, 8))
        elif kind == 1:
            token = TOKENS[rng.integers(0, len(TOKENS))] + [b" ", b"\n", b""][rng.integers(0, 3)]
            data[at:at] = token
        elif kind == 2:
            del data[at:at + int(rng.integers(1, 9))]
        else:
            start = int(rng.integers(0, len(data) + 1))
            data[at:at] = data[start:start + int(rng.integers(1, 33))]
    return bytes(data)


def test_mutated_files_fail_closed(tmp_path, capsys):
    rng = np.random.default_rng(2027)
    seeds = seed_files(tmp_path)
    failures = []
    for i in range(N_MUTANTS):
        suffix, seed = seeds[i % len(seeds)]
        path = tmp_path / f"mutant.{suffix}"
        path.write_bytes(mutate(seed, rng))
        try:
            if suffix == "obj":
                mesh, _ = read_obj(path, dim=[None, 2, 3][i // len(seeds) % 3], return_groups=True)
            else:
                mesh = read_bin(path)
            reindex(mesh)
        except MeshError:
            pass
        except Exception as exc:  # noqa: BLE001 - every other exception is a finding
            failures.append((i, "library", repr(exc)))
        try:
            code = main(["stats", str(path)])
            if code not in (0, 1, 2):
                failures.append((i, "stats", code))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - main must return, never raise
            failures.append((i, "stats", repr(exc)))
        capsys.readouterr()
    assert not failures, failures[:10]
