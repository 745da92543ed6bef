"""Golden output digests: the sha256 of the RMX1 bytes each op writes.

The digests were recorded from the pipeline as of commit dd5b304, before the
sort and the soup, merge and subset ops stopped copying their inputs;
``zero_elements`` was recorded at commit 7f4bd61, before ``reindex`` stopped
returning early for a mesh with no elements; ``full_width_d2`` and
``full_width_d3`` were recorded at commit 8b57faf, before the sort packed
several trimmed components into one word.  Any
change to the output order, the vertex bits or the element indices changes
a digest, so these pin byte-identical output across refactors and numpy
versions.
"""
import hashlib

import numpy as np
import pytest

from remeshx import (Mesh, RandomMeshSpec, grid_quads, merge, random_mesh, reindex,
                     soup_to_mesh, subset, write_bin)
from conftest import WORKED_ELEMENTS, WORKED_VERTICES


def random_soup(seed: int, n_tris: int = 1 << 12) -> np.ndarray:
    """Lattice soup of 3-D triangles with shared corners and some ``-0.0`` components."""
    rng = np.random.default_rng(seed)
    soup = rng.integers(-4, 4, size=(n_tris, 3, 3)).astype(np.float32)
    soup[(soup == 0) & (rng.random(soup.shape) < 0.5)] = -0.0
    return soup


def full_width_mesh(seed: int, dim: int, n_tris: int = 3000) -> Mesh:
    """Triangles over ``standard_normal`` float32 corners, with shared and repeated rows
    and some unused ones: every bit of every component varies between rows."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((1000, dim), dtype=np.float32)
    vertices = pool[rng.integers(0, len(pool), size=4000)]
    return Mesh(vertices, rng.integers(0, 3600, size=(n_tris, 3)).astype(np.uint32))


def reindexed(mesh: Mesh) -> Mesh:
    return reindex(mesh)[0]


CASES = {
    "worked": lambda: reindexed(Mesh(np.array(WORKED_VERTICES, np.float32),
                                     np.array(WORKED_ELEMENTS, np.uint32))),
    "grid64": lambda: reindexed(grid_quads(64)),
    **{f"random_d{dim}_a{arity}": (lambda dim=dim, arity=arity: reindexed(random_mesh(
        RandomMeshSpec(seed=700 + 10 * dim + arity, n_base_vertices=300, n_elements=500,
                       arity=arity, dim=dim, coord_pool_size=6))))
       for dim in (1, 2, 3, 4) for arity in (3, 4)},
    "soup801": lambda: soup_to_mesh(random_soup(801)),
    "soup4242": lambda: soup_to_mesh(random_soup(4242)),
    "merge": lambda: merge([random_mesh(RandomMeshSpec(seed=s, arity=4, dim=3))
                            for s in range(5)]),
    "subset": lambda: subset(grid_quads(32), np.arange(0, 32 * 32, 3)),
    **{f"full_width_d{dim}": (lambda dim=dim: reindexed(full_width_mesh(900 + dim, dim)))
       for dim in (2, 3)},
    "zero_elements": lambda: reindexed(Mesh(np.random.default_rng(5).integers(
        -2, 3, size=(5, 3)).astype(np.float32), np.empty((0, 4), np.uint32))),
}

GOLDEN = {
    "full_width_d2": "c3501ec9174d917648bd425a6bf0026d29301d489d8ccb74e9c798f0ed46b0eb",
    "full_width_d3": "06d22a59efcf7a155fda999da2870ead6481535cf1f59b411c9ed15845b4ae1b",
    "grid64": "e6bde1d9c6d80a7acdcf927862a8d4a32c4dffbe211e6cccd17f89aa99db0934",
    "merge": "04b8ec298b08e0f819b056e7e24e310210d04971769ece0cdb2b3f3b81490d41",
    "random_d1_a3": "733151429a1857d7bd4e649f076d820d21b7d279f6486c25d44ac7efed34753d",
    "random_d1_a4": "301466e5c815d5a32b57174fb3edb40bca9388a740b9fca7d2e46a4692763f01",
    "random_d2_a3": "4238a3d39844997423e84ea698088815e9d23734318110d244842af21396e4e6",
    "random_d2_a4": "18de50880bf38d7244565bcbbf3b912f522de3e26cc4a197fa60f1522608122c",
    "random_d3_a3": "a7c628c0e2ae96dad70d76d80cce14c74e4aca85c1ba24479650b0483ce1153b",
    "random_d3_a4": "50bfcc658f4f2b20ce2893a98ec3b08c00c2cc6438a1ba7808d4b3deaf80a041",
    "random_d4_a3": "44e28b0a23338d7149e19a47fc03c3a1788e7e449254a8dbbd887bd9c3ac680b",
    "random_d4_a4": "2cb9750dc7261b112a72ed73404dc34cfba2b70641df86f5f7ed68aff7333dd9",
    "soup4242": "63e07e8238f4db41d5402c0acaaf24ceb0b9ec30e7b06ccb93246d72927ce81a",
    "soup801": "6001a44a22cbd190fa30760735cd3a61d0b97236b04a585b7abcc987b0e14a02",
    "subset": "c71349ebe3fb59746c191261fac33494e1844573b20760e5ddb69eec746eebae",
    "worked": "342df151c85b5e9ab8585003367124681defa4544ae36a131729872b029926ba",
    "zero_elements": "a66fc9198fe31aa3fc2caca541bb2c2425659bf0657893960c82f6f341149f35",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_the_golden_digest(name, tmp_path):
    path = tmp_path / "out.rmx"
    write_bin(CASES[name](), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]
