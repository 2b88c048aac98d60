"""Seeded random modules, pinned by digest.

`conjugate_basis(rng, random_module(rng, G, 2, max_dim=8))` for seeds
0-299 over C8, D8, Q8 and C2 x C4 is serialized as one compact JSON list of
[free rank, torsion, generator matrices] and hashed.  The cross-checks
against the brute-force oracle and the benchmark inputs read these
modules, so a change to the random change of basis u or its inverse shows
up here.  Regenerate the digest on purpose only, with

    PYTHONPATH=src python tests/test_random_modules.py
"""

import hashlib
import json
from pathlib import Path
from random import Random

from edlattice.group_core import dihedral8, direct_product, make_cyclic, quaternion8
from edlattice.random_modules import conjugate_basis, random_module

PINNED = Path(__file__).parent / "data" / "random_modules_json.sha256"


def random_modules_digest() -> str:
    groups = [make_cyclic(8), dihedral8(), quaternion8(),
              direct_product(make_cyclic(2), make_cyclic(4))]
    out = []
    for group in groups:
        for seed in range(300):
            rng = Random(seed)
            m = conjugate_basis(rng, random_module(rng, group, 2, max_dim=8))
            out.append([m.free_rank, m.torsion,
                        [m.action(g) for g in m.group.generators() or [0]]])
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_random_modules_match_the_pinned_digest():
    assert random_modules_digest() == PINNED.read_text().split()[0]


if __name__ == "__main__":
    PINNED.write_text(random_modules_digest() + "\n")
