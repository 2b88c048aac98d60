"""The greedy's output on random modules over multi-generator groups, pinned.

`result_to_json(min_permutation_rank(m, p))` of
`m = conjugate_basis(rng, random_module(rng, G, p, max_dim=8))` for seeds
0-149 over C8, D8, Q8, C2 x C4 and C2^3 at p = 2 and the Heisenberg group
H27 at p = 3 (900 modules) is serialized as one compact JSON list and
hashed.  The catalog's groups are cyclic, so `test_golden.py` never sees a
class whose generators extend those of a smaller class; these groups do,
so a change to a certificate generator on them shows up here.  Regenerate
the digest on purpose only, with

    PYTHONPATH=src python tests/test_greedy_digest.py
"""

import hashlib
import json
from pathlib import Path
from random import Random

from edlattice.ed_solver import min_permutation_rank
from edlattice.group_core import (
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
)
from edlattice.jsonio import result_to_json
from edlattice.random_modules import conjugate_basis, random_module

PINNED = Path(__file__).parent / "data" / "greedy_multigen_json.sha256"
SEEDS = range(150)


def greedy_digest() -> str:
    c2 = make_cyclic(2)
    groups = [(make_cyclic(8), 2), (dihedral8(), 2), (quaternion8(), 2),
              (direct_product(c2, make_cyclic(4)), 2),
              (direct_product(direct_product(c2, c2), c2), 2),
              (heisenberg27(), 3)]
    out = []
    for group, p in groups:
        for seed in SEEDS:
            rng = Random(seed)
            m = conjugate_basis(rng, random_module(rng, group, p, max_dim=8))
            out.append(result_to_json(min_permutation_rank(m, p)))
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_greedy_output_matches_the_pinned_digest():
    assert greedy_digest() == PINNED.read_text().split()[0]


if __name__ == "__main__":
    PINNED.write_text(greedy_digest() + "\n")
