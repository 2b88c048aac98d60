"""The brute-force oracle's output on small random modules, pinned.

`result_to_json(brute_force_min_rank(m, p, |G| * dim))` of
`m = random_module(Random(seed), G, p, max_dim=4)` for seeds 0-39 over C2,
C4, C2^2, D8 and Q8 at p = 2 and C3, C9, C3^2 and the Heisenberg group H27
at p = 3 (360 modules) is serialized as one compact JSON list and hashed.
Agreement tests compare only the oracle's `min_rank` with the greedy's; the
certificate it returns depends on which candidate the search records for
each orbit span and on the order it tries them, so a change to how the
oracle spins or enumerates its points shows up here.  Regenerate the digest
on purpose only, with

    PYTHONPATH=src python tests/test_oracle_digest.py
"""

import hashlib
import json
from pathlib import Path
from random import Random

from edlattice.ed_solver import brute_force_min_rank
from edlattice.group_core import (
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
)
from edlattice.jsonio import result_to_json
from edlattice.random_modules import random_module

PINNED = Path(__file__).parent / "data" / "oracle_json.sha256"
SEEDS = range(40)


def oracle_digest() -> str:
    c2, c3 = make_cyclic(2), make_cyclic(3)
    groups = [(c2, 2), (make_cyclic(4), 2), (direct_product(c2, c2), 2),
              (dihedral8(), 2), (quaternion8(), 2),
              (c3, 3), (make_cyclic(9), 3), (direct_product(c3, c3), 3),
              (heisenberg27(), 3)]
    out = []
    for group, p in groups:
        for seed in SEEDS:
            m = random_module(Random(seed), group, p, max_dim=4)
            out.append(result_to_json(brute_force_min_rank(m, p, group.order * m.dim)))
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_oracle_output_matches_the_pinned_digest():
    assert oracle_digest() == PINNED.read_text().split()[0]


if __name__ == "__main__":
    PINNED.write_text(oracle_digest() + "\n")
