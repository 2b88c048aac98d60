"""The Smith normal form's exact output, pinned by digest.

`smith_normal_form` returns (d, u, u^-1), and u is not unique: the
quotient's basis and so every catalog action matrix depend on the pivot
rule and the order of the elementary operations.  Property tests accept any
valid u, so this digest pins the exact triple on

- 2,000 random matrices from `Random(seed)`, seeds 0-1999, each with 1 to 7
  rows and columns and entries in -9..9, and
- every matrix the catalog at p = 2, 3, 5 and 7 hands it (the transposed
  HNF bases of the spun relation lattices), in build order.

The triples are serialized as one compact JSON list and hashed.
Regenerate the digest on purpose only, with

    PYTHONPATH=src python tests/test_smith_digest.py
"""

import hashlib
import json
from pathlib import Path
from random import Random

from edlattice import int_lattice
from edlattice.catalog import instantiated_catalog

PINNED = Path(__file__).parent / "data" / "smith_forms.sha256"
SEEDS = range(2000)
PRIMES = (2, 3, 5, 7)


def random_matrix(seed: int) -> list[list[int]]:
    rng = Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def catalog_smith_inputs() -> list[list[list[int]]]:
    """The matrices the catalog's quotients pass to `smith_normal_form`."""
    seen = []
    snf = int_lattice.smith_normal_form
    int_lattice.smith_normal_form = lambda m: seen.append(m) or snf(m)
    try:
        for p in PRIMES:
            list(instantiated_catalog(p))
    finally:
        int_lattice.smith_normal_form = snf
    return seen


def smith_digest() -> str:
    inputs = [random_matrix(seed) for seed in SEEDS] + catalog_smith_inputs()
    out = [int_lattice.smith_normal_form(m) for m in inputs]
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_smith_forms_match_the_pinned_digest():
    assert smith_digest() == PINNED.read_text().split()[0]


if __name__ == "__main__":
    PINNED.write_text(smith_digest() + "\n")
