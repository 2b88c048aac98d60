"""Golden outputs: solver JSON and fixed lattices of the catalog, pinned.

`tests/data/golden_lattices.json` holds `result_to_json` of
`min_permutation_rank` for every catalog entry at p = 2, 3, 5, 7, and the
`fixed_submodule` basis of every subgroup class of every catalog module at
p = 2, 3.  A change to any certificate generator or fixed-lattice basis
shows up here.  Regenerate the file on purpose only, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from edlattice.catalog import instantiated_catalog
from edlattice.ed_solver import min_permutation_rank
from edlattice.group_core import subgroup_classes
from edlattice.int_lattice import fixed_submodule
from edlattice.jsonio import result_to_json

GOLDEN = Path(__file__).parent / "data" / "golden_lattices.json"
SOLVE_PRIMES = (2, 3, 5, 7)
FIXED_PRIMES = (2, 3)


def golden_payload() -> dict:
    results, fixed = {}, {}
    for p in SOLVE_PRIMES:
        for entry in instantiated_catalog(p):
            results[entry.key] = result_to_json(min_permutation_rank(entry.module, p))
            if p in FIXED_PRIMES:
                fixed[entry.key] = [fixed_submodule(entry.module, cls)
                                    for cls in subgroup_classes(entry.module.group)]
    return {"min_permutation_rank": results, "fixed_submodule": fixed}


def test_catalog_outputs_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(golden_payload()))
    assert actual["fixed_submodule"] == expected["fixed_submodule"]
    assert actual["min_permutation_rank"] == expected["min_permutation_rank"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_payload(), separators=(",", ":"), sort_keys=True) + "\n")
