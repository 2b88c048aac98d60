"""The catalog's modules, pinned by digest.

`tests/data/catalog_modules.json` maps every catalog key at
p = 2, 3, 5, 7, 11 to the sha256 of its `module_to_json`, serialized as
compact sorted JSON.  A change to any catalog basis, action matrix or
torsion list shows up here.  Regenerate the file on purpose only, with

    PYTHONPATH=src python tests/test_catalog_modules.py
"""

import hashlib
import json
from pathlib import Path

from edlattice.catalog import instantiated_catalog
from edlattice.jsonio import module_to_json

PINNED = Path(__file__).parent / "data" / "catalog_modules.json"
PRIMES = (2, 3, 5, 7, 11)


def module_digests() -> dict[str, str]:
    out = {}
    for p in PRIMES:
        for entry in instantiated_catalog(p):
            text = json.dumps(module_to_json(entry.module), separators=(",", ":"), sort_keys=True)
            out[entry.key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_catalog_modules_match_the_pinned_digests():
    assert module_digests() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(module_digests(), indent=1, sort_keys=True) + "\n")
