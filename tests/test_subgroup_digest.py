"""The subgroup classes of 26 small p-groups, pinned.

`subgroup_classes(G)` as (representative, index, generators) triples, for
cyclic groups up to C2048 and C1849, the abelian products C2^2 to C2^6,
C2 x C4, C3^2, C4^2, C8^2 and C2 x D8, and the nonabelian D8, Q8 and H27,
is serialized as one compact JSON list and hashed.  Every solver walks
these classes in this order and reads these generators, so a change to
the enumeration that moves a class or a first-reached generator shows up
here.  Regenerate the digest on purpose only, with

    PYTHONPATH=src python tests/test_subgroup_digest.py
"""

import hashlib
import json
from pathlib import Path

from edlattice.group_core import (
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_classes,
)

PINNED = Path(__file__).parent / "data" / "subgroup_classes_json.sha256"


def _power(group, n):
    out = group
    for _ in range(n - 1):
        out = direct_product(out, group)
    return out


def groups():
    c2, c3, c4, c8 = (make_cyclic(n) for n in (2, 3, 4, 8))
    cyclic = [make_cyclic(n) for n in (1, 2, 4, 8, 9, 25, 27, 49, 121, 169, 289, 512,
                                       1849, 2048)]
    return cyclic + [_power(c2, 2), _power(c2, 3), direct_product(c2, c4), _power(c3, 2),
                     dihedral8(), quaternion8(), heisenberg27(), _power(c4, 2),
                     direct_product(c2, dihedral8()), _power(c2, 5), _power(c2, 6),
                     _power(c8, 2)]


def subgroup_digest() -> str:
    out = [[g.order, [[list(c.representative), c.index, list(c.generators)]
                      for c in subgroup_classes(g)]] for g in groups()]
    text = json.dumps(out, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_subgroup_classes_match_the_pinned_digest():
    assert len(groups()) == 26
    assert subgroup_digest() == PINNED.read_text().split()[0]


if __name__ == "__main__":
    PINNED.write_text(subgroup_digest() + "\n")
