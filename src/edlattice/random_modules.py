"""Seeded random module generators.

Used to cross-check the reduction-based solver against the brute-force
search on many small inputs.  Everything is driven by a caller-supplied
random.Random so runs are reproducible.
"""

from __future__ import annotations

from random import Random

from .catalog import permutation_module, trivial_lattice
from .group_core import FiniteGroup, subgroup_classes
from .int_lattice import (
    GaloisModule,
    MixedTorsionError,
    direct_sum,
    identity_matrix,
    quotient_by_orbit_relations,
    sparse_product,
)


def random_unimodular(rng: Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A small-entry unimodular matrix u and its inverse, built together.

    u is a product of elementary row operations u[i] += c u[j].  The
    inverse w starts as I and takes each operation's inverse on the right,
    the column operation w[:, j] -= c w[:, i], so w u = I throughout.  w is
    kept by its columns, so that is one row update, and it is transposed
    once at the end.
    """
    u = identity_matrix(n)
    w = identity_matrix(n)  # the columns of u^-1
    if n < 2:
        return u, w
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        ui, uj, wi, wj = u[i], u[j], w[i], w[j]
        for k in range(n):
            ui[k] += c * uj[k]
            wj[k] -= c * wi[k]
    return u, [list(row) for row in zip(*w)]


def conjugate_basis(rng: Random, module: GaloisModule) -> GaloisModule:
    """Rewrite the free block in a random unimodular basis.

    Each action matrix A becomes T A T^-1 with T = diag(u, I_t), u from
    `random_unimodular` and t the torsion length.  Since the
    torsion-to-free block A_12 of every action matrix is zero, that
    product has blocks u A_11 u^-1, 0, A_21 u^-1 and A_22: the free
    coordinates change basis and the torsion coordinates stay put.  It is
    two stored-form products, T times A's stored matrix and then T^-1,
    torsion rows reduced modulo q_j.  The module is unchanged up to
    isomorphism, so every invariant the solvers compute must be unchanged
    too.  Conjugating an action by T is an action, so the result is not
    checked again.
    """
    n = module.free_rank
    if n < 2:
        return module
    u, w = random_unimodular(rng, n)
    torsion_rows = [[(i, 1)] for i in range(n, module.dim)]
    t = [[(j, x) for j, x in enumerate(row) if x] for row in u] + torsion_rows
    t_inv = [[(j, x) for j, x in enumerate(row) if x] for row in w] + torsion_rows
    moduli = [0] * n + module.torsion
    action = {g: sparse_product(sparse_product(t, module.sparse_action(g), moduli), t_inv, moduli)
              for g in module.group.generators()}
    return GaloisModule._of_action(module.group, module.prime, n, list(module.torsion), action)


def _perm_sum(rng: Random, group: FiniteGroup, p: int, max_dim: int) -> GaloisModule:
    classes = [c for c in subgroup_classes(group) if c.index <= max_dim]
    parts = []
    budget = max_dim
    for _ in range(rng.randrange(1, 4)):
        fits = [c for c in classes if c.index <= budget]
        if not fits:
            break
        cls = rng.choice(fits)
        parts.append(permutation_module(group, cls, p))
        budget -= cls.index
    return direct_sum(*parts) if parts else trivial_lattice(group, p, 1)


def _random_quotient(rng: Random, group: FiniteGroup, p: int, max_dim: int) -> GaloisModule:
    base = _perm_sum(rng, group, p, max_dim)
    for _ in range(8):
        relations = []
        for _ in range(rng.randrange(1, 3)):
            vec = [rng.randrange(-2, 3) for _ in range(base.free_rank)]
            if any(vec):
                relations.append(vec)
        if not relations:
            continue
        try:
            return quotient_by_orbit_relations(base, relations)
        except MixedTorsionError:
            continue
    return base


def _torsion_twist(rng: Random, group: FiniteGroup, p: int) -> GaloisModule | None:
    # Only safe for cyclic groups: a unit u with u^n = 1 always defines an
    # action of C_n, while relations in other generating sets need not hold.
    n = group.order
    gens = group.generators()
    if len(gens) > 1:
        return None
    k = rng.randrange(1, 4 if p == 2 else 3)
    modulus = p ** k
    units = [u for u in range(1, modulus) if u % p and pow(u, n, modulus) == 1]
    u = rng.choice(units)
    action = {g: [[u]] for g in gens}
    return GaloisModule(group, p, 0, [modulus], action)


def random_module(rng: Random, group: FiniteGroup, p: int, max_dim: int = 4) -> GaloisModule:
    """A random module over `group` with at most `max_dim` coordinates."""
    roll = rng.random()
    if roll < 0.35:
        module = _perm_sum(rng, group, p, max_dim)
    elif roll < 0.75:
        module = _random_quotient(rng, group, p, max_dim)
    else:
        module = _torsion_twist(rng, group, p) or _random_quotient(rng, group, p, max_dim)
    if module.dim < max_dim and rng.random() < 0.3:
        extra = _torsion_twist(rng, group, p)
        if extra is not None:
            module = direct_sum(module, extra)
    if rng.random() < 0.5:
        module = conjugate_basis(rng, module)
    return module
