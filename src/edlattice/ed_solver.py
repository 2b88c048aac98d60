"""Minimal permutation covers of Galois modules, hence essential p-dimension.

The quantity computed: the least total rank of a direct sum of coset
modules Z[G/H_i] admitting an equivariant map onto the module M with
finite cokernel of order prime to p.  Essential p-dimension is that
minimum minus the free rank.

Argument used by the fast solver (the brute-force oracle below checks it
independently).  Over a p-group the mod-p group algebra is local, so by
Nakayama a family generates M/pM iff its image spans the coinvariant
quotient W of M/pM.  A summand Z[G/H] is determined by the image of the
coset H, which must lie in the fixed lattice M^H = {x : h.x = x for h in H};
it reaches W only through V_H = image(M^H -> W), and conjugate subgroups
give the same V_H because G acts trivially on W.  So a cover is a family
of pairs (v, H) with v in V_H whose vectors span W, at cost sum [G:H]; a
minimal cover takes a basis of W.  These pairs form a linear matroid on W
weighted by the index, so Edmonds' greedy algorithm is exact: take the
classes cheapest first and, for each, walk the HNF basis of M^H, keeping
every basis vector whose image in W is independent of those already kept.
Those images span V_H, so each class gains exactly the dimensions V_H adds,
and a kept vector is already an integral H-fixed generator; nothing has to
be lifted back from W.  The minimum is sum [G:H] * (dimensions gained at
H).

Every answer is self-auditing: `verify_certificate` replays the cover.
It checks integrally that each generator is fixed by its subgroup, then
decides the cokernel condition in M/pM.  Tensoring with F_p is right
exact, so the cokernel C of P -> M has C/pC = M/(pM + image), and a
finitely generated abelian group C is finite of order prime to p exactly
when C/pC = 0.  So the map is a cover iff the G-span of its generators in
M/pM is all of M/pM, which one spin under the group generators decides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from .group_core import FiniteGroup, SubgroupClass, coset_action, subgroup_classes
from .catalog import permutation_module
from .int_lattice import GaloisModule, direct_sum, fixed_submodule, hom_module
from .fp_module import (
    Subspace,
    _echelon_insert,
    coinvariants,
    orbit_span,
    project,
    reduce_mod_p,
    rref,
    spin,
)


class BudgetExceededError(RuntimeError):
    """The brute-force search ran past its rank budget or enumeration cap."""


@dataclass(frozen=True)
class CoverCertificate:
    """A purported cover: one (subgroup class, fixed generator) per summand.

    The summand Z[G/H] maps coset gH to g . generator; validity means every
    generator is H-fixed and the assembled map has finite cokernel of order
    prime to p.
    """

    summands: tuple[tuple[SubgroupClass, tuple[int, ...]], ...]
    total_rank: int


@dataclass(frozen=True)
class EdResult:
    min_rank: int
    ed: int
    certificate: CoverCertificate


def _solve_mod_p(columns, target, p):
    """One solution x of sum_j x_j * columns[j] = target over F_p, or None."""
    k = len(columns)
    rows = len(target)
    aug = [[columns[j][i] % p for j in range(k)] + [target[i] % p] for i in range(rows)]
    basis, pivots = rref(aug, k + 1, p)
    coeffs = [0] * k
    for row, piv in zip(basis, pivots):
        if piv == k:
            return None
        coeffs[piv] = row[k]
    return coeffs


def _det_nonzero_mod_p(mat, p):
    n = len(mat)
    return Subspace(n, p, mat).dim == n


def _check_prime(m: GaloisModule, p: int) -> None:
    if p != m.prime:
        raise ValueError(f"module carries prime {m.prime}, solver asked for {p}")
    if not m.group.is_p_group(p):
        raise ValueError(f"acting group of order {m.group.order} is not a {p}-group")


def min_permutation_rank(m: GaloisModule, p: int) -> EdResult:
    """Exact minimum of sum [G:H_i] over covers with prime-to-p cokernel.

    Edmonds' greedy algorithm on the matroid of pairs (v in V_H, class H)
    weighted by [G:H]: classes are taken by (index, position), M^H is
    computed only when the loop reaches H, and each vector b of its HNF
    basis whose image in W grows the running span is kept, with b itself
    as the H-fixed generator.  The b span V_H, so the dimensions gained at
    H are those V_H adds to the cheaper classes.  The first classes to
    reach dim W fix the minimum, sum [G:H] * (dimensions gained at H), and
    the output is deterministic.  The certificate is replayed before it
    is returned; a rejection means a defect in this argument and raises
    AssertionError.
    """
    _check_prime(m, p)
    if m.dim == 0:
        return EdResult(0, 0, CoverCertificate((), 0))
    w_dim, projection = coinvariants(reduce_mod_p(m))
    span: list[list[int]] = []
    pivots: list[int] = []
    summands = []
    # sorted() is stable, so equal indices keep their enumeration order.
    for cls in sorted(subgroup_classes(m.group), key=lambda c: c.index):
        if len(span) == w_dim:
            break
        for b in fixed_submodule(m, cls):
            if _echelon_insert(span, pivots, project(projection, b, p), p) is not None:
                summands.append((cls, tuple(m.canon_vector(b))))
    assert len(span) == w_dim, "the trivial class alone spans W"
    total = sum(cls.index for cls, _ in summands)
    cert = CoverCertificate(tuple(summands), total)
    if not verify_certificate(m, cert, p):
        raise AssertionError("greedy cover failed certificate verification")
    return EdResult(total, total - m.free_rank, cert)


def verify_certificate(m: GaloisModule, cert: CoverCertificate, p: int) -> bool:
    """Check that the certificate's map has finite cokernel of order prime to p.

    Every generator must be fixed by its subgroup, checked integrally
    under the subgroup's generators, and total_rank must equal the sum of
    the indices; otherwise the certificate is invalid (False).  The
    cokernel is then finite of order prime to p iff the map is onto M/pM
    (see the module docstring), i.e. iff spinning all generators under
    the group in M/pM reaches dimension m.dim.  The torsion relation
    vectors q_j e_j vanish mod p, so they need no column of their own.
    """
    if p != m.prime:
        raise ValueError(f"module carries prime {m.prime}, got {p}")
    for cls, gen in cert.summands:
        if len(gen) != m.dim:
            raise ValueError("generator length does not match the module")
    if cert.total_rank != sum(cls.index for cls, _ in cert.summands):
        return False
    for cls, gen in cert.summands:
        gen = list(gen)
        canon = m.canon_vector(gen)
        # Every member lies in the closure of these generators, so fixing
        # them is the same as fixing every member.  Derived from the members,
        # not read from the class, they keep the check independent.
        gens = m.group.subgroup_generators(cls.representative)
        if any(m.act(g, gen) != canon for g in gens):
            return False
    return len(spin(reduce_mod_p(m), [gen for _, gen in cert.summands])) == m.dim


def brute_force_min_rank(m: GaloisModule, p: int, rank_budget: int,
                         enumeration_cap: int = 200000) -> EdResult:
    """Exhaustive oracle: no coinvariants, no Nakayama, no greedy.

    Depth-first search over multisets of subgroup classes, trying every
    candidate generator image in image(M^H -> M/pM) and accumulating orbit
    spans until all of M/pM is spanned.  Candidates that do not grow the
    span are skipped; that preserves exact minimality because subspace sums
    are order independent, so a non-contributing summand can be dropped
    from any cover.  States (class floor, span) already reached at least as
    cheaply are pruned.

    The enumeration stays exhaustive; only repeated F_p work is shared,
    in dicts that live for this call alone.  c.v has the orbit span of v
    for c prime to p, so each projective point of M/pM is spun once, as
    its representative with leading coefficient 1, however many classes
    offer it; and each join of the running span with a point's span is
    computed once per search.
    """
    _check_prime(m, p)
    if m.dim == 0:
        return EdResult(0, 0, CoverCertificate((), 0))
    dim = m.dim
    if p ** dim > enumeration_cap:
        raise BudgetExceededError(
            f"point enumeration {p}^{dim} exceeds cap {enumeration_cap}")
    mbar = reduce_mod_p(m)
    classes = subgroup_classes(m.group)
    fixed = [fixed_submodule(m, c) for c in classes]
    # Candidate points per class: all of image(M^H -> M/pM), deduplicated
    # by the orbit span they generate (equal spans contribute identically).
    class_points: list[list[tuple[list[int], Subspace]]] = []
    point_spans: dict[tuple[int, ...], Subspace] = {}
    for basis in fixed:
        reduced = [[x % p for x in b] for b in basis]
        image_basis, _ = rref(reduced, dim, p)
        points = []
        seen_spans = set()
        for coeffs in itertools.product(range(p), repeat=len(image_basis)):
            # Dividing a vector by its leading coefficient gives an earlier
            # one with the same span, so the first of each span leads with 1.
            if next((c for c in coeffs if c), 0) != 1:
                continue
            point = [0] * dim
            for c, b in zip(coeffs, image_basis):
                if c:
                    point = [(point[i] + c * b[i]) % p for i in range(dim)]
            # image_basis is reduced echelon, so the point leads with 1 too:
            # it is the projective point's representative.
            key = tuple(point)
            span = point_spans.get(key)
            if span is None:
                span = point_spans[key] = orbit_span(mbar, point)
            if span in seen_spans:
                continue
            seen_spans.add(span)
            points.append((point, span))
        class_points.append(points)
    by_cost = sorted(range(len(classes)), key=lambda i: (classes[i].index, i))
    costs = [c.index for c in classes]
    best: list = [None, None]  # cost, chosen [(class_index, point)]
    reached: dict = {}
    # joins[span][pspan] is span + pspan.  Each distinct sum is kept once
    # (sums), so the memo costs a dict slot per pair, not a subspace.
    joins: dict[Subspace, dict[Subspace, Subspace]] = {}
    sums: dict[Subspace, Subspace] = {}

    def search(floor, span, cost, chosen):
        if span.dim == dim:
            if best[0] is None or cost < best[0]:
                best[0], best[1] = cost, list(chosen)
            return
        state = (floor, span)
        prior = reached.get(state)
        if prior is not None and prior <= cost:
            return
        reached[state] = cost
        span_joins = joins.setdefault(span, {})
        for pos in range(floor, len(by_cost)):
            ci = by_cost[pos]
            step = costs[ci]
            limit = rank_budget if best[0] is None else min(rank_budget, best[0] - 1)
            if cost + step > limit:
                continue
            for point, pspan in class_points[ci]:
                joined = span_joins.get(pspan)
                if joined is None:
                    joined = span.add(pspan)
                    joined = span_joins[pspan] = sums.setdefault(joined, joined)
                if joined.dim == span.dim:
                    continue
                chosen.append((ci, point))
                search(pos, joined, cost + step, chosen)
                chosen.pop()

    search(0, Subspace(dim, p), 0, [])
    if best[0] is None:
        raise BudgetExceededError(f"no cover within rank budget {rank_budget}")
    summands = []
    for ci, point in best[1]:
        # An integral H-fixed vector reducing to the chosen point of M/pM.
        coeffs = _solve_mod_p(fixed[ci], point, p)
        assert coeffs is not None, "candidate point must lie in the fixed image"
        gen = [sum(c * b[i] for c, b in zip(coeffs, fixed[ci])) for i in range(dim)]
        summands.append((classes[ci], tuple(m.canon_vector(gen))))
    cert = CoverCertificate(tuple(summands), best[0])
    assert verify_certificate(m, cert, p)
    return EdResult(best[0], best[0] - m.free_rank, cert)


def classify_ed_le_one(group: FiniteGroup, summands: list[SubgroupClass],
                       coeffs: list[int], p: int) -> int:
    """ed of Z[set]/<m> for a fixed vector m: 0 or 1 (p odd only).

    The module is the quotient of a permutation module by one invariant
    vector, so its essential p-dimension is at most 1; it is 0 exactly when
    m = 0 or some fixed point of the set carries a coefficient that is
    nonzero mod p.  The p = 2 case is rejected: the argument this encodes
    needs p odd, and no 2-adic form of it is on record here.
    """
    if p == 2:
        raise ValueError("classifier is only valid for odd p")
    if p < 2 or not group.is_p_group(p):
        raise ValueError("acting group must be a p-group for odd prime p")
    actions = [coset_action(group, cls) for cls in summands]
    degrees = [a.degree for a in actions]
    if len(coeffs) != sum(degrees):
        raise ValueError("coefficient vector does not match the set size")
    # The coset permutations form a homomorphism, so generators suffice.
    for g in group.generators():
        permuted = []
        offset = 0
        for act, deg in zip(actions, degrees):
            perm = act.permutations[g]
            block = [0] * deg
            for i in range(deg):
                block[perm[i]] = coeffs[offset + i]
            permuted.extend(block)
            offset += deg
        if permuted != list(coeffs):
            raise ValueError("vector is not fixed by the group")
    if not any(coeffs):
        return 0
    offset = 0
    for act, deg in zip(actions, degrees):
        if deg == 1 and coeffs[offset] % p:
            return 0
        offset += deg
    return 1


def genus_equal(l: GaloisModule, m: GaloisModule, p: int,
                budget: int = 10 ** 6, seed: int = 0, trials: int = 64) -> str:
    """'yes' / 'no' / 'unknown': do the lattices agree after localizing at p?

    Equivalent to the existence of an equivariant map with determinant
    prime to p, i.e. an F_p-combination of the Hom basis with nonzero
    determinant mod p.  Exhaustive over all p^k combinations while that
    count fits the budget (exact yes/no); beyond it, seeded random sampling
    (yes on a hit, unknown otherwise).
    """
    if l.torsion or m.torsion:
        raise ValueError("genus comparison expects torsion-free modules")
    if p != l.prime or p != m.prime:
        raise ValueError("prime does not match the modules")
    if l.group.cayley != m.group.cayley:
        raise ValueError("genus comparison needs a common acting group")
    if l.free_rank != m.free_rank:
        return "no"
    n = l.free_rank
    if n == 0:
        return "yes"
    basis = hom_module(l, m)
    k = len(basis)
    if k == 0:
        return "no"
    reduced = [[[x % p for x in row] for row in f] for f in basis]

    def combine(coeffs):
        out = [[0] * n for _ in range(n)]
        for c, f in zip(coeffs, reduced):
            if c:
                for i in range(n):
                    for j in range(n):
                        out[i][j] = (out[i][j] + c * f[i][j]) % p
        return out

    if p ** k <= budget:
        for coeffs in itertools.product(range(p), repeat=k):
            if any(coeffs) and _det_nonzero_mod_p(combine(coeffs), p):
                return "yes"
        return "no"
    rng = Random(seed)
    for _ in range(trials):
        coeffs = [rng.randrange(p) for _ in range(k)]
        if any(coeffs) and _det_nonzero_mod_p(combine(coeffs), p):
            return "yes"
    return "unknown"


def cover_module(m: GaloisModule, cert: CoverCertificate) -> GaloisModule:
    """The permutation lattice of a certificate, as a module over m's group."""
    if not cert.summands:
        return GaloisModule(m.group, m.prime, 0, [], {g: [] for g in m.group.generators()} or {0: []})
    return direct_sum(*(permutation_module(m.group, cls, m.prime) for cls, _ in cert.summands))
