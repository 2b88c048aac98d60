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
classes cheapest first and, for each, walk a p-local basis of M^H
(`local_fixed_bases`: integral H-fixed vectors from one elimination whose
pivots are all prime to p, hence units of Z_(p), so they span a sublattice
of index prime to p and have the image of M^H in M/pM), keeping every vector
whose image in W is independent of those already kept.  Those images span
V_H, so each class gains exactly the dimensions V_H adds, and a kept
vector is already an integral H-fixed generator; nothing has to be lifted
back from W.  The minimum is sum [G:H] * (dimensions gained at H).  The
brute-force oracle reads M^H off its canonical HNF basis
(`fixed_submodule`) instead, so it checks the fixed-lattice layer too.

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
from operator import mul
from random import Random

from .group_core import FiniteGroup, SubgroupClass, coset_action, subgroup_classes
from .int_lattice import (
    GaloisModule,
    fixed_submodule,
    hom_module,
    is_prime,
    local_fixed_bases,
)
from .fp_module import (
    Echelon,
    FpGaloisModule,
    Subspace,
    coinvariants,
    combine,
    layout,
    orbit_span,
    project,
    projective_points,
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


def _check_prime(m: GaloisModule, p: int) -> None:
    if p != m.prime:
        raise ValueError(f"module carries prime {m.prime}, solver asked for {p}")
    if not m.group.is_p_group(p):
        raise ValueError(f"acting group of order {m.group.order} is not a {p}-group")


def min_permutation_rank(m: GaloisModule, p: int) -> EdResult:
    """Exact minimum of sum [G:H_i] over covers with prime-to-p cokernel.

    Edmonds' greedy algorithm on the matroid of pairs (v in V_H, class H)
    weighted by [G:H]: classes are taken by (index, position), a p-local
    basis of M^H (`local_fixed_bases`, an elimination that pivots only on
    entries prime to p, so its kernel vectors span M^H over Z_(p)) is
    computed only when the loop reaches H, and each of its vectors b whose
    image in W grows the running span is kept, with b itself as the
    H-fixed generator.  The b span V_H, so the dimensions gained at H are
    those V_H adds to the cheaper classes.  The first classes to reach
    dim W fix the minimum, sum [G:H] * (dimensions gained at H), and the
    output is deterministic.  The certificate is replayed before it is
    returned; a rejection means a defect in this argument and raises
    AssertionError.
    """
    _check_prime(m, p)
    if m.dim == 0:
        return EdResult(0, 0, CoverCertificate((), 0))
    mbar = reduce_mod_p(m)
    w_dim, projection = coinvariants(mbar)
    span = Echelon(layout(w_dim, p))
    summands = []
    # sorted() is stable, so equal indices keep their enumeration order.
    classes = sorted(subgroup_classes(m.group), key=lambda c: c.index)
    for cls, basis in local_fixed_bases(m, classes):
        for b in basis:
            if span.insert(project(projection, b, p)) is not None:
                summands.append((cls, tuple(m.canon_vector(b))))
        if len(span.rows) == w_dim:
            break
    assert len(span.rows) == w_dim, "the trivial class alone spans W"
    total = sum(cls.index for cls, _ in summands)
    cert = CoverCertificate(tuple(summands), total)
    if not _replays(m, mbar, cert):
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
    return _replays(m, reduce_mod_p(m), cert)


def _replays(m: GaloisModule, mbar: FpGaloisModule, cert: CoverCertificate) -> bool:
    """`verify_certificate` with M/pM already built, as mbar."""
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
    return len(spin(mbar, [mbar.layout.pack(gen) for _, gen in cert.summands])[0].rows) == m.dim


def brute_force_min_rank(m: GaloisModule, p: int, rank_budget: int) -> EdResult:
    """Exhaustive oracle: no coinvariants, no Nakayama, no greedy.

    A summand Z[G/H] sending the coset H to an integral H-fixed vector
    reaches M/pM as the orbit span of that vector's image, a point of
    image(M^H -> M/pM); the map is a cover iff those spans sum to M/pM.
    The search takes the classes by (index, position), computes each
    class's HNF basis of M^H (`fixed_submodule`) when it reaches the class,
    and keeps the basis rows whose images mod p are independent of the
    images of the rows before them: those images are a basis of
    image(M^H -> M/pM).  `projective_points` gives one point per line of
    their span as a combination of them, and the same combination of the
    integral rows is an H-fixed vector reducing to the point, so each
    point carries its generator and the cover needs no lift from M/pM.
    Each distinct orbit span is recorded once, with the first (hence
    cheapest) class and generator that reach it.  That loses no cover: a
    dearer summand with the same span can be swapped for the recorded one
    without raising the cost, and a span used twice adds nothing the
    first use did not, so some minimal cover is a set of distinct
    recorded spans.  The search runs depth first over subsets of that
    cost-sorted list; a candidate that does not grow the running span is
    skipped (subspace sums are order independent, so it can be dropped
    from any cover), and the scan along the list stops once its cost
    reaches the one bound, rank_budget + 1 until a cover is found and then
    the cost of the cheapest cover found, so every cover recorded is
    cheaper than the one before.  States (list floor, span) already
    reached at least as cheaply are pruned.

    Only repeated F_p work is shared, in dicts that live for this call
    alone.  c.v and g.v have the orbit span of v for c prime to p and g
    in G, so a point's span is recorded under the representative with
    leading coefficient 1 of its line (`Layout.monic`), and the walk that
    spins a point (`orbit_span`) records it for every orbit point it met
    too.  A point met by an earlier walk is not spun again, however many
    classes offer it, so a G-orbit of lines is normally spun once (a walk
    does not report the images of the orbit points it rejected, nor any
    image once its basis fills the space); and each join of the running
    span with a candidate span is computed once per search.

    ORACLE_ENUMERATION_CAP bounds the work twice: the point count p^dim,
    checked before any enumeration, and the number of search states
    visited; past either the search raises BudgetExceededError rather than
    run on.
    """
    _check_prime(m, p)
    if m.dim == 0:
        return EdResult(0, 0, CoverCertificate((), 0))
    dim = m.dim
    cap = ORACLE_ENUMERATION_CAP
    if p ** dim > cap:
        raise BudgetExceededError(f"point enumeration {p}^{dim} exceeds cap {cap}")
    mbar = reduce_mod_p(m)
    lay = mbar.layout
    # candidates[pos] = (cls, gen, span), one per distinct orbit span, from
    # the cheapest class offering it, with the integral H-fixed vector gen
    # whose point was enumerated; costs never fall.
    candidates: list[tuple[SubgroupClass, list[int], Subspace]] = []
    offered: set[Subspace] = set()
    point_spans: dict[int, Subspace] = {}
    # sorted() is stable, so equal indices keep their enumeration order.
    for cls in sorted(subgroup_classes(m.group), key=lambda c: c.index):
        # The HNF rows whose images grow the echelon: a basis of
        # image(M^H -> M/pM), with the integral rows they came from.
        image = Echelon(lay)
        rows, images = [], []
        for b in fixed_submodule(m, cls):
            packed = lay.pack(b)
            if image.insert(packed) is not None:
                rows.append(b)
                images.append(packed)
        for lead, tail, point in projective_points(images, lay):
            span = point_spans.get(lay.monic(point)[1])
            if span is None:
                span, met = orbit_span(mbar, point)
                for q in met:
                    point_spans.setdefault(lay.monic(q)[1], span)
            if span not in offered:
                offered.add(span)
                gen = [sum(map(mul, (1, *tail), col)) for col in zip(*rows[lead:])]
                candidates.append((cls, gen, span))
    best: list = [rank_budget + 1, None]  # the bound on cost, chosen [(cls, gen)]
    reached: dict = {}
    # joins[span][pspan] is span + pspan.  Each distinct sum is kept once
    # (sums), so the memo costs a dict slot per pair, not a subspace.
    joins: dict[Subspace, dict[Subspace, Subspace]] = {}
    sums: dict[Subspace, Subspace] = {}
    visited = 0

    def search(floor, span, cost, chosen):
        nonlocal visited
        visited += 1
        if visited > cap:
            raise BudgetExceededError(f"search visited more than {cap} states")
        if span.dim == dim:
            # Entered only below the bound, so this cover is the cheapest yet.
            best[0], best[1] = cost, list(chosen)
            return
        state = (floor, span)
        prior = reached.get(state)
        if prior is not None and prior <= cost:
            return
        reached[state] = cost
        span_joins = joins.setdefault(span, {})
        for pos in range(floor, len(candidates)):
            cls, gen, pspan = candidates[pos]
            if cost + cls.index >= best[0]:
                break  # every later candidate costs at least as much
            joined = span_joins.get(pspan)
            if joined is None:
                joined = span.add(pspan)
                joined = span_joins[pspan] = sums.setdefault(joined, joined)
            if joined.dim == span.dim:
                continue
            chosen.append((cls, gen))
            search(pos + 1, joined, cost + cls.index, chosen)
            chosen.pop()

    search(0, Subspace(dim, p), 0, [])
    if best[1] is None:
        raise BudgetExceededError(f"no cover within rank budget {rank_budget}")
    summands = [(cls, tuple(m.canon_vector(gen))) for cls, gen in best[1]]
    cert = CoverCertificate(tuple(summands), best[0])
    if not _replays(m, mbar, cert):
        raise AssertionError("oracle cover failed certificate verification")
    return EdResult(best[0], best[0] - m.free_rank, cert)


def classify_ed_le_one(group: FiniteGroup, summands: list[SubgroupClass],
                       coeffs: list[int], p: int) -> int:
    """ed of Z[set]/<m> for a fixed vector m: 0 or 1 (p odd only).

    The module is the quotient of a permutation module by one invariant
    vector, so its essential p-dimension is at most 1; it is 0 exactly when
    m = 0 or some fixed point of the set carries a coefficient that is
    nonzero mod p.  The p = 2 case is rejected: the argument this encodes
    needs p odd, and no 2-adic form of it is on record here.

    The set is the disjoint union of the coset spaces G/H, one block of
    [G:H] = `cls.index` points per summand.  A permutation perm moves the
    block's coefficients c to c' with c'[perm(i)] = c[i], so c is fixed
    exactly when c[perm(i)] = c[i] for every i; the coset permutations form
    a homomorphism, so checking each generator's permutation suffices.
    """
    if p == 2:
        raise ValueError("classifier is only valid for odd p")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not group.is_p_group(p):
        raise ValueError("acting group must be a p-group for odd prime p")
    if len(coeffs) != sum(cls.index for cls in summands):
        raise ValueError("coefficient vector does not match the set size")
    fixed_point_unit = False
    offset = 0
    for cls in summands:
        permutations = coset_action(group, cls).permutations
        for g in group.generators():
            perm = permutations[g]
            if any(coeffs[offset + perm[i]] != coeffs[offset + i] for i in range(cls.index)):
                raise ValueError("vector is not fixed by the group")
        fixed_point_unit = fixed_point_unit or (cls.index == 1 and coeffs[offset] % p != 0)
        offset += cls.index
    return 0 if fixed_point_unit or not any(coeffs) else 1


# The brute-force oracle's cap on its point count p^dim (dimension 17 at
# p = 2) and on its visited search states.  The most states an answer
# visits is 56,578 (28% of the cap), in the D8 case of the tests'
# `test_solver_matches_oracle_on_larger_sums`; without the (floor, span)
# prune that case visits 347,469, past the cap.  Elsewhere: up to 47,546
# in the tests' C9 cases, 1,655 in `verify` at p = 2-7, 581 in the oracle
# over the p = 3 catalog and 107 in the benchmark's `oracle` workload.
ORACLE_ENUMERATION_CAP = 200000
# The most unknowns, rank(l) * rank(m), that `genus_equal` hands to
# `hom_module`, whose system has that many columns and that many rows per
# group generator.  625 admits rank 25 against rank 25, the largest
# catalog lattices at p = 5 that are compared with their covers.  On a
# shared 2-vCPU machine `genus` of M12r@p=5,r=1 against itself took 4.3 s,
# and against itself in a random basis 30 s; the regular module of C_16
# against itself in a random basis took 1.8 s (an integer HNF of the same
# system, `kernel_basis`, takes 98 s).  The cap bounds the size of the
# system, not the growth of its entries, which a random basis raises.
MAX_HOM_UNKNOWNS = 625
# Random combinations of the Hom basis tried when exhausting them all
# would pass the budget.
GENUS_TRIALS = 64


def genus_equal(l: GaloisModule, m: GaloisModule, p: int,
                budget: int = 10 ** 6, seed: int = 0) -> str:
    """'yes' / 'no' / 'unknown': do the lattices agree after localizing at p?

    Equivalent to the existence of an equivariant map with determinant
    prime to p, i.e. an F_p-combination of the maps from `hom_module`
    (they reduce onto the image of Hom mod p) with nonzero determinant
    mod p.  Exhaustive over all p^k combinations while that
    count fits the budget (exact yes/no); beyond it, GENUS_TRIALS seeded
    random combinations (yes on a hit, unknown otherwise).  Lattices whose
    Hom system would have more than MAX_HOM_UNKNOWNS unknowns raise
    ValueError before it is built.
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
    if n * n > MAX_HOM_UNKNOWNS:
        raise ValueError(f"genus comparison of rank {n} lattices needs {n * n} unknowns, "
                         f"more than {MAX_HOM_UNKNOWNS}")
    basis = hom_module(l, m)
    k = len(basis)
    if k == 0:
        return "no"
    # Each map flattened to one packed vector; k <= n^2 maps combine exactly,
    # and the zero combination is singular.
    lay = layout(n * n, p)
    maps = [lay.pack([x for row in f for x in row]) for f in basis]

    def nonsingular(coeffs):
        entries = lay.unpack(combine(lay, maps, coeffs))
        return len(rref([entries[i:i + n] for i in range(0, n * n, n)], n, p)[0]) == n

    if p ** k <= budget:
        for coeffs in itertools.product(range(p), repeat=k):
            if nonsingular(coeffs):
                return "yes"
        return "no"
    rng = Random(seed)
    for _ in range(GENUS_TRIALS):
        coeffs = [rng.randrange(p) for _ in range(k)]
        if nonsingular(coeffs):
            return "yes"
    return "unknown"
