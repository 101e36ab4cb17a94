"""Acceptance suite: twelve exact cross-checks tying the library together.

Each criterion function returns (passed, detail) and never prints; run_all
runs them in order and collects one row per criterion.  Randomized checks
use fixed seeds so the suite is deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from .catalog import catalog_groups, cyclic, quaternion
from .cocycles import PLPath, build_alpha_cocycle, build_qx_cocycle, clutch
from .cosetposet import coset_poset_homology
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .groupring import coinvariants, moore_h2, pi2_e2_connected
from .groups import (
    Subgroup,
    abelianization,
    central_product,
    commuting_tuples,
    invariant_factors_of_abelian,
    realize_triple,
)
from .intlinalg import AbelianGroupInvariants, Lattice
from .simplicial import (
    bar_degeneracy,
    bar_face,
    build_e,
    commutator_map,
    p_map,
    reduced_homology_range,
)
from .torus import (
    catalog_extension,
    catalog_extensions,
    commutator_lattices,
    psi_star,
    single_commutator_cover,
)


def criterion_1(budget: int = DEFAULT_BUDGET):
    """Coinvariants of the augmentation ideal match the abelianization."""
    checked = 0
    for name, G in catalog_groups(24):
        co = coinvariants(G, budget=budget)
        ab = AbelianGroupInvariants(0, tuple(abelianization(G, budget)))
        if co != ab:
            return False, f"{name}: coinvariants {co} != abelianization {ab}"
        checked += 1
    if checked < 15:
        return False, f"only {checked} catalog groups of order <= 24"
    return True, f"{checked} groups of order <= 24 agree"


def criterion_2(budget: int = DEFAULT_BUDGET):
    """Moore-complex middle homology recovers the group (abelian case) and
    the coinvariants (always)."""
    checked = 0
    for name, G in catalog_groups(16):
        h2 = moore_h2(G, budget=budget)
        if G.is_abelian:
            own = AbelianGroupInvariants(0, tuple(invariant_factors_of_abelian(G, budget)))
            if h2 != own:
                return False, f"{name}: moore_h2 {h2} != group {own}"
        co = coinvariants(G, budget=budget)
        if h2 != co:
            return False, f"{name}: moore_h2 {h2} != coinvariants {co}"
        checked += 1
    return True, f"{checked} groups of order <= 16 agree"


def criterion_3(budget: int = DEFAULT_BUDGET):
    """pi2 of the connected total-space model on the known instances."""
    cases = [[2]] + [[n] for n in range(2, 7)] + [[2, 2]]
    for factors in cases:
        result = pi2_e2_connected(factors, budget=budget)
        expected = AbelianGroupInvariants(0, tuple(factors))
        if result != expected:
            return False, f"pi1 {factors}: got {result}, expected {expected}"
    return True, f"{len(cases)} fundamental groups reproduced"


_ORACLE_GROUPS = ("S3", "D8", "Q8", "Z6", "Z2xZ2")


def criterion_4(budget: int = DEFAULT_BUDGET):
    """Reduced homology of the total-space model agrees with the coset
    poset of abelian subgroups in degrees 0..2."""
    from .catalog import catalog_group

    for name in _ORACLE_GROUPS:
        G = catalog_group(name)
        model = reduced_homology_range(build_e(G, 3, budget=budget), 2, budget)
        poset = coset_poset_homology(G, top=2, budget=budget)
        if model != poset:
            return False, f"{name}: model {model} != poset {poset}"
        if name == "S3" and model[1] != AbelianGroupInvariants(8, ()):
            return False, f"S3 degree-1 homology {model[1]} != Z^8"
    return True, f"{len(_ORACLE_GROUPS)} groups agree in degrees 0..2"


def criterion_5(budget: int = DEFAULT_BUDGET):
    """Abelian catalog groups are exactly the ones with acyclic models
    (degrees 0..2, both the total-space model and the coset poset)."""
    checked = 0
    for name, G in catalog_groups(16):
        model = reduced_homology_range(build_e(G, 3, budget=budget), 2, budget)
        poset = coset_poset_homology(G, top=2, budget=budget)
        model_trivial = all(h.is_trivial for h in model)
        poset_trivial = all(h.is_trivial for h in poset)
        if G.is_abelian and not (model_trivial and poset_trivial):
            return False, f"{name} is abelian but a model has homology"
        if not G.is_abelian and (model_trivial or poset_trivial):
            return False, f"{name} is nonabelian but a model is acyclic"
        checked += 1
    return True, f"{checked} groups of order <= 16 split correctly"


def criterion_6(budget: int = DEFAULT_BUDGET):
    """Commutation-action lattice suite for the two rank-1 fixtures."""
    o2 = catalog_extension("o2")
    if psi_star(o2, 1).to_rows() != [[2]]:
        return False, f"o2 action is {psi_star(o2, 1).to_rows()}, expected [[2]]"
    lattice_sum, subtorus = commutator_lattices(o2)
    if lattice_sum != Lattice.from_columns(1, [[2]]):
        return False, f"o2 image sum is {lattice_sum.basis_rows()}, expected 2Z"
    if not subtorus.is_full:
        return False, "o2 commutator subtorus is not the full circle"
    su2 = catalog_extension("su2_normalizer")
    _, su2_subtorus = commutator_lattices(su2)
    if not su2_subtorus.is_full:
        return False, "su2-normalizer commutator subtorus is not the full circle"
    for E in (o2, su2):
        report = single_commutator_cover(E, 12, budget=budget)
        if not report.covered:
            return False, f"{E.label}: {len(report.missing)} denominator-12 points uncovered"
    return True, "o2 doubling map, full subtori, covers at denominator 12"


def _identity_extensions():
    return [E for _, E in catalog_extensions() if E.rank <= 3 and E.F.order <= 8]


def _random_torus_point(rng, rank: int, denominator: int = 12) -> tuple:
    return tuple(Fraction(rng.randrange(denominator), denominator) for _ in range(rank))


def criterion_7(budget: int = DEFAULT_BUDGET):
    """The lifted commutator identity, sampled: [ps, qt] equals
    [p,q] psi([p,q])(s) psi(q^-1 p q)(t) psi(q)(s^-1)."""
    extensions = _identity_extensions()
    if len(extensions) < 10:
        return False, f"only {len(extensions)} catalog extensions qualify"
    rng = random.Random(0x1dea)
    samples = 1000
    for E in extensions:
        F = E.F
        for _ in range(samples):
            p, q = rng.randrange(F.order), rng.randrange(F.order)
            s = E.torus_element(_random_torus_point(rng, E.rank))
            t = E.torus_element(_random_torus_point(rng, E.rank))
            ps = E.mul(E.lift_element(p), s)
            qt = E.mul(E.lift_element(q), t)
            lhs = E.commutator(ps, qt)
            conj = F.mul(F.mul(F.inv(q), p), q)
            rhs = E.commutator(E.lift_element(p), E.lift_element(q))
            rhs = E.mul(rhs, E.commutator(E.lift_element(F.commutator(p, q)), s))
            rhs = E.mul(rhs, E.commutator(E.lift_element(conj), t))
            rhs = E.mul(rhs, E.commutator(E.lift_element(q), E.inv(s)))
            if lhs != rhs:
                return False, f"{E.label}: identity fails at p={p}, q={q}, s={s.t}, t={t.t}"
    return True, f"{samples} samples on each of {len(extensions)} extensions"


def criterion_8(budget: int = DEFAULT_BUDGET):
    """The implemented bracket [q-lift, torus point] equals the lattice
    action psi_star(q) on every denominator-12 point."""
    checked = 0
    for name, E in catalog_extensions():
        for q in range(E.F.order):
            action = psi_star(E, q)
            for coords in product(range(12), repeat=E.rank):
                t = tuple(Fraction(c, 12) for c in coords)
                bracket = E.commutator(E.lift_element(q), E.torus_element(t))
                expected = E.torus_element(action.times_vector(t))
                if bracket != expected:
                    return False, f"{name}: bracket mismatch at q={q}, t={t}"
                checked += 1
    return True, f"{checked} bracket evaluations match"


def _random_integral_loop(rng, E, segments: int = 3) -> PLPath:
    times = [Fraction(i, segments) for i in range(segments + 1)]
    lifts = [tuple(Fraction(0) for _ in range(E.rank))]
    for _ in range(segments - 1):
        lifts.append(_random_torus_point(rng, E.rank))
    lifts.append(tuple(Fraction(rng.randrange(-2, 3)) for _ in range(E.rank)))
    return PLPath(E, times, lifts, 0)


def criterion_9(budget: int = DEFAULT_BUDGET):
    """Clutching suite: the two-parameter cocycle clutches to zero, its
    inverse to winding of size 2, and commutator-composite windings lie in
    the image lattice of the commutation action."""
    o2 = catalog_extension("o2")
    x = PLPath(o2, (0, 1), ((Fraction(0),), (Fraction(1),)), 0)
    y = PLPath.constant(o2, o2.identity())
    alpha = build_alpha_cocycle(o2, 0, 1, x, y)
    if not alpha.is_valid:
        return False, "two-parameter cocycle fails validation"
    direct = clutch(alpha)
    if direct.winding != (0,):
        return False, f"direct clutching winds {direct.winding}, expected (0,)"
    inverse = clutch(alpha.invert())
    if inverse.winding is None or abs(inverse.winding[0]) != 2:
        return False, f"inverse clutching winds {inverse.winding}, expected size 2"

    rng = random.Random(0xc10c)
    loops = 20
    for name, E in catalog_extensions():
        for _ in range(loops):
            q = rng.randrange(E.F.order)
            loop = _random_integral_loop(rng, E, segments=rng.randrange(2, 5))
            result = build_qx_cocycle(E, q, loop)
            winding = result.clutching.winding
            if winding is None:
                return False, f"{name}: composite clutching left the identity component"
            image = Lattice.from_columns(E.rank, psi_star(E, q).to_columns())
            if not image.contains(winding):
                return False, f"{name}: winding {winding} outside the action image at q={q}"
    return True, f"fixtures plus {loops} loops on each catalog extension"


def criterion_10(budget: int = DEFAULT_BUDGET):
    """Commuting tuples of a central product H x_Z K (H abelian) biject
    with (H^n x C_n(K)) / Z^n: every tuple is hit exactly |Z|^n times."""
    cases = [
        ("Z4 and Z4 over Z2", cyclic(4), cyclic(4), {0: 0, 2: 2}),
        ("Z2 and Q8 over Z2", cyclic(2), quaternion(2), {0: 0, 1: 2}),
    ]
    for label, H, K, iso in cases:
        G, proj = central_product(H, K, iso)
        z = len(iso)
        for n in range(1, 4):
            expected = set(map(tuple, commuting_tuples(G, n, budget=budget)))
            counts = Counter()
            for h_tuple in product(range(H.order), repeat=n):
                for k_tuple in commuting_tuples(K, n, budget=budget):
                    counts[
                        tuple(proj[h * K.order + k] for h, k in zip(h_tuple, k_tuple))
                    ] += 1
            if set(counts) != expected:
                return False, f"{label}, n={n}: image is not the commuting tuples"
            bad = {t: c for t, c in counts.items() if c != z**n}
            if bad:
                return False, f"{label}, n={n}: fiber sizes differ from {z}^{n}"
    return True, "both central products, tuple lengths 1..3"


def criterion_11(budget: int = DEFAULT_BUDGET):
    """The projection and commutator maps commute with every face and
    degeneracy through level 3, exhaustively, plus the composition identity
    on successive commutators."""
    checked = 0
    groups = 0
    for name, G in catalog_groups(12):
        S = build_e(G, 3, budget=budget)
        image = {e: (p_map(G, e), commutator_map(G, e)) for level in S.levels for e in level}
        for k in range(1, 4):
            for e in S.levels[k]:
                p, c = image[e]
                for i in range(k + 1):
                    p_face, c_face = image[S.face(k, e, i)]
                    if p_face != bar_face(G, p, i):
                        return False, f"{name}: projection breaks face {i} at level {k}"
                    if c_face != bar_face(G, c, i):
                        return False, f"{name}: commutator map breaks face {i} at level {k}"
                    checked += 2
        for k in range(3):
            for e in S.levels[k]:
                p, c = image[e]
                for i in range(k + 1):
                    p_degenerate, c_degenerate = image[S.degeneracy(k, e, i)]
                    if p_degenerate != bar_degeneracy(p, i):
                        return False, f"{name}: projection breaks degeneracy {i} at level {k}"
                    if c_degenerate != bar_degeneracy(c, i):
                        return False, f"{name}: commutator map breaks degeneracy {i} at level {k}"
                    checked += 2
        for g0, g1, g2 in S.levels[2]:
            left = G.mul(G.commutator(g0, g1), G.commutator(g1, g2))
            if left != G.commutator(g0, g2):
                return False, f"{name}: commutator composition fails on ({g0},{g1},{g2})"
            checked += 1
        groups += 1
    return True, f"{checked} identities across {groups} groups of order <= 12"


def criterion_12(budget: int = DEFAULT_BUDGET):
    """Almost-commuting triples over the quaternion center: every prescribed
    pair of central commutators is realized."""
    G = quaternion(2)
    K = Subgroup(G, (0, 2))
    for c1, c2 in product((0, 2), repeat=2):
        triple = realize_triple(G, K, c1, c2, budget=budget)
        if triple is None:
            return False, f"no triple with commutators ({G.name_of(c1)}, {G.name_of(c2)})"
        g1, g2, g3 = triple
        if (
            G.commutator(g1, g2) != 0
            or G.commutator(g2, g3) != c1
            or G.commutator(g1, g3) != c2
        ):
            return False, f"returned triple {triple} has wrong commutators"
    return True, "all four central commutator pairs realized"


CRITERIA = (
    (1, "coinvariants match abelianization", criterion_1),
    (2, "moore complex middle homology", criterion_2),
    (3, "pi2 of the connected total space", criterion_3),
    (4, "total-space model matches coset poset", criterion_4),
    (5, "abelian groups are exactly the acyclic ones", criterion_5),
    (6, "commutation-action lattice suite", criterion_6),
    (7, "lifted commutator identity", criterion_7),
    (8, "bracket equals lattice action", criterion_8),
    (9, "clutching winding suite", criterion_9),
    (10, "central product commuting tuples", criterion_10),
    (11, "projection and commutator maps are simplicial", criterion_11),
    (12, "almost-commuting triple realization", criterion_12),
)


def run_all(budget: int = DEFAULT_BUDGET) -> list:
    """Run every criterion; returns [(number, name, passed, detail)].  A
    criterion that raises fails, except that a BudgetExceededError, a
    refusal of the whole run, propagates."""
    results = []
    for number, name, fn in CRITERIA:
        try:
            passed, detail = fn(budget=budget)
        except BudgetExceededError:
            raise
        except Exception as e:
            passed, detail = False, f"{type(e).__name__}: {e}"
        results.append((number, name, passed, detail))
    return results
