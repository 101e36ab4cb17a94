"""Coset posets of abelian subgroups and the homology of their order
complexes.

Over every abelian subgroup, CosetPoset is the coset poset P, whose order
complex is homotopy equivalent to E(2,G) (Adem–Cohen–Torres-Giese 2012,
E(2,G) ≃ hocolim_A G/A; Okay 2018).  hB -> h·∩{A maximal abelian : A ⊇ B}
is a closure operator on P, so P ≃ Q, the poset over the intersections of
maximal abelian subgroups, closed_abelian_subgroups (Quillen 1978, 1.3),
read off the centraliser lattice of groups.continuation_counts.
homology-e2g reduces Q; coset-poset reports P, an independent check of it.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, ValidationError, meter
from .groups import FiniteGroup, Subgroup
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_range
from .simplicial import drop_entry, face_boundary


def abelian_subgroups(G: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list:
    """All abelian subgroups of G as Subgroup objects, trivial included,
    sorted by (order, elements).  Each A found is carried with its
    centraliser C and grown by each g of C outside A, in increasing order, to
    <A, g>: the union of the cosets A·g^k, k = 0, 1, ..., up to the first
    whose lead g^k it already holds, with centraliser C ∩ C_G(g).  Each
    subgroup found is charged."""
    budget = meter(budget)
    seen, frontier = {(0,)}, [((0,), frozenset(range(G.order)))]
    while frontier:
        nxt = []
        for els, C in frontier:
            for g in sorted(C.difference(els)):
                grown, lead = set(els), g
                while lead not in grown:
                    grown.update(G.table[a][lead] for a in els)
                    lead = G.table[lead][g]
                grown = tuple(sorted(grown))
                if grown not in seen:
                    seen.add(grown)
                    budget.charge(1, "abelian subgroup enumeration")
                    nxt.append((grown, C & G.commuting_set(g)))
        frontier = nxt
    subs = [Subgroup(G, els, check=False) for els in seen]
    return sorted(subs, key=lambda s: (s.order, s.elements))


def closed_abelian_subgroups(G: FiniteGroup, lattice) -> list:
    """The intersections of maximal abelian subgroups of G, sorted as
    abelian_subgroups sorts, without listing the abelian subgroups: those
    above an abelian B are the maximal abelian subgroups of C = C_G(B), and
    they meet in Z(C).  The centralisers C are the sets of the centraliser
    lattice, the keys of groups.continuation_counts."""
    centres = {frozenset(z for z in C if C <= G.commuting_set(z)) for C in lattice}
    subs = [Subgroup(G, els, check=False) for els in centres]
    return sorted(subs, key=lambda s: (s.order, s.elements))


class CosetPoset:
    """The poset of the cosets hI of a family of subgroups I, every abelian
    one by default, ordered by inclusion, with its order complex.

    vertices[i] is a coset as a frozenset of element indices, ordered by
    (size, elements).  successors[i] lists, ascending, the cosets above it,
    read off the inclusions of the family: one coset hJ for each J > I.
    """

    __slots__ = ("group", "family", "vertices", "successors")

    def __init__(self, G: FiniteGroup, family=None, budget: int = DEFAULT_BUDGET):
        if family is None:
            family = abelian_subgroups(G, budget=budget)
        self.group, self.family = G, family
        # coset_of[s][h] is the coset h·I of the family's subgroup s = I
        coset_of, subgroup_of = [[None] * G.order for _ in family], {}
        for s, (sub, of) in enumerate(zip(family, coset_of)):
            for h in range(G.order):
                if of[h] is None:
                    c = frozenset(G.table[h][a] for a in sub.elements)
                    subgroup_of[c] = s
                    for g in c:
                        of[g] = c
        sets = [frozenset(sub.elements) for sub in family]
        above = [[t for t, J in enumerate(sets) if I < J] for I in sets]
        self.vertices = sorted(subgroup_of, key=lambda c: (len(c), sorted(c)))
        number = {c: i for i, c in enumerate(self.vertices)}
        self.successors = [
            sorted(number[coset_of[t][next(iter(c))]] for t in above[subgroup_of[c]])
            for c in self.vertices
        ]

    def chains(self, max_dim: int, budget: int = DEFAULT_BUDGET) -> list:
        """Levels of the order complex: chains[d] lists the strictly
        increasing (d+1)-vertex chains, for d = 0..max_dim or up to the
        first empty level, whichever comes first, each charged before it is built."""
        budget, succ = meter(budget), self.successors
        budget.charge(len(succ), "order complex chains")
        levels = [[(i,) for i in range(len(succ))]]
        while len(levels) <= max_dim and levels[-1]:
            budget.charge(sum(len(succ[c[-1]]) for c in levels[-1]), "order complex chains")
            levels.append([c + (j,) for c in levels[-1] for j in succ[c[-1]]])
        return levels

    def size(self):
        """(vertex count, edge count) of the order complex's 1-skeleton."""
        return len(self.vertices), sum(len(s) for s in self.successors)

    def homology(self, top: int = 2, budget: int = DEFAULT_BUDGET) -> list:
        """Reduced homology of the order complex in degrees 0..top.  Every
        reported degree is a row of the result, so the degrees count against
        the budget before any chain is enumerated; degrees above the first
        empty level are 0 and build no boundary."""
        if top < 0:
            raise ValidationError("top degree must be nonnegative")
        budget = meter(budget)
        budget.charge(top + 1, "coset poset homology degrees")
        levels = self.chains(top + 1, budget=budget)
        boundaries = [_chain_boundary(levels, d) for d in range(1, len(levels))]
        out = homology_range(boundaries, reduced=True, budget=budget)
        return out + [AbelianGroupInvariants(0, ())] * (top + 1 - len(out))


def _chain_boundary(levels, d) -> IntMatrix:
    """Boundary matrix from d-chains to (d-1)-chains (drop one vertex)."""
    below = {c: i for i, c in enumerate(levels[d - 1])}
    return face_boundary(levels[d], d, drop_entry, below)


def coset_poset_homology(G: FiniteGroup, top: int = 2, budget: int = DEFAULT_BUDGET) -> list:
    """Reduced homology of the coset-poset order complex in degrees 0..top."""
    budget = meter(budget)
    return CosetPoset(G, budget=budget).homology(top, budget=budget)
