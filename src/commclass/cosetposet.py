"""Coset poset of abelian subgroups and the homology of its order complex.

Vertices are cosets gA for every abelian subgroup A (the trivial subgroup
included, the whole group included when abelian), ordered by inclusion of
the underlying element sets.  The reduced homology of the order complex is
an independent oracle for the homogeneous simplicial model: the two agree
degree by degree on the acceptance corpus.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, ValidationError, check_budget
from .groups import FiniteGroup, Subgroup, closure
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_range
from .simplicial import drop_entry, face_boundary


def abelian_subgroups(G: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list:
    """All abelian subgroups of G as Subgroup objects, trivial included,
    sorted by (order, elements)."""
    seen = {(0,)}
    frontier = [(0,)]
    count = 1
    while frontier:
        nxt = []
        for els in frontier:
            elset = set(els)
            for g in range(1, G.order):
                if g in elset:
                    continue
                if not all(G.commute(g, h) for h in els):
                    continue
                grown = closure(G, els + (g,))
                if grown not in seen:
                    seen.add(grown)
                    count += 1
                    check_budget(count, budget, "abelian subgroup enumeration")
                    nxt.append(grown)
        frontier = nxt
    subs = [Subgroup(G, els, check=False) for els in seen]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


class CosetPoset:
    """The poset of cosets of abelian subgroups, with its order complex.

    vertices[i] is a frozenset of element indices (the coset as a set);
    vertex_info[i] is (subgroup elements, representative).  Comparability
    is proper set inclusion.
    """

    __slots__ = ("group", "vertices", "vertex_info", "successors")

    def __init__(self, G: FiniteGroup, budget: int = DEFAULT_BUDGET):
        self.group = G
        cosets = {}
        for sub in abelian_subgroups(G, budget=budget):
            done = set()
            for g in range(G.order):
                if g in done:
                    continue
                cos = frozenset(G.mul(g, a) for a in sub.elements)
                done |= cos
                key = cos
                if key not in cosets:
                    cosets[key] = (sub.elements, min(cos))
        order = sorted(cosets, key=lambda c: (len(c), sorted(c)))
        self.vertices = order
        self.vertex_info = [cosets[c] for c in order]
        self.successors = []
        for i, c in enumerate(order):
            succ = [j for j, d in enumerate(order) if len(c) < len(d) and c < d]
            self.successors.append(succ)

    def chains(self, max_dim: int, budget: int = DEFAULT_BUDGET) -> list:
        """Levels of the order complex: chains[d] lists the strictly
        increasing (d+1)-vertex chains, for d = 0..max_dim or up to the
        first empty level, whichever comes first."""
        levels = [[(i,) for i in range(len(self.vertices))]]
        total = len(levels[0])
        check_budget(total, budget, "order complex chains")
        while len(levels) <= max_dim and levels[-1]:
            nxt = [chain + (j,) for chain in levels[-1] for j in self.successors[chain[-1]]]
            total += len(nxt)
            check_budget(total, budget, "order complex chains")
            levels.append(nxt)
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
        check_budget(top + 1, budget, "coset poset homology degrees")
        levels = self.chains(top + 1, budget=budget)
        out = homology_range(
            [_chain_boundary(levels, d) for d in range(1, len(levels))], reduced=True
        )
        return out + [AbelianGroupInvariants(0, ())] * (top + 1 - len(out))


def _chain_boundary(levels, d) -> IntMatrix:
    """Boundary matrix from d-chains to (d-1)-chains (drop one vertex)."""
    below = {c: i for i, c in enumerate(levels[d - 1])}
    return face_boundary(levels[d], d, drop_entry, below)


def coset_poset_homology(G: FiniteGroup, top: int = 2, budget: int = DEFAULT_BUDGET) -> list:
    """Reduced homology of the coset-poset order complex in degrees 0..top."""
    return CosetPoset(G, budget=budget).homology(top, budget=budget)
