"""Finite groups as explicit multiplication tables, subgroups, the
commuting-tuple enumeration the simplicial models are built from, and the
one walk of the centraliser lattice S -> S ∩ C_G(x): it counts those
tuples in each of its sets, which the Morse complex is counted and checked
with, and its sets' centres are the closed family of the coset poset.

Conventions: elements are indices 0..order-1 with the identity at index 0;
the commutator is [x, y] = x^-1 y^-1 x y; commuting tuples are tuples whose
entries commute pairwise.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, MathInvariantError, ValidationError, meter
from .intlinalg import IntMatrix, homology_range


class FiniteGroup:
    """Finite group given by its full multiplication table.

    table[a][b] is the index of a*b.  Index 0 is the identity.  The table
    is validated on construction: identity row/column, Latin square, and
    associativity by Light's test on a generating set (Clifford–Preston
    1961, §1.2): the g with (xy)g = x(yg) for all x, y contain 1 and are
    closed under products, so if every generator is one of them, every
    element is.
    """

    __slots__ = ("order", "table", "names", "label", "_inv", "_commuting")

    def __init__(self, table, names=None, label=None, check=True):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise ValidationError("names length does not match order")
            if len(set(names)) != n:
                raise ValidationError("element names must be unique")
        self.order = n
        self.table = table
        self.names = names
        self.label = label
        self._commuting = None
        if check:
            self._validate()
        self._inv = tuple(row.index(0) for row in table)

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValidationError("empty group")
        full = set(range(n))
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise ValidationError("table is not square")
            if set(row) != full:
                raise ValidationError(f"row {a} is not a permutation")
        for b in range(n):
            if {self.table[a][b] for a in range(n)} != full:
                raise ValidationError(f"column {b} is not a permutation")
        if self.table[0] != tuple(range(n)):
            raise ValidationError("index 0 must be the identity (row)")
        if any(self.table[a][0] != a for a in range(n)):
            raise ValidationError("index 0 must be the identity (column)")
        t = self.table
        for g in generators(self):
            # right multiplication by g against each left multiplication x
            right = [row[g] for row in t]
            for x, row in enumerate(t):
                if [right[xy] for xy in row] != [row[yg] for yg in right]:
                    y = next(y for y in range(n) if right[row[y]] != row[right[y]])
                    raise ValidationError(f"associativity fails at ({x},{y},{g})")

    # -- basic operations ---------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        t = self.table
        return t[t[self._inv[a]][self._inv[b]]][t[a][b]]

    def conjugate(self, a, b):
        """b^-1 a b."""
        t = self.table
        return t[t[self._inv[b]][a]][b]

    def commute(self, a, b):
        return self.table[a][b] == self.table[b][a]

    def element_order(self, a):
        r, k = a, 1
        while r != 0:
            r = self.table[r][a]
            k += 1
        return k

    @property
    def is_abelian(self):
        """Whether G is abelian, that is, whether each element of a
        generating set commutes with all of G."""
        return all(len(self.commuting_set(g)) == self.order for g in generators(self))

    def commuting_set(self, a):
        """Frozenset of elements commuting with a (the centralizer as a set)."""
        if self._commuting is None:
            self._commuting = [None] * self.order
        if self._commuting[a] is None:
            t = self.table
            self._commuting[a] = frozenset(
                b for b in range(self.order) if t[a][b] == t[b][a]
            )
        return self._commuting[a]

    def name_of(self, a):
        return self.names[a]

    def __repr__(self):
        tag = self.label or f"order {self.order}"
        return f"FiniteGroup({tag})"


class Subgroup:
    """A subgroup given by its sorted element tuple inside a parent group."""

    __slots__ = ("parent", "elements", "_set")

    def __init__(self, parent: FiniteGroup, elements, check=True):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self._set = frozenset(self.elements)
        if check:
            if 0 not in self._set:
                raise ValidationError("subgroup must contain the identity")
            t = parent.table
            for a in self.elements:
                if parent.inv(a) not in self._set:
                    raise ValidationError("subgroup not closed under inverses")
                for b in self.elements:
                    if t[a][b] not in self._set:
                        raise ValidationError("subgroup not closed under products")

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._set

    def is_abelian(self):
        g = self.parent
        els = self.elements
        return all(g.commute(a, b) for i, a in enumerate(els) for b in els[i + 1:])

    def is_central(self):
        g = self.parent
        return all(len(g.commuting_set(a)) == g.order for a in self.elements)

    def is_normal(self):
        g = self.parent
        return all(
            g.conjugate(a, b) in self._set for a in self.elements for b in range(g.order)
        )

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent!r})"


def closure(G: FiniteGroup, generators) -> tuple:
    """Sorted element tuple of the subgroup generated by `generators`: the
    products 1·g1·g2···gk of generators, multiplied on the right, since in a
    finite group every inverse is a positive power."""
    gens, t = set(generators), G.table
    seen, todo = {0}, [0]
    while todo:
        row = t[todo.pop()]
        for g in gens:
            if row[g] not in seen:
                seen.add(row[g])
                todo.append(row[g])
    return tuple(sorted(seen))


def generated_subgroup(G: FiniteGroup, generators) -> Subgroup:
    return Subgroup(G, closure(G, generators), check=False)


def generators(G: FiniteGroup) -> list:
    """A generating set of G, picked greedily: each element, in index order,
    that is not in the subgroup generated by those picked before it."""
    gens, span = [], {0}
    for a in range(G.order):
        if a not in span:
            gens.append(a)
            span = set(closure(G, gens))
    return gens


def center(G: FiniteGroup) -> Subgroup:
    n = G.order
    return Subgroup(G, [a for a in range(n) if len(G.commuting_set(a)) == n], check=False)


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G], the subgroup generated by all commutators."""
    n = G.order
    return generated_subgroup(G, {G.commutator(a, b) for a in range(n) for b in range(n)})


def quotient_group(G: FiniteGroup, N: Subgroup, label=None):
    """Quotient by a normal subgroup.  Returns (Q, projection list); Q
    orders the cosets by their least members and names each by its own."""
    if N.parent is not G:
        raise ValidationError("subgroup belongs to a different group")
    if not N.is_normal():
        raise ValidationError("quotient requires a normal subgroup")
    t = G.table
    rep_of = [None] * G.order
    reps = []
    for a in range(G.order):
        if rep_of[a] is None:
            coset = sorted(t[a][x] for x in N.elements)
            r = coset[0]
            for c in coset:
                rep_of[c] = r
            reps.append(r)
    reps.sort()
    pos = {r: i for i, r in enumerate(reps)}
    proj = [pos[rep_of[a]] for a in range(G.order)]
    table = [[proj[t[a][b]] for b in reps] for a in reps]
    Q = FiniteGroup(table, names=[G.names[r] for r in reps], label=label, check=False)
    return Q, proj


def direct_product(G: FiniteGroup, H: FiniteGroup, label=None) -> FiniteGroup:
    n, m = G.order, H.order
    table = [
        [(G.table[a][c]) * m + H.table[b][d] for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    names = [f"({G.names[a]},{H.names[b]})" for a in range(n) for b in range(m)]
    return FiniteGroup(table, names=names, label=label, check=False)


def invariant_factors_of_abelian(G: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list:
    """Invariant factor list of an abelian group (empty list for trivial).

    G is presented on e_a, one per element, by e_a + e_b - e_ab for a in {1}
    and a generating set S: with phi(a) the class of e_a, a = 1 gives
    phi(1) = 0 and a = s gives phi(sb) = phi(s) + phi(b); every a is a
    positive word in S, so phi(ab) = phi(a) + phi(b) by induction on length.
    The group is H_0 of that presentation, with free rank 0.
    """
    if not G.is_abelian:
        raise ValidationError("invariant factors require an abelian group")
    n = G.order
    cols = []
    for a in [0] + generators(G):
        for b in range(n):
            col = {}
            for idx, s in ((a, 1), (b, 1), (G.table[a][b], -1)):
                col[idx] = col.get(idx, 0) + s
            cols.append(col)
    h = homology_range([IntMatrix.from_column_dicts(cols, n)], budget=budget)[0]
    if h.free_rank:
        raise MathInvariantError("abelian presentation has unexpected rank")
    return list(h.torsion)


def abelianization(G: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list:
    """Invariant factors of G/[G,G]; its elimination is charged to budget."""
    Q, _ = quotient_group(G, commutator_subgroup(G))
    return invariant_factors_of_abelian(Q, budget)


# ---------------------------------------------------------------------------
# tuple enumerations


def commuting_levels(G: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> list:
    """The pairwise commuting k-tuples for k = 0..n, each level in
    lexicographic order, from one walk: level k+1 extends each k-tuple by
    every element, in increasing order, of the set commuting with its
    entries, and is charged its (k+1)·len(level) entries first."""
    if n < 0:
        raise ValidationError("tuple length must be nonnegative")
    budget = meter(budget)
    # sets[i] is the set commuting with the entries of levels[-1][i], and
    # steps[S] pairs each g in S, in increasing order, with S ∩ C(g)
    sets, levels, steps = [frozenset(range(G.order))], [[()]], {}
    for k in range(1, n + 1):
        for S in set(sets) - steps.keys():
            steps[S] = [(g, S & G.commuting_set(g)) for g in sorted(S)]
        budget.charge(k * sum(len(S) for S in sets), f"commuting tuples of length {k}")
        levels.append([t + (g,) for t, S in zip(levels[-1], sets) for g, _ in steps[S]])
        sets = [T for S in sets for _, T in steps[S]]
    return levels


def commuting_tuples(G: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> list:
    """All n-tuples of pairwise commuting elements, in lexicographic order:
    the top level of commuting_levels."""
    return commuting_levels(G, n, budget=budget)[n]


def continuation_counts(G: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> dict:
    """The numbers f(0, S), ..., f(n, S) of pairwise commuting k-tuples
    without an identity entry and with every entry in S, as a list for each
    set S of the centraliser lattice, the sets S ∩ C_G(x) reachable from G,
    counted without listing them:
    f(k, S) = sum over x in S, x != 1, of f(k - 1, S ∩ C(x)), f(0, S) = 1.
    Each set of the lattice after G is charged as it is found, and the n
    counts each set gains before they are counted."""
    if n < 0:
        raise ValidationError("tuple length must be nonnegative")
    budget = meter(budget)
    # each set of the lattice with its next sets and their multiplicities
    top = frozenset(range(G.order))
    children, todo = {top: {}}, [top]
    while todo:
        S = todo.pop()
        nxt = children[S]
        for x in S:
            if x:
                T = S & G.commuting_set(x)
                nxt[T] = nxt.get(T, 0) + 1
                if T not in children:
                    children[T] = {}
                    budget.charge(1, "centraliser lattice")
                    todo.append(T)
    budget.charge(len(children) * n, f"centraliser lattice counts through length {n}")
    f = {S: [1] for S in children}
    for k in range(n):
        level = [sum(m * f[T][k] for T, m in nxt.items()) for nxt in children.values()]
        for counts, c in zip(f.values(), level):
            counts.append(c)
    return f


# ---------------------------------------------------------------------------
# central products


def central_product(H: FiniteGroup, K: FiniteGroup, iso: dict, label=None):
    """Central product H x_Z K: the quotient of H x K by the antidiagonal
    {(z, iso(z)^-1)} of a common central subgroup Z.

    `iso` maps elements of a central subgroup of H isomorphically onto a
    central subgroup of K.  Returns (G, proj) where proj maps the index
    h * |K| + k of H x K onto the quotient index.  An empty/identity-only
    iso gives the direct product.
    """
    zh = sorted(iso)
    zk = sorted(iso.values())
    if len(set(iso.values())) != len(zh):
        raise ValidationError("iso must be injective")
    # Subgroup checks that the domain and image are subgroups
    zh_sub = Subgroup(H, tuple(zh) or (0,))
    zk_sub = Subgroup(K, tuple(zk) or (0,))
    if not zh_sub.is_central():
        raise ValidationError("iso domain must be central in H")
    if not zk_sub.is_central():
        raise ValidationError("iso image must be central in K")
    iso = dict(iso) or {0: 0}
    # multiplicative at (1, 1), so the identity goes to the identity
    for a in zh:
        for b in zh:
            if iso[H.mul(a, b)] != K.mul(iso[a], iso[b]):
                raise ValidationError("iso is not multiplicative")

    m = K.order
    antidiagonal = Subgroup(
        direct_product(H, K), [z * m + K.inv(iso[z]) for z in iso], check=False
    )
    return quotient_group(antidiagonal.parent, antidiagonal, label=label)


def realize_triple(G: FiniteGroup, K: Subgroup, c1, c2, budget: int = DEFAULT_BUDGET):
    """First triple (g1, g2, g3) in lexicographic order with
    [g2, g3] = c1, [g1, g3] = c2, [g1, g2] = identity; None if none exists.

    K must be central and contain c1 and c2.
    """
    if K.parent is not G:
        raise ValidationError("K belongs to a different group")
    if not K.is_central():
        raise ValidationError("realize_triple requires K central in G")
    if c1 not in K or c2 not in K:
        raise ValidationError("target commutators must lie in K")
    meter(budget).charge(G.order**3, "triple search")
    n = G.order
    for g1 in range(n):
        for g2 in range(n):
            if G.commutator(g1, g2) != 0:
                continue
            for g3 in range(n):
                if G.commutator(g2, g3) == c1 and G.commutator(g1, g3) == c2:
                    return (g1, g2, g3)
    return None
