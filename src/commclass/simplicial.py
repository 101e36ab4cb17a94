"""Truncated simplicial sets built from commuting tuples in a finite group,
their normalized chain complexes, and integral homology.

A truncation stores its simplices, one membership set per level, and the
face and degeneracy maps it is given, and applies the maps to simplices on
demand.  face_boundary is the one alternating-face loop that assembles
boundary matrices from a face map and a row map keyed by simplex, shared
by the truncations and the coset poset.

Two models are provided, each built from one walk of the commuting tuples
(groups.commuting_levels).  build_c stacks the pairwise-commuting k-tuples
with the bar maps bar_face (multiply adjacent entries, drop at the ends)
and bar_degeneracy (insert the identity); its realization is the
commutativity classifying space of the group.  build_e stacks the
(k+1)-tuples whose successive quotients commute pairwise, with homogeneous
faces (drop an entry); it models the total space whose homology vanishes
exactly for abelian groups, and it is the free G-cover of the first model.
morse_complex builds the Morse complex, with the same homology, of Brown's
collapsing scheme on the normal forms x = r(x)·z(x) (a coset letter of
G/Z(G), then a polycyclic word in the centre) on the first model: one
level-by-level scan lists the critical cells only and counts the matched
ones, each level is checked and built as soon as it is scanned, and each
boundary column comes from one gradient flow, memoised on matched faces;
the second model's homology is read from the coset poset (cosetposet).
build_c and build_e stay as the unreduced oracle, and level_sizes counts
a model's levels.
p_map projects the second model onto the first, and commutator_map records
successive commutators.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from operator import add, mul
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, MathInvariantError, TruncationError, ValidationError, meter
from .groups import FiniteGroup, center, commuting_levels, continuation_counts
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_at, homology_range


class SimplicialTruncation:
    """A simplicial set stored up to a degree bound.

    levels[k] lists the k-simplices (arbitrary hashable objects, here
    tuples of group-element indices).  The face and degeneracy maps,
    face(x, i) -> d_i x and degeneracy(x, i) -> s_i x on simplices, are kept
    as given and applied on demand, faces at degrees 1..max_degree and
    degeneracies at 0..max_degree-1; another degree raises TruncationError,
    and a face or degeneracy that leaves the stored levels raises
    MathInvariantError.
    """

    __slots__ = ("max_degree", "levels", "label", "_members", "_face", "_degeneracy", "_nondegen")

    def __init__(self, levels, face, degeneracy, label=None):
        levels = [list(level) for level in levels]
        if not levels:
            raise ValidationError("need at least level 0")
        self.max_degree = len(levels) - 1
        self.levels, self.label = levels, label
        self._face, self._degeneracy = face, degeneracy
        self._members = [set(level) for level in levels]
        for k, (level, members) in enumerate(zip(levels, self._members)):
            if len(members) != len(level):
                raise ValidationError(f"duplicate simplices at level {k}")
        self._nondegen = [levels[0]]
        for k, level in enumerate(levels[:-1]):
            degenerate = {self.degeneracy(k, x, i) for x in level for i in range(k + 1)}
            self._nondegen.append([x for x in levels[k + 1] if x not in degenerate])

    def level_size(self, k):
        return len(self.levels[k])

    def nondegenerate(self, k):
        """The nondegenerate k-simplices."""
        return self._nondegen[k]

    def _check_degree(self, k, low, high, what):
        if not low <= k <= high:
            raise TruncationError(f"no {what} at degree {k} in a depth-{self.max_degree} truncation")

    def _map(self, k, x, i, fn, target, name):
        """fn(x, i) for the k-simplex x, refused unless level target holds it."""
        y = fn(x, i)
        if y not in self._members[target]:
            raise MathInvariantError(f"{name}_{i} leaves the stored levels at degree {k}: {x!r}")
        return y

    def face(self, k, x, i):
        """d_i of the k-simplex x, a (k-1)-simplex."""
        self._check_degree(k, 1, self.max_degree, "face")
        return self._map(k, x, i, self._face, k - 1, "face d")

    def degeneracy(self, k, x, i):
        """s_i of the k-simplex x, a (k+1)-simplex."""
        self._check_degree(k, 0, self.max_degree - 1, "degeneracy")
        return self._map(k, x, i, self._degeneracy, k + 1, "degeneracy s")

    def verify_identities(self):
        """Exhaustively check the simplicial identities on all stored levels.

        Raises MathInvariantError at the first failure; returns the number
        of identities checked.
        """
        d, s, N = self.face, self.degeneracy, self.max_degree
        checked = 0

        def fail(identity, k, x):
            raise MathInvariantError(f"{identity} at level {k}, simplex {x}")

        for k, level in enumerate(self.levels):
            for x in level:
                for j in range(1, k + 1 if k >= 2 else 1):
                    for i in range(j):
                        if d(k - 1, d(k, x, j), i) != d(k - 1, d(k, x, i), j - 1):
                            fail(f"d_{i} d_{j} != d_{j - 1} d_{i}", k, x)
                        checked += 1
                for j in range(k + 1 if k < N - 1 else 0):
                    for i in range(j + 1):
                        if s(k + 1, s(k, x, j), i) != s(k + 1, s(k, x, i), j + 1):
                            fail(f"s_{i} s_{j} != s_{j + 1} s_{i}", k, x)
                        checked += 1
                for j in range(k + 1 if k < N else 0):
                    for i in range(k + 2):
                        if i < j:
                            want = s(k - 1, d(k, x, i), j - 1)
                        else:
                            want = x if i <= j + 1 else s(k - 1, d(k, x, i - 1), j)
                        if d(k + 1, s(k, x, j), i) != want:
                            fail(f"d_{i} s_{j} identity fails", k, x)
                        checked += 1
        return checked

    def boundary_matrix(self, k):
        """The degree-k boundary Σ(-1)^i d_i of the normalized chain complex
        as an IntMatrix.

        Columns are nondegenerate k-simplices, rows nondegenerate
        (k-1)-simplices, and degenerate faces are dropped: every face
        outside the stored levels is refused, so a face outside the rows is
        degenerate.
        """
        self._check_degree(k, 1, self.max_degree, "boundary")
        row_of = {x: r for r, x in enumerate(self._nondegen[k - 1])}
        return face_boundary(self._nondegen[k], k, partial(self.face, k), row_of)

    def __repr__(self):
        tag = f"{self.label}, " if self.label else ""
        sizes = "/".join(str(len(level)) for level in self.levels)
        return f"SimplicialTruncation({tag}levels {sizes})"


def face_boundary(columns, k, face, row_of) -> IntMatrix:
    """The boundary Σ(-1)^i face(x, i), i = 0..k, of each column x as an
    IntMatrix with len(row_of) rows; faces that row_of does not number are
    dropped."""
    cols = []
    for x in columns:
        col = {}
        sign = 1
        for i in range(k + 1):
            r = row_of.get(face(x, i))
            if r is not None:
                col[r] = col.get(r, 0) + sign
            sign = -sign
        cols.append(col)
    return IntMatrix.from_column_dicts(cols, len(row_of))


def drop_entry(x: tuple, i: int) -> tuple:
    """The face of a tuple that drops its entry i."""
    return x[:i] + x[i + 1 :]


def _boundaries(S: SimplicialTruncation, top: int, bottom: int = 1) -> list:
    """The normalized boundaries d_bottom..d_{top+1}; H_0..H_top need
    d_1..d_{top+1}."""
    if top + 1 > S.max_degree:
        raise TruncationError(
            f"H_{top} needs levels through {top + 1}; truncation stops at {S.max_degree}"
        )
    return [S.boundary_matrix(k) for k in range(bottom, top + 2)]


def homology(S: SimplicialTruncation, k: int) -> AbelianGroupInvariants:
    """Integral homology H_k of the normalized chain complex of S.

    Needs the boundary out of degree k+1, so the truncation must extend at
    least one level beyond k.  Only d_k and d_{k+1} are built.
    """
    if k < 0:
        raise ValidationError("homology degree must be nonnegative")
    if k == 0:
        return homology_range(_boundaries(S, 0))[0]
    return homology_at(*_boundaries(S, k, bottom=k))


def reduced_homology_range(S: SimplicialTruncation, top: int, budget=DEFAULT_BUDGET) -> list:
    """Reduced homology in degrees 0..top as a list."""
    return homology_range(_boundaries(S, top), reduced=True, budget=budget)


# ---------------------------------------------------------------------------
# the two models


def _truncation_levels(G: FiniteGroup, N: int, budget) -> list:
    """commuting_levels(G, N) for a depth-N truncation, whose k+1 maps copy
    about k entries of each k-simplex: N(N+1)(N+2)/3 in all, charged first."""
    if N < 0:
        raise ValidationError("degree bound must be nonnegative")
    budget = meter(budget)
    budget.charge(N * (N + 1) * (N + 2) // 3, f"faces and degeneracies of depth {N}")
    return commuting_levels(G, N, budget=budget)


def bar_face(G: FiniteGroup, t: tuple, i: int) -> tuple:
    """Face d_i of a k-tuple in the bar model: drop the first (i = 0) or
    last (i = k) entry, otherwise multiply entries i and i+1 (1-based)."""
    k = len(t)
    if i == 0:
        return t[1:]
    if i == k:
        return t[:-1]
    return t[: i - 1] + (G.table[t[i - 1]][t[i]],) + t[i + 1 :]


def bar_degeneracy(t: tuple, i: int) -> tuple:
    """Degeneracy s_i of a tuple in the bar model: insert the identity
    before entry i."""
    return t[:i] + (0,) + t[i:]


def build_c(G: FiniteGroup, N: int, budget: int = DEFAULT_BUDGET) -> SimplicialTruncation:
    """Truncation of the commuting-tuple nerve: level k lists the pairwise
    commuting k-tuples, faces multiply adjacent entries (dropping at the
    ends), degeneracies insert the identity."""
    levels = _truncation_levels(G, N, budget)
    label = f"commuting-nerve({G.label or G.order}, N={N})"
    return SimplicialTruncation(levels, lambda t, i: bar_face(G, t, i), bar_degeneracy, label=label)


def successive_quotients(G: FiniteGroup, e) -> tuple:
    """(g0,...,gk) -> (g0^-1 g1, ..., g_{k-1}^-1 gk)."""
    return tuple(G.mul(G.inv(e[i]), e[i + 1]) for i in range(len(e) - 1))


def is_successively_commuting(G: FiniteGroup, e) -> bool:
    """True when the successive quotients of e commute pairwise, i.e. when
    they generate an abelian subgroup."""
    q = successive_quotients(G, e)
    return all(G.commute(a, b) for i, a in enumerate(q) for b in q[i + 1 :])


def build_e(G: FiniteGroup, N: int, budget: int = DEFAULT_BUDGET) -> SimplicialTruncation:
    """Truncation of the homogeneous model: level k lists the (k+1)-tuples
    whose successive quotients commute pairwise, faces drop an entry,
    degeneracies repeat one."""
    budget = meter(budget)
    walk = _truncation_levels(G, N, budget)
    # each commuting k-tuple stands for |G| translates of k+1 entries each
    budget.charge(G.order * sum(e * len(lv) for e, lv in enumerate(walk, 1)), "G-translates")
    levels = [
        sorted(tuple(accumulate(t, G.mul, initial=g0)) for t in level for g0 in range(G.order))
        for level in walk
    ]
    label = f"homogeneous-model({G.label or G.order}, N={N})"
    return SimplicialTruncation(levels, drop_entry, lambda e, i: e[: i + 1] + e[i:], label=label)


def level_sizes(n: list, budget=DEFAULT_BUDGET) -> list:
    """The level counts of either model from its nondegenerate counts
    n = N_0..N_N.  A k-simplex whose non-identity steps sit at j chosen
    places is a nondegenerate j-simplex, so level k has sum_j C(k, j) N_j
    simplices, C(k, j) by Pascal's rule; the (N+1)(N+2)/2 terms are charged."""
    meter(budget).charge(len(n) * (len(n) + 1) // 2, "level-size terms")
    rows = accumulate(n, lambda row, _: [1, *map(add, row, row[1:]), 1], initial=[1])
    return [sum(map(mul, row, n)) for row, _ in zip(rows, n)]


class MorseComplex(NamedTuple):
    """The Morse complex of a matching on a normalized model: the
    nondegenerate counts N_0..N_N of the model it stands for, and the Morse
    d_1..d_N."""

    nondegenerate_sizes: list
    boundaries: list


# ---------------------------------------------------------------------------
# Brown's collapsing scheme on the commuting-tuple model


def _normal_forms(G: FiniteGroup) -> list:
    """The normal word nf(x) = r(x)·z(x) of every element x as a tuple of
    letters (element indices); nf(1) is empty.

    r(x) is the least element of the coset x·Z(G), left out when x is
    central.  z(x) = r(x)^-1 x is g1^e1 ⋯ gm^em over a polycyclic sequence
    of the centre, with 0 <= e_i below the relative order of g_i in
    Z_i = <g_i, ..., g_m>.  The sequence is built from the bottom: g_m is
    the least central element other than 1, and each g_i above it the least
    central element outside Z_{i+1}."""
    table = G.table
    centre = center(G).elements
    words = {0: ()}  # the normal words of the subgroup built so far
    for z in centre:
        if z in words:
            continue
        # the cosets z^e Z_{i+1}, e below the relative order of z, make up Z_i
        layer = dict(words)
        p, power = z, (z,)
        while p not in words:
            for h, w in words.items():
                layer[table[p][h]] = power + w
            p, power = table[p][z], power + (z,)
        words = layer
    nf = []
    for x in range(G.order):
        r = min(table[x][z] for z in centre)
        nf.append(words[x] if r == 0 else (r,) + words[table[G.inv(r)][x]])
    return nf


class _BarMatching:
    """Brown's collapsing scheme on the nondegenerate commuting tuples of G
    (K. Brown, "The geometry of rewriting systems", 1992), read off the
    normal forms of _normal_forms.

    partner(t) scans t = (x_1, ..., x_k) from the left.  At position 1, a
    normal word of two or more letters splits off its first letter (t is
    matched up).  At position i >= 2, with w = nf(x_{i-1}), take the
    shortest prefix u of nf(x_i) for which w·u is not a normal word: with
    none, x_{i-1}·x_i merge (matched down); with u a proper prefix, x_i
    splits into u·v (matched up); with u = nf(x_i) the scan goes on.  A
    tuple the scan passes is critical.  Every prefix of a normal form
    commutes with whatever the element commutes with, so a partner is again
    a nondegenerate commuting tuple, and acyclicity restricts from the bar
    complex of G.  steps[a][b], b ≠ 1 commuting with a, is the step of b
    after a (a = 1 at position 1): None, (a·b,) or (u, v).
    """

    __slots__ = ("steps",)

    def __init__(self, G: FiniteGroup):
        table, inv, nf = G.table, G.inv, _normal_forms(G)

        def step(a, b):
            w, word = nf[a], nf[b]
            u = 0
            for n, letter in enumerate(word, 1):
                u = table[u][letter]
                if nf[table[a][u]] != w + word[:n]:
                    return None if n == len(word) else (u, table[inv(u)][b])
            return (table[a][b],)

        first = {x: (w[0], table[inv(w[0])][x]) if w[1:] else None for x, w in enumerate(nf) if x}
        rows = [{b: step(a, b) for b in G.commuting_set(a) if b} for a in range(1, G.order)]
        self.steps = [first] + rows

    def partner(self, t: tuple):
        """The cell matched with the nondegenerate tuple t of length >= 1,
        one level up or one level down, or None when t is critical."""
        a = 0
        for i, b in enumerate(t):
            s = self.steps[a][b]
            if s is not None:
                # a merge replaces entries i-1 and i, a split entry i
                return t[: i - 1] + s + t[i + 1 :] if len(s) == 1 else t[:i] + s + t[i + 1 :]
            a = b
        return None


def _scan_levels(G: FiniteGroup, steps: list, counts: dict, N: int, budget):
    """Scan the nondegenerate commuting tuples level by level and yield, for
    k = 1..N, the critical k-tuples in lexicographic order with the numbers
    of k-tuples matched up and down, the matched ones counted without
    listing them; budget is charged each critical tuple before it is listed.

    The scan runs over the configurations (p, a, S): a, the last entry of a
    critical prefix (the identity at the start), p the entry before it, S
    the set commuting with its entries.  Every prefix reaching a configuration is
    critical, so each configuration keeps the list of its prefixes.  An
    entry b ≠ 1 in S at which the scan goes on extends them.  An entry b at
    which it stops ends them in a tuple matched up or down, followed by any
    f(j, T) tuples (counts, groups.continuation_counts) of T = S ∩ C(b),
    which are tallied at levels k..N.  A partner differs from its tuple only
    from a on, so a check per configuration covers every tuple: a split
    (u, v) of b needs u to go on after a and v to merge back into b after
    u, a merge (a·b,) needs a·b to split back into (a, b) after p.
    """
    up, down = [0] * (N + 1), [0] * (N + 1)
    reached = {(0, 0, frozenset(range(G.order))): [()]}
    for k in range(1, N + 1):
        nxt = {}
        for (p, a, S), cells in reached.items():
            for b in sorted(S)[1:]:  # every S holds the identity, index 0
                s, T = steps[a][b], S & G.commuting_set(b)
                if s is None:
                    budget.charge(len(cells), f"critical cells of level {k}")
                    nxt.setdefault((a, b, T), []).extend(c + (b,) for c in cells)
                    continue
                u = s[0]
                if len(s) == 2:
                    back, tally = steps[a].get(u, ()) is None and steps[u].get(s[1]) == (b,), up
                else:
                    back, tally = steps[p].get(u) == (a, b), down
                if not back:
                    raise MathInvariantError(
                        f"bar matching at level {k}: entry {b} "
                        f"{f'after {a}' if a else 'at the start'} steps to {s}, "
                        f"which the partner's scan does not undo"
                    )
                for j in range(k, N + 1):
                    tally[j] += len(cells) * counts[T][j - k]
        reached = nxt
        yield sorted(c for cells in reached.values() for c in cells), up[k], down[k]


def _bar_chain(G: FiniteGroup, t: tuple) -> dict:
    """The normalized boundary Σ(-1)^i d_i t of a nondegenerate commuting
    tuple t as {face: coefficient}, without degenerate faces or zero
    coefficients, read off G.table: only a merged entry can be the identity."""
    table, end = G.table, t[:-1]
    chain, sign = {t[1:]: 1}, -1
    for i in range(1, len(t)):
        x = table[t[i - 1]][t[i]]
        if x:
            face = t[: i - 1] + (x,) + t[i + 1 :]
            chain[face] = chain.get(face, 0) + sign
        sign = -sign
    chain[end] = chain.get(end, 0) + sign
    return {face: c for face, c in chain.items() if c}


def _gradient_flow(
    G: FiniteGroup, matching: _BarMatching, chain: dict, critical: dict, memo: dict, budget
) -> dict:
    """The gradient flow of a chain {tuple: coefficient} of one level onto
    its critical tuples c as {critical[c]: coefficient}; memo keeps the flow
    of each matched tuple met, each charged to the Budget.

    A critical tuple maps straight to its row, off the stack, and a
    matched-down tuple flows to 0.  A tuple x matched up with X, of
    incidence e = ±1 in dX, flows as -e times the flow of dX - e·x
    (Sköldberg, Trans. AMS 2006), on an explicit stack, so no gradient path
    meets the recursion limit.  A partner not matched back, another
    incidence, or a cycle (a path meeting a tuple open on it) raises
    MathInvariantError.
    """

    def flow_of(terms, sign=1):
        flow = {}
        for z, c in terms.items():
            r = critical.get(z)
            if r is not None:
                flow[r] = flow.get(r, 0) + sign * c
                continue
            for r, v in memo[z].items():
                flow[r] = flow.get(r, 0) + sign * c * v
        return {r: v for r, v in flow.items() if v}

    stack = [x for x in chain if x not in critical]
    path = {}  # the open tuples: -e and the rest of their partner's boundary
    while stack:
        x = stack[-1]
        if x in memo:
            stack.pop()
        elif x in path:  # every face of its partner has its flow now
            sign, rest = path.pop(x)
            memo[x] = flow_of(rest, sign)
            stack.pop()
        else:
            budget.charge(1, "gradient flow")
            other = matching.partner(x)
            if other is None:
                raise MathInvariantError(
                    f"bar matching: {x} is a face of a flow but neither critical nor matched"
                )
            back = matching.partner(other)
            if back != x:  # named by the longer cell of the pair and its partner
                t, s = (x, other) if len(other) < len(x) else (other, back)
                raise MathInvariantError(
                    f"bar matching at level {len(t)}: {t} is matched down to {s}, "
                    f"which is matched to {s and matching.partner(s)}"
                )
            if len(other) < len(x):
                memo[x] = {}
                stack.pop()
                continue
            rest = _bar_chain(G, other)
            e = rest.pop(x, 0)
            if e not in (1, -1):
                raise MathInvariantError(
                    f"bar matching at level {len(other)}: {x} has incidence {e} "
                    f"in the boundary of its partner {other}"
                )
            path[x] = (-e, rest)
            for z in rest:
                if z in path:
                    raise MathInvariantError(f"bar matching: a gradient path meets {z} twice")
                if z not in critical and z not in memo:
                    stack.append(z)
    return flow_of(chain)


def morse_complex(G: FiniteGroup, N: int, budget: int = DEFAULT_BUDGET) -> MorseComplex:
    """The Morse complex of Brown's collapsing scheme (_BarMatching) on the
    normalized build_c(G, N), without building the model: same homology
    and refusals.

    One scan (_scan_levels) lists the critical tuples of each level and
    counts the matched ones, with their partners checked once per scan
    configuration.  Each level is checked and built as soon as it is
    scanned: the critical, matched-up and matched-down tuples must add up
    to the nondegenerate count, and the matched-down ones to the matched-up
    ones a level below.  The flow checks the partner and the incidence ±1
    of every pair it uses; a pair it never uses is never built, and its
    incidence is (-1)^i all the same, as the merge face d_i, 0 < i < k, of a
    nondegenerate tuple equals no other face.  A failure raises
    MathInvariantError.  The Morse d_k takes each critical tuple to the
    gradient flow of its chain; the scan charges each critical tuple first.
    """
    budget = meter(budget)
    counts = continuation_counts(G, N, budget)
    counted, matching = counts[frozenset(range(G.order))], _BarMatching(G)
    # the critical tuples of the level below, numbered, and their matched-up count
    boundaries, below, up_below = [], {(): 0}, 0
    for k, (cells, up, down) in enumerate(_scan_levels(G, matching.steps, counts, N, budget), 1):
        if len(cells) + up + down != counted[k] or down != up_below:
            raise MathInvariantError(
                f"bar matching at level {k}: {len(cells)} critical + {up} matched up + "
                f"{down} matched down of {counted[k]} nondegenerate cells, against "
                f"{up_below} matched up at level {k - 1}"
            )
        memo = {}
        columns = [_gradient_flow(G, matching, _bar_chain(G, c), below, memo, budget) for c in cells]
        boundaries.append(IntMatrix.from_column_dicts(columns, len(below)))
        below, up_below = {c: r for r, c in enumerate(cells)}, up
    return MorseComplex(counted, boundaries)


def p_map(G: FiniteGroup, e) -> tuple:
    """Project a simplex of the homogeneous model to its commuting tuple of
    successive quotients."""
    if not is_successively_commuting(G, e):
        raise ValidationError("successive quotients do not commute pairwise")
    return successive_quotients(G, e)


def commutator_map(G: FiniteGroup, e) -> tuple:
    """(g0,...,gk) -> ([g0,g1],...,[g_{k-1},gk]), the successive commutators.

    Defined on the homogeneous model; lands in the nerve of the commutator
    subgroup (no commutation condition on the output)."""
    if not is_successively_commuting(G, e):
        raise ValidationError("successive quotients do not commute pairwise")
    return tuple(G.commutator(e[i], e[i + 1]) for i in range(len(e) - 1))
