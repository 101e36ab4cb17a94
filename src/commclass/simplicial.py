"""Truncated simplicial sets built from commuting tuples in a finite group,
their normalized chain complexes, and integral homology.

A truncation stores its simplices and the face and degeneracy maps it is
given, and applies the maps on demand.  face_boundary is the one
alternating-face boundary loop, shared by the truncations, the cone Morse
complex and the coset poset.

Two models are provided.  build_c stacks the pairwise-commuting k-tuples
with the bar maps bar_face (multiply adjacent entries, drop at the ends)
and bar_degeneracy (insert the identity); its
realization is the commutativity classifying space of the group.  build_e
stacks the (k+1)-tuples whose successive quotients commute pairwise, with
homogeneous faces (drop an entry); it models the total space whose homology
vanishes exactly for abelian groups.  cone_morse_complex builds only the
critical cells of a Morse matching on the second model, with the same
homology.  The projection p_map sends the second model to the first, and
commutator_map records successive commutators.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DEFAULT_BUDGET,
    MathInvariantError,
    TruncationError,
    ValidationError,
    check_budget,
    check_power_budget,
)
from .groups import FiniteGroup, commuting_tuples
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_at, homology_range


class SimplicialTruncation:
    """A simplicial set stored up to a degree bound.

    levels[k] lists the k-simplices (arbitrary hashable objects, here
    tuples of group-element indices) and index[k] numbers them.  The face
    and degeneracy maps, face(x, i) -> d_i x and degeneracy(x, i) -> s_i x
    on simplices, are kept as given and applied on demand, faces at
    degrees 1..max_degree and degeneracies at 0..max_degree-1; another
    degree raises TruncationError, and a face or degeneracy that leaves the
    stored levels raises MathInvariantError.
    """

    __slots__ = (
        "max_degree",
        "levels",
        "index",
        "degenerate",
        "label",
        "_faces",
        "_degeneracies",
        "_nondegen",
    )

    def __init__(self, levels, face, degeneracy, label=None):
        levels = [list(level) for level in levels]
        if not levels:
            raise ValidationError("need at least level 0")
        self.max_degree = len(levels) - 1
        self.levels = levels
        self.label = label
        self.index = []
        for k, level in enumerate(levels):
            idx = {sx: i for i, sx in enumerate(level)}
            if len(idx) != len(level):
                raise ValidationError(f"duplicate simplices at level {k}")
            self.index.append(idx)
        # the maps on indices, without the degree check; no faces out of degree 0
        N = self.max_degree
        self._faces = [None] + [self._indexed(k, k - 1, face, "face d") for k in range(1, N + 1)]
        self._degeneracies = [self._indexed(k, k + 1, degeneracy, "degeneracy s") for k in range(N)]

        self.degenerate = [[False] * len(level) for level in levels]
        for k, degeneracy_k in enumerate(self._degeneracies):
            flags = self.degenerate[k + 1]
            for idx in range(len(levels[k])):
                for i in range(k + 1):
                    flags[degeneracy_k(idx, i)] = True
        self._nondegen = [
            [i for i, d in enumerate(flags) if not d] for flags in self.degenerate
        ]

    def level_size(self, k):
        return len(self.levels[k])

    def nondegenerate(self, k):
        """Indices of the nondegenerate k-simplices."""
        return self._nondegen[k]

    def _check_degree(self, k, low, high, what):
        if not low <= k <= high:
            raise TruncationError(f"no {what} at degree {k} in a depth-{self.max_degree} truncation")

    def face(self, k, idx, i):
        """The index of d_i of the k-simplex idx at level k-1."""
        self._check_degree(k, 1, self.max_degree, "face")
        return self._faces[k](idx, i)

    def degeneracy(self, k, idx, i):
        """The index of s_i of the k-simplex idx at level k+1."""
        self._check_degree(k, 0, self.max_degree - 1, "degeneracy")
        return self._degeneracies[k](idx, i)

    def _indexed(self, k, target, fn, name):
        """fn on the k-simplices as a map (idx, i) -> index at level target."""
        level, index = self.levels[k], self.index[target]

        def apply(idx, i):
            j = index.get(fn(level[idx], i))
            if j is None:
                raise MathInvariantError(
                    f"{name}_{i} leaves the stored levels at degree {k}: {level[idx]!r}"
                )
            return j

        return apply

    def verify_identities(self):
        """Exhaustively check the simplicial identities on all stored levels.

        Raises MathInvariantError at the first failure; returns the number
        of identities checked.
        """
        checked = 0
        N = self.max_degree
        for k in range(2, N + 1):
            for idx in range(len(self.levels[k])):
                for j in range(1, k + 1):
                    dj = self.face(k, idx, j)
                    for i in range(j):
                        if self.face(k - 1, dj, i) != self.face(
                            k - 1, self.face(k, idx, i), j - 1
                        ):
                            raise MathInvariantError(
                                f"d_{i} d_{j} != d_{j - 1} d_{i} at level {k}, simplex {idx}"
                            )
                        checked += 1
        for k in range(N - 1):
            for idx in range(len(self.levels[k])):
                for j in range(k + 1):
                    sj = self.degeneracy(k, idx, j)
                    for i in range(j + 1):
                        if self.degeneracy(k + 1, sj, i) != self.degeneracy(
                            k + 1, self.degeneracy(k, idx, i), j + 1
                        ):
                            raise MathInvariantError(
                                f"s_{i} s_{j} != s_{j + 1} s_{i} at level {k}, simplex {idx}"
                            )
                        checked += 1
        for k in range(N):
            for idx in range(len(self.levels[k])):
                for j in range(k + 1):
                    sj = self.degeneracy(k, idx, j)
                    for i in range(k + 2):
                        got = self.face(k + 1, sj, i)
                        if i == j or i == j + 1:
                            want = idx
                        elif i < j:
                            want = self.degeneracy(k - 1, self.face(k, idx, i), j - 1)
                        else:
                            want = self.degeneracy(k - 1, self.face(k, idx, i - 1), j)
                        if got != want:
                            raise MathInvariantError(
                                f"d_{i} s_{j} identity fails at level {k}, simplex {idx}"
                            )
                        checked += 1
        return checked

    def boundary_matrix(self, k, normalized=True):
        """The degree-k boundary Σ(-1)^i d_i as an IntMatrix.

        Columns index k-simplices, rows index (k-1)-simplices.  With
        normalized=True both sides use only nondegenerate simplices and
        degenerate faces are dropped (the normalized chain complex): face()
        refuses every face outside the stored levels, so a face outside the
        rows is degenerate.
        """
        self._check_degree(k, 1, self.max_degree, "boundary")
        if normalized:
            columns, rows = self._nondegen[k], self._nondegen[k - 1]
        else:
            columns, rows = range(len(self.levels[k])), range(len(self.levels[k - 1]))
        row_of = {idx: r for r, idx in enumerate(rows)}
        return face_boundary(columns, k, self._faces[k], row_of)

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


def _boundaries(S: SimplicialTruncation, top: int, normalized, bottom: int = 1) -> list:
    """The boundaries d_bottom..d_{top+1}; H_0..H_top need d_1..d_{top+1}."""
    if top + 1 > S.max_degree:
        raise TruncationError(
            f"H_{top} needs levels through {top + 1}; truncation stops at {S.max_degree}"
        )
    return [S.boundary_matrix(k, normalized=normalized) for k in range(bottom, top + 2)]


def homology(S: SimplicialTruncation, k: int, reduced=False, normalized=True) -> AbelianGroupInvariants:
    """Integral homology H_k (or reduced homology) of the chain complex of S.

    Needs the boundary out of degree k+1, so the truncation must extend at
    least one level beyond k.  Only d_k and d_{k+1} are built.
    """
    if k < 0:
        raise ValidationError("homology degree must be nonnegative")
    if k == 0:
        return homology_range(_boundaries(S, 0, normalized), reduced=reduced)[0]
    return homology_at(*_boundaries(S, k, normalized, bottom=k))


def reduced_homology_range(S: SimplicialTruncation, top: int, normalized=True) -> list:
    """Reduced homology in degrees 0..top as a list."""
    return homology_range(_boundaries(S, top, normalized), reduced=True)


# ---------------------------------------------------------------------------
# the two models


def _check_depth(N: int, budget: int) -> None:
    """A depth-N truncation applies k+1 maps to each k-simplex, each
    copying a tuple of about k entries, so even with one simplex per level
    (the trivial group) its construction and boundaries copy on the order of
    sum_{k=1..N} k(k+1) = N(N+1)(N+2)/3 tuple entries; the depth itself
    counts against the budget."""
    check_budget(N * (N + 1) * (N + 2) // 3, budget, f"faces and degeneracies of depth {N}")


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
    if N < 0:
        raise ValidationError("degree bound must be nonnegative")
    # refuse before enumerating the lower levels
    check_power_budget(G.order, N, budget, f"commuting tuples of length {N}")
    _check_depth(N, budget)
    levels = [commuting_tuples(G, k, budget=budget) for k in range(N + 1)]
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
    if N < 0:
        raise ValidationError("degree bound must be nonnegative")
    check_power_budget(G.order, N + 1, budget, f"tuples of length {N + 1}")
    _check_depth(N, budget)
    levels = []
    for k in range(N + 1):
        level = []
        for t in commuting_tuples(G, k, budget=budget):
            for g0 in range(G.order):
                e = [g0]
                for x in t:
                    e.append(G.mul(e[-1], x))
                level.append(tuple(e))
        level.sort()
        levels.append(level)

    label = f"homogeneous-model({G.label or G.order}, N={N})"
    return SimplicialTruncation(levels, drop_entry, lambda e, i: e[: i + 1] + e[i:], label=label)


class ConeMorseComplex(NamedTuple):
    """The cone-matching Morse complex of the normalized homogeneous model,
    with the level counts of the model it stands for (degrees 0..N)."""

    level_sizes: list
    nondegenerate_sizes: list
    boundaries: list  # Morse d_1..d_N


def cone_morse_complex(G: FiniteGroup, N: int, budget: int = DEFAULT_BUDGET) -> ConeMorseComplex:
    """The Morse complex of the cone matching on build_e(G, N), built from
    the commuting tuples without building the model; it has the same
    homology.

    A k-simplex of the model is (g0, g0 p1, ..., g0 pk) for a commuting
    k-tuple x with partial products p_i = x1...xi; it is nondegenerate when
    no x_i is 1.  A nondegenerate simplex with g0 != 1 is matched with
    (1, g0, g0 p1, ..., g0 pk) when that simplex exists, that is when g0
    lies in Z = the intersection of the centralizers of the p_i.  The
    critical cells are the vertex (1) and, for k >= 1, the simplices with
    g0 != 1 outside Z.  Every face of (1, f) other than f starts with 1, so
    every gradient path has length one (Skoldberg, Trans. AMS 2006): the
    Morse d_1 is the zero 1 x c_1 matrix, since every vertex flows to (1),
    and for k >= 2 the Morse d_k is d_k on the critical rows and columns.

    The cells starting with 1 are matched down, one to each matched-up cell
    of the level below, so at every level critical + matched-up +
    matched-down cells number the nondegenerate ones; MathInvariantError
    when they do not.
    """
    if N < 0:
        raise ValidationError("degree bound must be nonnegative")
    # the same refusals, in the same order, as build_e(G, N)
    check_power_budget(G.order, N + 1, budget, f"tuples of length {N + 1}")
    _check_depth(N, budget)
    order = G.order
    table = G.table
    everything = frozenset(range(order))
    level_sizes, nondegenerate_sizes, boundaries = [order], [order], []
    below = [(0,)]  # the critical cells of the level below
    matched_up = order - 1  # every vertex g0 != 1 is matched with the edge (1, g0)
    for k in range(1, N + 1):
        tuples = commuting_tuples(G, k, budget=budget)
        nondegenerate = up = 0
        cells = []
        for x in tuples:
            if 0 in x:
                continue
            nondegenerate += 1
            partials = [x[0]]
            for a in x[1:]:
                partials.append(table[partials[-1]][a])
            fixed = everything.intersection(*(G.commuting_set(p) for p in partials))
            up += len(fixed) - 1
            for g0 in range(1, order):
                if g0 not in fixed:
                    row = table[g0]
                    cells.append((g0, *(row[p] for p in partials)))
        if len(cells) + up + matched_up != order * nondegenerate:
            raise MathInvariantError(
                f"cone matching at level {k}: {len(cells)} critical + {up} matched up + "
                f"{matched_up} matched down != {order * nondegenerate} nondegenerate cells"
            )
        level_sizes.append(order * len(tuples))
        nondegenerate_sizes.append(order * nondegenerate)
        matched_up = up
        cells.sort()  # the rows and columns of d_k in the order of build_e
        if k == 1:
            boundaries.append(IntMatrix.zero(1, len(cells)))
        else:
            row_of = {cell: r for r, cell in enumerate(below)}
            boundaries.append(face_boundary(cells, k, drop_entry, row_of))
        below = cells
    return ConeMorseComplex(level_sizes, nondegenerate_sizes, boundaries)


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
