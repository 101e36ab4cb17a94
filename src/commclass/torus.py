"""Extensions of a finite group by a torus, modelled exactly.

An extension is split data: a rank k, a finite group F, and an action
rho: F -> GL_k(Z), given as in the --ext format by the images of
generators of F and extended and checked once by the constructor.
Elements are pairs (t, f) with t a rational point of (Q/Z)^k, multiplying
by (t, f) * (t', f') = (t + rho(f) t', f f').
Non-split groups are supported as quotients of a split extension by a
finite central subgroup Z given by generators; elements then live in
canonical coset representatives (lexicographically least (t, f) in the
Z-orbit, torus part compared first).

Element arithmetic is on integers: a torus part is stored as numerators
n over one denominator d, in lowest terms with every n_i in [0, d), and
the central subgroup is checked and closed as numerators over one
denominator.  Fractions appear only at the input boundary, which reads
ints, Fractions and "p/q" strings and refuses floats and bools, and in the
read-only views ExtElement.t, z_generators and z_elements.  A commutator
of lifts is one affine map of their torus parts per pair of finite parts
(TorusExtension._pair), canonicalised once: the quotient map from the
split group is a homomorphism, and the canonical representative depends
only on the coset.  The single-commutator search runs the same maps on raw
numerators over one denominator against the raw keys of the targets'
cosets, so it builds no element per pair, and stops at the last witness.

On fundamental groups, commutation against a lift of q induces the integer
matrix I - rho(q^-1) (psi_star, the B of the pair (q, identity)); summing
its images over all q and saturating yields the lattice of the subtorus
generated by commutators.

The 13 pinned catalog extensions are spec documents in the --ext format
(CATALOG_SPECS), built by fileio.extension_from_spec like any spec file.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul as _times, sub

from .errors import DEFAULT_BUDGET, ValidationError, meter
from .groups import FiniteGroup
from .intlinalg import (
    IntMatrix,
    Lattice,
    complement,
    lattice_sum,
    saturate,
)


def rational(x) -> Fraction:
    """x as an exact Fraction.  Ints, Fractions and "p/q" strings are read,
    as the spec files are; floats and bools are refused, so no binary
    approximation reaches the math path."""
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValidationError(f"expected a rational, got {type(x).__name__}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{x!r} is not a p/q rational") from None


def _integer(x, what, low, high=None) -> int:
    """x if it is an int in [low, high); bools and other types are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    if x < low or high is not None and x >= high:
        raise ValidationError(f"{what} out of range" if high else f"{what} must be >= {low}")
    return x


def _reduced(n, d, f):
    """(n, d, f) with the common factor of d and the numerators divided out."""
    g = gcd(d, *n)
    if g == 1:
        return n, d, f
    return tuple(x // g for x in n), d // g, f


class ExtElement:
    """An element of a TorusExtension: canonical representative (t, f),
    with t stored as numerators n over the denominator d."""

    __slots__ = ("parent", "n", "d", "f")

    def __init__(self, parent, n, d, f):
        self.parent = parent
        self.n = n
        self.d = d
        self.f = f

    @property
    def t(self):
        """The torus part as a tuple of Fractions in [0, 1)."""
        return tuple(Fraction(x, self.d) for x in self.n)

    def is_identity(self):
        # lowest terms: d == 1 forces every numerator to 0
        return self.f == 0 and self.d == 1

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        if self.parent is not other.parent:
            return False
        return self.f == other.f and self.d == other.d and self.n == other.n

    def __hash__(self):
        return hash((id(self.parent), self.n, self.d, self.f))

    def __repr__(self):
        ts = ",".join(str(x) for x in self.t)
        fname = self.parent.F.names[self.f]
        return f"(({ts}), {fname})"


class TorusExtension:
    """Split-or-central-quotient model of a torus-by-finite-group extension."""

    __slots__ = (
        "rank",
        "F",
        "rho",
        "z_generators",
        "z_elements",
        "label",
        "_rows",
        "_translates",
        "_zd",
        "_lifts",
        "_pairs",
    )

    def __init__(
        self,
        rank: int,
        F: FiniteGroup,
        action: dict,
        central_quotient=(),
        label=None,
        budget: int = DEFAULT_BUDGET,
    ):
        """action maps element indices of F to rank x rank IntMatrix images;
        the indexed elements must generate F.  The images are extended by
        products, and checking rho(x g) = rho(x) rho(g) for every element x
        and every generator g proves rho a homomorphism; rho(f) rho(f^-1) =
        rho(1) = I then makes every image invertible over Z.  The |F|·rank^2
        entries of the images are charged before the action is extended,
        and each element of the central quotient as its closure finds it."""
        if rank < 0:
            raise ValidationError("rank must be nonnegative")
        budget = meter(budget)
        self.rank, self.F, self.label = rank, F, label
        self.charge_images(budget)
        ident = IntMatrix.identity(rank)
        rho = {0: ident}
        for g, M in action.items():
            g = self._finite_part(g)
            if not isinstance(M, IntMatrix) or M.rows != rank or M.cols != rank:
                raise ValidationError("action matrices must be rank x rank IntMatrix")
            if g == 0 and M != ident:
                raise ValidationError("action at the identity must be the identity matrix")
            rho[g] = M
        gens = [g for g in rho if g != 0]
        frontier = list(rho)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = F.mul(x, g)
                    M = rho[x] @ rho[g]
                    if y not in rho:
                        rho[y] = M
                        nxt.append(y)
                    elif rho[y] != M:
                        raise ValidationError(f"generator images are inconsistent at {F.names[y]}")
            frontier = nxt
        if len(rho) != F.order:
            raise ValidationError("generator images do not generate the finite part")
        self.rho = tuple(rho[f] for f in range(F.order))
        self._rows = tuple(tuple(tuple(r) for r in M.to_rows()) for M in self.rho)

        # central generators are checked and closed as numerators over zd
        self.z_generators = tuple(
            (tuple(rational(x) % 1 for x in t), self._finite_part(f)) for t, f in central_quotient
        )
        self._zd = zd = lcm(*(x.denominator for t, _ in self.z_generators for x in t))
        zgens = []
        for t, f in self.z_generators:
            if len(t) != rank:
                raise ValidationError("central generator torus part has wrong length")
            if any(F.mul(f, g) != F.mul(g, f) for g in range(F.order)):
                raise ValidationError(
                    f"central generator finite part {F.names[f]} is not central in F"
                )
            if self.rho[f] != ident:
                raise ValidationError(
                    f"central generator finite part {F.names[f]} must act trivially"
                )
            n = tuple(x.numerator * (zd // x.denominator) for x in t)
            if any(tuple(x % zd for x in M.times_vector(n)) != n for M in self.rho):
                raise ValidationError("central generator torus part is not fixed by the action")
            zgens.append((n, f))
        zero = ((0,) * rank, 0)
        elements = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for n, f in frontier:
                for ng, fg in zgens:
                    # generators act trivially, so the raw product is n + ng
                    z = (tuple((a + b) % zd for a, b in zip(n, ng)), F.mul(f, fg))
                    if z not in elements:
                        elements.add(z)
                        budget.charge(1, "central quotient elements")
                        nxt.append(z)
            frontier = nxt
        elements = sorted(elements)
        self.z_elements = tuple((tuple(Fraction(x, zd) for x in n), f) for n, f in elements)
        # per finite part f, the z-orbit translates (rho(f) tz, f fz) with
        # numerators over zd; empty when split
        self._translates = ()
        if not self.is_split:
            self._translates = tuple(
                tuple((M.times_vector(n), F.mul(f, fz)) for n, fz in elements)
                for f, M in enumerate(self.rho)
            )
        zero = (0,) * rank
        self._lifts = tuple(ExtElement(self, *self._canonical(zero, 1, f)) for f in range(F.order))
        self._pairs = {}

    @property
    def is_split(self):
        return len(self.z_elements) == 1

    def charge_images(self, budget) -> None:
        """Charge budget the |F|·rank^2 entries of the action's images."""
        order, rank = self.F.order, self.rank
        meter(budget).charge(order * rank * rank, f"action of {order} elements on rank {rank}")

    def _canonical(self, n, d, f):
        """Canonical representative of (n/d, f), reduced to lowest terms."""
        if not self._translates:
            return _reduced(n, d, f)
        D, coset = self._coset(n, d, f)
        m, g = min(coset)
        return _reduced(m, D, g)

    def _coset(self, n, d, f):
        """(D, keys): the Z-coset of (n/d, f) as raw keys (numerators over D
        = lcm(d, zd), finite part), for a central quotient."""
        D = lcm(d, self._zd)
        a, b = D // d, D // self._zd
        n = [x * a for x in n]
        return D, [
            (tuple((x + b * y) % D for x, y in zip(n, tn)), fz) for tn, fz in self._translates[f]
        ]

    def _from_numerators(self, n, d, f) -> ExtElement:
        """The element (n/d, f) for integer numerators n over d >= 1 and an
        index f already checked: reduced mod d, canonicalised once."""
        return ExtElement(self, *self._canonical(tuple(x % d for x in n), d, f))

    def element(self, t, f=0) -> ExtElement:
        t = [rational(x) for x in t]
        if len(t) != self.rank:
            raise ValidationError(f"torus part must have length {self.rank}")
        f = self._finite_part(f)
        d = lcm(*(x.denominator for x in t))
        return self._from_numerators([x.numerator * (d // x.denominator) for x in t], d, f)

    def _finite_part(self, f) -> int:
        return _integer(f, "finite part", 0, self.F.order)

    def identity(self) -> ExtElement:
        return self.lift_element(0)

    def torus_element(self, t) -> ExtElement:
        return self.element(t, 0)

    def lift_element(self, f) -> ExtElement:
        """The canonical lift (0, f) of a finite-part element."""
        return self._lifts[self._finite_part(f)]

    def _check_parent(self, x: ExtElement):
        if x.parent is not self:
            raise ValidationError("element belongs to a different extension")

    def mul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        self._check_parent(x)
        self._check_parent(y)
        D = lcm(x.d, y.d)
        a, b = D // x.d, D // y.d
        yn = y.n
        n = tuple(
            (xi * a + b * sum(map(_times, row, yn))) % D
            for xi, row in zip(x.n, self._rows[x.f])
        )
        return ExtElement(self, *self._canonical(n, D, self.F.mul(x.f, y.f)))

    def inv(self, x: ExtElement) -> ExtElement:
        self._check_parent(x)
        finv = self.F.inv(x.f)
        d, xn = x.d, x.n
        n = tuple(-sum(map(_times, row, xn)) % d for row in self._rows[finv])
        return ExtElement(self, *self._canonical(n, d, finv))

    def _pair(self, p, q):
        """(A, B, c) as row tuples with [(s, p), (t, q)] = (A s + B t, c), built
        once per pair: xy = (s + rho(p) t, pq) and yx = (t + rho(q) s, qp), so
        (yx)^-1 (xy) gives A = rho(r)(I - rho(q)), B = rho(r)(rho(p) - I) and
        c = r pq = [p, q], with r = (qp)^-1."""
        got = self._pairs.get((p, q))
        if got is None:
            F = self.F
            r = F.inv(F.mul(q, p))
            R, Rq, Rp = self._rows[r], self._rows[F.mul(r, q)], self._rows[F.mul(r, p)]
            A = tuple(tuple(map(sub, x, y)) for x, y in zip(R, Rq))
            B = tuple(tuple(map(sub, y, x)) for x, y in zip(R, Rp))
            got = self._pairs[p, q] = (A, B, F.commutator(p, q))
        return got

    def commutator(self, x: ExtElement, y: ExtElement) -> ExtElement:
        """[x, y] = x^-1 y^-1 x y: the map of the pair (x.f, y.f) applied to
        the lifts over D = lcm(x.d, y.d), canonicalised once."""
        self._check_parent(x)
        self._check_parent(y)
        A, B, c = self._pair(x.f, y.f)
        D = lcm(x.d, y.d)
        a, b = D // x.d, D // y.d
        xn, yn = x.n, y.n
        n = tuple(
            (a * sum(map(_times, ra, xn)) + b * sum(map(_times, rb, yn))) % D
            for ra, rb in zip(A, B)
        )
        return ExtElement(self, *self._canonical(n, D, c))

    def _pool(self, M, budget):
        """(L, rows): the elements whose torus lift has denominator dividing
        M as sorted rows (m, f), the least key of each coset over L = lcm(M,
        zd).  Every denominator divides L, so the rows sort as the Fractions
        do."""
        M = _integer(M, "denominator", 1)
        meter(budget).charge(M**self.rank * self.F.order, "element pool")
        rows = product(product(range(M), repeat=self.rank), range(self.F.order))
        if not self._translates:
            return M, list(rows)
        return lcm(M, self._zd), sorted({min(self._coset(n, M, f)[1]) for n, f in rows})

    def elements_of_denominator(self, M: int, budget: int = DEFAULT_BUDGET) -> list:
        """All group elements whose torus lift has coordinates with
        denominator dividing M, sorted canonically."""
        L, rows = self._pool(M, budget)
        return [ExtElement(self, *_reduced(m, L, f)) for m, f in rows]

    def __repr__(self):
        tag = self.label or f"rank {self.rank} over {self.F!r}"
        return f"TorusExtension({tag})"


def torus_pi1_lattice(E: TorusExtension):
    """Fundamental-group lattice of the identity component's torus.

    Returns (D, L) with L an integer lattice in Z^rank: the honest lattice
    is (1/D) L.  For split extensions (and whenever the central quotient
    meets the torus trivially) D = 1 and L = Z^rank; otherwise loops may
    close through central torus elements and pick up denominators."""
    if E.rank == 0:
        return 1, Lattice.full(0)
    torus_parts = [t for t, f in E.z_elements if f == 0]
    D = 1
    for t in torus_parts:
        for x in t:
            D = lcm(D, x.denominator)
    gens = [[D if i == j else 0 for j in range(E.rank)] for i in range(E.rank)]
    gens.extend([int(x * D) for x in t] for t in torus_parts)
    return D, Lattice.from_columns(E.rank, gens)


def psi_star(E: TorusExtension, q: int) -> IntMatrix:
    """The lattice map of commutation against the lift of q: the matrix L
    with [q-lift, torus point t] = torus point L t: the B of the pair (q,
    identity), I - rho(q^-1) under this module's product convention."""
    return IntMatrix.from_rows(E._pair(E._finite_part(q), 0)[1])


def commutator_lattices(E: TorusExtension):
    """(sum, subtorus): the sum of the images of psi_star over all finite
    parts, and its saturation - the fundamental-group lattice of the
    subtorus generated by commutators."""
    images = [
        Lattice.from_columns(E.rank, psi_star(E, q).to_columns()) for q in range(E.F.order)
    ]
    total = lattice_sum(images)
    return total, saturate(total)


def pi1_split(E: TorusExtension):
    """Primitive commutator-subtorus lattice and a primitive complement,
    together spanning the whole ambient lattice."""
    _, sub = commutator_lattices(E)
    return sub, complement(sub)


class CoverReport:
    """Outcome of a single-commutator coverage search.

    covered is True when every target was written as one commutator.  A
    False result only means no witness exists at this search denominator;
    it is not a refutation."""

    __slots__ = ("covered", "denominator", "search_denominator", "targets", "witnesses", "missing")

    def __init__(self, covered, denominator, search_denominator, targets, witnesses, missing):
        self.covered = covered
        self.denominator = denominator
        self.search_denominator = search_denominator
        self.targets = targets
        self.witnesses = witnesses
        self.missing = missing

    def __repr__(self):
        status = "covered" if self.covered else f"{len(self.missing)} missing"
        return (
            f"CoverReport({status}, {len(self.targets)} targets, "
            f"denominator {self.denominator}, search {self.search_denominator})"
        )


def single_commutator_cover(
    E: TorusExtension,
    N: int,
    search_denominator: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CoverReport:
    """Try to write every denominator-N point of the commutator subtorus as
    a single commutator [x, y].

    x and y range over all elements whose torus parts have denominator
    dividing the search denominator (default N * |F|).  Returns the witness
    table; missing targets are reported, never silently dropped."""
    N = _integer(N, "denominator", 1)
    M = N * E.F.order if search_denominator is None else search_denominator
    M, budget = _integer(M, "search denominator", 1), meter(budget)
    basis = commutator_lattices(E)[1].basis_rows()
    budget.charge(N ** len(basis), "cover targets")
    span = IntMatrix.from_columns(basis, E.rank)
    points = product(range(N), repeat=len(basis))
    targets = sorted(
        {E._from_numerators(span.times_vector(c), N, 0) for c in points}, key=lambda e: (e.t, e.f)
    )

    L, pool = E._pool(M, budget)
    # each target's coset as raw keys (numerators over L, f): a raw
    # commutator lies in it exactly when its canonical form is the target.
    # Pool elements live over L, so a target whose denominator does not
    # divide L is never hit.
    cosets = {}
    for t in targets:
        if L % t.d == 0:
            n = tuple(x * (L // t.d) for x in t.n)
            cosets[t] = E._coset(n, L, t.f)[1] if E._translates else [(n, t.f)]
    keys = {k: t for t, coset in cosets.items() for k in coset}
    # row-major over the pool: each x = (s, p) fixes A s and B per finite
    # part q of y; a witnessed target's keys are dropped, so each target
    # keeps its first witness, and the scan stops at the last witness.  The
    # pairs of each row are charged as its scan starts.
    witnesses = {}
    for s, p in pool:
        if not keys:
            break
        budget.charge(len(pool), "commutator pairs")
        by_q = [
            (tuple(sum(map(_times, row, s)) for row in A), B, c)
            for A, B, c in (E._pair(p, q) for q in range(E.F.order))
        ]
        for t, q in pool:
            As, B, c = by_q[q]
            hit = keys.get((tuple((u + sum(map(_times, row, t))) % L for u, row in zip(As, B)), c))
            if hit is not None:
                witnesses[hit] = [ExtElement(E, *_reduced(m, L, f)) for m, f in ((s, p), (t, q))]
                for k in cosets[hit]:
                    del keys[k]
                if not keys:
                    break
    missing = [t for t in targets if t not in witnesses]
    ordered = [(t, *witnesses[t]) for t in targets if t in witnesses]
    return CoverReport(not missing, N, M, targets, ordered, missing)


# ---------------------------------------------------------------------------
# pinned extension corpus: spec documents in the --ext format


CATALOG_SPECS = {
    "o2": {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[-1]]},
    },
    "su2_normalizer": {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Z4"},
        "action": {"1": [[-1]]},
        "central_quotient": [{"t": ["1/2"], "f": "2"}],
    },
    "o2_half": {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[-1]]},
        "central_quotient": [{"t": ["1/2"], "f": "0"}],
    },
    "trivial_z3": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z3"},
        "action": {"1": [[1, 0], [0, 1]]},
    },
    "swap2": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[0, 1], [1, 0]]},
    },
    "reflect2": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[-1, 0], [0, 1]]},
    },
    "rot4": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z4"},
        "action": {"1": [[0, -1], [1, 0]]},
    },
    "rot3": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z3"},
        "action": {"1": [[0, -1], [1, -1]]},
    },
    "rot6": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z6"},
        "action": {"1": [[0, -1], [1, 1]]},
    },
    "perm_s3": {
        "rank": 3,
        "finite": {"format": "catalog", "name": "S3"},
        "action": {
            "(0 1)": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            "(0 1 2)": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        },
    },
    "antipodal3": {
        "rank": 3,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]},
    },
    "d8_square": {
        "rank": 2,
        "finite": {"format": "catalog", "name": "D8"},
        "action": {"r": [[0, -1], [1, 0]], "s": [[1, 0], [0, -1]]},
    },
    "q8_sign": {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Q8"},
        "action": {"i": [[-1]], "j": [[-1]]},
    },
}

_ext_cache: dict = {}


def extension_names() -> tuple:
    return tuple(CATALOG_SPECS)


def catalog_extension(name: str, budget: int = DEFAULT_BUDGET) -> TorusExtension:
    """A catalog extension, built once; every call pays its action entries."""
    # fileio imports this module, so its reader is imported here
    from .fileio import extension_from_spec

    if name not in CATALOG_SPECS:
        raise ValidationError(f"unknown catalog extension {name!r}")
    if name not in _ext_cache:
        _ext_cache[name] = extension_from_spec({**CATALOG_SPECS[name], "label": name}, where=name)
    E = _ext_cache[name]
    E.charge_images(budget)
    return E


def catalog_extensions():
    """Yield (name, extension) over the pinned corpus."""
    for name in extension_names():
        yield name, catalog_extension(name)
