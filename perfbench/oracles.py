"""Independent checks for the benchmark's outputs.

Nothing here calls commclass.intlinalg.  The oracles read only defining
data (a group's multiplication table, an extension's rank, action matrices
and central-quotient generators, a cocycle spec file) and recompute what
the program reports by other means:

- ranks over F_p of chain complexes built here from the group table, to
  check integer homology by the universal coefficient theorem;
- the Kunneth formula for the homology of finite abelian groups;
- element-count invariants of finite abelian groups and abelianizations;
- closed forms for the homogeneous model (level sizes, acyclicity);
- exact torus-extension arithmetic over Fractions, a small Hermite form,
  and clutching windings computed straight from the spec file.

Each check returns None when it passes and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

LARGE_PRIME = 2147483647


# ---------------------------------------------------------------------------
# primes and finite abelian groups


def prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def invariant_factors(cyclic_orders) -> list:
    """Invariant factors (ascending divisibility chain, all >= 2) of the
    direct sum of cyclic groups of the given orders."""
    powers = {}
    for m in cyclic_orders:
        for p in prime_factors(m):
            e = 1
            while m % p ** (e + 1) == 0:
                e += 1
            powers.setdefault(p, []).append(p**e)
    longest = max((len(v) for v in powers.values()), default=0)
    factors = [1] * longest
    for v in powers.values():
        v.sort(reverse=True)
        for i, q in enumerate(v):
            factors[i] *= q
    return sorted(factors)


def _power(table, g, k):
    x = 0
    while k:
        if k & 1:
            x = table[x][g]
        g = table[g][g]
        k >>= 1
    return x


def quotient_invariants(table, normal) -> list:
    """Invariant factors of G/N for N a normal subgroup with abelian
    quotient, from the counts of elements x with x^(p^j) in N."""
    n = len(table)
    index = n // len(normal)
    factors = []
    for p in prime_factors(index):
        counts = [1]
        j = 1
        while counts[-1] < _p_part(index, p):
            m = p**j
            hits = sum(1 for g in range(n) if _power(table, g, m) in normal)
            counts.append(hits // len(normal))
            j += 1
        # parts of size >= p^j number log_p(counts[j] / counts[j-1])
        at_least = [_log(counts[j] // counts[j - 1], p) for j in range(1, len(counts))]
        for j, cnt in enumerate(at_least):
            nxt = at_least[j + 1] if j + 1 < len(at_least) else 0
            factors.extend([p ** (j + 1)] * (cnt - nxt))
    return invariant_factors(factors)


def _p_part(n, p):
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def _log(n, p):
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def is_abelian(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))


def commutator_subgroup(table) -> frozenset:
    n = len(table)
    inv = [row.index(0) for row in table]
    gens = {table[table[inv[a]][inv[b]]][table[a][b]] for a in range(n) for b in range(n)}
    sub = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in sub:
                    sub.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(sub)


def abelianization(table) -> list:
    return quotient_invariants(table, commutator_subgroup(table))


def abelian_invariants(table) -> list:
    return quotient_invariants(table, frozenset({0}))


# ---------------------------------------------------------------------------
# Kunneth formula for B(Z/m1 x ... x Z/mr)


def _tensor_tor(a, b):
    """a, b: (free rank, cyclic orders).  Returns (a (x) b, Tor(a, b))."""
    fa, ta = a
    fb, tb = b
    tensor_free = fa * fb
    tensor_tors = ta * fb + tb * fa + [gcd(x, y) for x in ta for y in tb]
    tor = [gcd(x, y) for x in ta for y in tb]
    return (tensor_free, tensor_tors), tor


def abelian_group_homology(cyclic_orders, top: int) -> list:
    """[(free rank, invariant factors)] of H_0..H_top of B(sum Z/m_i)."""
    degrees = [(1, [])] + [(0, []) for _ in range(top)]
    for m in cyclic_orders:
        factor = [(1, [])] + [((0, [m]) if k % 2 else (0, [])) for k in range(1, top + 1)]
        out = [[0, []] for _ in range(top + 1)]
        for i in range(top + 1):
            for j in range(top + 1 - i):
                (free, tors), tor = _tensor_tor(degrees[i], factor[j])
                out[i + j][0] += free
                out[i + j][1] += tors
                if i + j + 1 <= top:
                    out[i + j + 1][1] += tor
        degrees = [(f, [x for x in t if x > 1]) for f, t in out]
    return [(f, invariant_factors(t)) for f, t in degrees]


# ---------------------------------------------------------------------------
# chain complexes built from the group table


def nondegenerate_commuting(table, k: int) -> list:
    """k-tuples of non-identity, pairwise commuting elements, in
    lexicographic order."""
    n = len(table)
    cent = [frozenset(b for b in range(1, n) if table[a][b] == table[b][a]) for a in range(n)]
    out = []

    def extend(prefix, allowed):
        if len(prefix) == k:
            out.append(prefix)
            return
        for g in sorted(allowed):
            extend(prefix + (g,), allowed & cent[g])

    extend((), frozenset(range(1, n)))
    return out


def all_tuple_count(nondegenerate_counts, k: int) -> int:
    """Pairwise commuting k-tuples, identity allowed: choose which
    positions hold a non-identity entry."""
    return sum(comb(k, j) * nondegenerate_counts[j] for j in range(k + 1))


# Normalized chain complex: sizes[k] cells in degree k and, for k >= 1,
# columns[k][j] = {row: coefficient} of the boundary of cell j.
Complex = namedtuple("Complex", "sizes columns")


def bar_complex(table, top: int) -> Complex:
    """Normalized commuting-tuple nerve through degree top: cells are
    non-identity commuting tuples, faces multiply adjacent entries."""
    levels = [nondegenerate_commuting(table, k) for k in range(top + 1)]
    columns = [None]
    for k in range(1, top + 1):
        below = {t: i for i, t in enumerate(levels[k - 1])}
        cols = []
        for t in levels[k]:
            col = {}
            for i in range(k + 1):
                if i == 0:
                    f = t[1:]
                elif i == k:
                    f = t[:-1]
                else:
                    f = t[: i - 1] + (table[t[i - 1]][t[i]],) + t[i + 1 :]
                r = below.get(f)
                if r is not None:
                    col[r] = col.get(r, 0) + (-1) ** i
            cols.append({r: v for r, v in col.items() if v})
        columns.append(cols)
    return Complex([len(level) for level in levels], columns)


def homogeneous_complex(table, top: int) -> Complex:
    """Normalized homogeneous model through degree top: cells (g0..gk) with
    successive quotients non-identity and pairwise commuting; faces drop an
    entry, and a face with two equal neighbours is degenerate."""
    n = len(table)
    levels = []
    for k in range(top + 1):
        level = []
        for q in nondegenerate_commuting(table, k):
            for g0 in range(n):
                e = [g0]
                for x in q:
                    e.append(table[e[-1]][x])
                level.append(tuple(e))
        levels.append(level)
    columns = [None]
    for k in range(1, top + 1):
        below = {t: i for i, t in enumerate(levels[k - 1])}
        cols = []
        for e in levels[k]:
            col = {}
            for i in range(k + 1):
                r = below.get(e[:i] + e[i + 1 :])
                if r is not None:
                    col[r] = col.get(r, 0) + (-1) ** i
            cols.append({r: v for r, v in col.items() if v})
        columns.append(cols)
    return Complex([len(level) for level in levels], columns)


def rank_mod_p(columns, p: int, bound=None) -> int:
    """Rank over F_p of the matrix with the given sparse columns, by
    column reduction on the largest row index.  Stops once the rank
    reaches bound, when one is given."""
    pivots = {}
    r = 0
    for col in columns:
        if bound is not None and r >= bound:
            break
        c = {i: v % p for i, v in col.items() if v % p}
        while c:
            low = max(c)
            piv = pivots.get(low)
            if piv is None:
                scale = pow(c[low], -1, p)
                pivots[low] = {i: v * scale % p for i, v in c.items()}
                r += 1
                break
            f = c[low]
            for i, v in piv.items():
                x = (c.get(i, 0) - f * v) % p
                if x:
                    c[i] = x
                else:
                    c.pop(i, None)
    return r


def fp_betti(C: Complex, p: int) -> list:
    """dim H_k(C; F_p) for k = 0..top-1."""
    top = len(C.sizes) - 1
    ranks = [0] * (top + 2)
    # rank d_k <= sizes[k-1]; reduce the lower boundary first so the upper
    # one can stop at the dimension of the cycles below it
    for k in range(1, top + 1):
        bound = C.sizes[k - 1] - ranks[k - 1]
        ranks[k] = rank_mod_p(C.columns[k], p, bound)
    return [C.sizes[k] - ranks[k] - ranks[k + 1] for k in range(top)]


def check_uct(C: Complex, homology, primes) -> str | None:
    """homology[k] = (free rank, invariant factors) for k = 0..top-1."""
    for p in primes:
        dims = fp_betti(C, p)
        for k, (free, tors) in enumerate(homology):
            t_k = sum(1 for d in tors if d % p == 0)
            t_prev = sum(1 for d in homology[k - 1][1] if d % p == 0) if k else 0
            if dims[k] != free + t_k + t_prev:
                return f"H{k} over F_{p} has dimension {dims[k]}, integer answer gives {free + t_k + t_prev}"
    return None


# ---------------------------------------------------------------------------
# homology documents from the CLI


def rows_of(doc) -> dict:
    return {r["name"]: r["value"] for r in doc["results"]}


def _inv(v) -> tuple:
    return v["free_rank"], list(v["invariant_factors"])


def check_homology_doc(doc, table, model: str, max_dim: int) -> str | None:
    """Check a homology-e2g or homology-b2g document against a complex
    built here from the group table."""
    rows = rows_of(doc)
    n = len(table)
    build = homogeneous_complex if model == "e2g" else bar_complex
    C = build(table, max_dim + 1)
    bar_sizes = [len(nondegenerate_commuting(table, k)) for k in range(max_dim + 2)]
    if model == "e2g":
        want_nd = [n * s for s in bar_sizes]
        want_all = [n * all_tuple_count(bar_sizes, k) for k in range(max_dim + 2)]
    else:
        want_nd = bar_sizes
        want_all = [all_tuple_count(bar_sizes, k) for k in range(max_dim + 2)]
    if rows["nondegenerate-sizes"] != want_nd or C.sizes != want_nd:
        return f"nondegenerate sizes {rows['nondegenerate-sizes']} != {want_nd}"
    if rows["level-sizes"] != want_all:
        return f"level sizes {rows['level-sizes']} != {want_all}"
    homology = [_inv(rows["H0"])] + [_inv(rows[f"H{k}"]) for k in range(1, max_dim + 1)]
    h0 = homology[0]
    if h0 != (1, []) or _inv(rows["H~0"]) != (0, []):
        return f"H0 {h0} and H~0 {rows['H~0']} do not describe a connected space"
    abelian = is_abelian(table)
    if model == "e2g":
        if abelian and want_nd != [n * (n - 1) ** k for k in range(max_dim + 2)]:
            return "abelian nondegenerate sizes differ from |G|(|G|-1)^k"
        acyclic = all(h == (0, []) for h in homology[1:])
        if acyclic != abelian:
            return f"acyclic={acyclic} but abelian={abelian}"
    elif abelian:
        want = abelian_group_homology(abelian_invariants(table), max_dim)
        if homology != want:
            return f"homology {homology} != Kunneth {want}"
    return check_uct(C, homology, prime_factors(n) + [LARGE_PRIME])


def check_coset_poset_doc(doc, e2g_doc, max_dim: int) -> str | None:
    """Degree-by-degree agreement with the homogeneous model."""
    rows = rows_of(doc)
    model = rows_of(e2g_doc)
    want = [model["H~0"]] + [model[f"H{k}"] for k in range(1, max_dim + 1)]
    got = [rows[f"H~{k}"] for k in range(max_dim + 1)]
    if got != want:
        return f"coset poset {got} != homogeneous model {want}"
    return None


def check_group_ring_doc(doc, table, name: str) -> str | None:
    rows = rows_of(doc)
    want = {"free_rank": 0, "invariant_factors": abelianization(table)}
    if rows[name] != want or rows["coinvariants"] != want or rows["agrees"] is not True:
        return f"{name} {rows[name]} / coinvariants {rows['coinvariants']} != abelianization {want}"
    return None


# ---------------------------------------------------------------------------
# torus extensions from their defining data


def apply(m, v) -> tuple:
    """Matrix m (a list of rows) times vector v."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


class Extension:
    """(Q/Z)^rank x| F modulo a finite central subgroup Z, from rank, the
    table of F, the action matrices and the generators of Z."""

    def __init__(self, rank, table, rho, z_generators):
        self.rank = rank
        self.table = table
        self.inv_f = [row.index(0) for row in table]
        self.rho = rho
        z = {(self.zero(), 0)}
        frontier = list(z)
        while frontier:
            nxt = []
            for x in frontier:
                for g in z_generators:
                    y = self.mul(x, g)
                    if y not in z:
                        z.add(y)
                        nxt.append(y)
            frontier = nxt
        self.z = z

    @classmethod
    def of(cls, E):
        """Read the defining data off a commclass TorusExtension."""
        rho = [M.to_rows() for M in E.rho]
        gens = [(tuple(Fraction(x) for x in t), f) for t, f in E.z_generators]
        return cls(E.rank, [list(r) for r in E.F.table], rho, gens)

    def zero(self):
        return tuple(Fraction(0) for _ in range(self.rank))

    def mul(self, x, y):
        moved = apply(self.rho[x[1]], y[0])
        return tuple((a + b) % 1 for a, b in zip(x[0], moved)), self.table[x[1]][y[1]]

    def inv(self, x):
        fi = self.inv_f[x[1]]
        return tuple((-a) % 1 for a in apply(self.rho[fi], x[0])), fi

    def comm(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def same(self, x, y) -> bool:
        """x and y name the same element of the quotient by Z."""
        x = (tuple(a % 1 for a in x[0]), x[1])
        y = (tuple(a % 1 for a in y[0]), y[1])
        return any(self.mul(x, z) == y for z in self.z)

    def orbit(self, x):
        return [self.mul(x, z) for z in self.z]

    def orbit_key(self, x):
        return min(self.orbit(x))

    def psi(self, q):
        """I - rho(q^-1), the lattice action of commutation with q."""
        m = self.rho[self.inv_f[q]]
        return [[(i == j) - m[i][j] for j in range(self.rank)] for i in range(self.rank)]


def element_of(doc, names) -> tuple:
    return tuple(Fraction(x) for x in doc["t"]), names.index(doc["f"])


def hnf(rows_list, ncols) -> list:
    """Row Hermite form: echelon, positive pivots, entries above a pivot
    reduced into [0, pivot).  Nonzero rows only."""
    work = [list(r) for r in rows_list if any(r)]
    out = []
    c = 0
    while work and c < ncols:
        nz = [r for r in work if r[c]]
        if not nz:
            c += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[c]))
            piv = nz[0]
            for r in nz[1:]:
                q = r[c] // piv[c]
                for j in range(ncols):
                    r[j] -= q * piv[j]
            nz = [r for r in nz if r[c]]
        piv = nz[0]
        if piv[c] < 0:
            piv[:] = [-x for x in piv]
        work = [r for r in work if r is not piv and any(r)]
        for r in out:
            q = r[c] // piv[c]
            for j in range(ncols):
                r[j] -= q * piv[j]
        out.append(piv)
        c += 1
    return out


def _det(m) -> int:
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _maximal_minor_gcd(rows_list) -> int:
    g = 0
    for cols in combinations(range(len(rows_list[0])), len(rows_list)):
        g = gcd(g, _det([[row[c] for c in cols] for row in rows_list]))
    return g


def check_torus_analyze_doc(doc, X: Extension, names, points) -> str | None:
    """points: torus points at which every psi row is checked against the
    bracket [q-lift, t] computed here."""
    rows = rows_of(doc)
    k = X.rank
    if rows["rank"] != k or rows["finite-order"] != len(X.table):
        return "shape differs from the defining data"
    if rows["split"] != (len(X.z) == 1) or len(rows["torus-quotient-elements"]) != len(X.z):
        return f"central quotient has {len(X.z)} elements, document disagrees"
    columns = []
    for q, name in enumerate(names):
        mat = rows[f"psi[{name}]"]["rows"]
        if mat != X.psi(q):
            return f"psi[{name}] {mat} != I - rho(q^-1) {X.psi(q)}"
        lift = (X.zero(), q)
        for t in points:
            got = X.comm(lift, (t, 0))
            want = (apply(mat, t), 0)
            if not X.same(got, want):
                return f"bracket [{name}, {t}] = {got} but psi gives {want}"
        columns.extend([[mat[i][j] for i in range(k)] for j in range(k)])
    total = hnf(columns, k)
    if rows["commutator-image-sum"]["basis_rows"] != total:
        return f"image sum {rows['commutator-image-sum']} != {total}"
    sub = rows["commutator-subtorus"]["basis_rows"]
    if rows["pi1-subtorus-summand"]["basis_rows"] != sub or len(sub) != len(total):
        return "subtorus rank or summand differs from the image sum"
    if sub and _maximal_minor_gcd(sub) != 1:
        return f"subtorus {sub} is not saturated"
    if hnf(sub + total, k) != hnf(sub, k):
        return "subtorus does not contain the image sum"
    comp = rows["pi1-complement"]["basis_rows"]
    if len(sub) + len(comp) != k or abs(_det(sub + comp)) != 1:
        return "subtorus and complement do not span Z^rank"
    D = 1
    torus_parts = [t for t, f in X.z if f == 0]
    for t in torus_parts:
        for x in t:
            D = D * x.denominator // gcd(D, x.denominator)
    gens = [[D * (i == j) for j in range(k)] for i in range(k)]
    gens += [[int(x * D) for x in t] for t in torus_parts]
    if rows["pi1-denominator"] != D or rows["pi1-lattice-times-denominator"]["basis_rows"] != hnf(gens, k):
        return "fundamental-group lattice differs"
    return None


def check_single_comm_doc(doc, X: Extension, names, N: int) -> str | None:
    rows = rows_of(doc)
    if rows["covered"] is not True or rows["missing"]:
        return "not covered"
    psi_cols = [[X.psi(q)[i][j] for i in range(X.rank)] for q in range(len(names)) for j in range(X.rank)]
    if len(hnf(psi_cols, X.rank)) != X.rank:
        return "commutator subtorus is not full; target count has no closed form here"
    targets = {
        X.orbit_key((tuple(Fraction(c, N) for c in cs), 0))
        for cs in product(range(N), repeat=X.rank)
    }
    if rows["target-count"] != len(targets) or len(rows["witnesses"]) != len(targets):
        return f"{rows['target-count']} targets, {len(rows['witnesses'])} witnesses, expected {len(targets)}"
    seen = set()
    for w in rows["witnesses"]:
        target = element_of(w["target"], names)
        if not any(f == 0 and all((x * N).denominator == 1 for x in t) for t, f in X.orbit(target)):
            return f"target {w['target']} is not a denominator-{N} torus point"
        got = X.comm(element_of(w["x"], names), element_of(w["y"], names))
        if not X.same(got, target):
            return f"[x, y] = {got} != target {w['target']}"
        seen.add(X.orbit_key(target))
    if seen != targets:
        return "witness targets differ from the denominator-N points"
    return None


def clutch_winding_from_spec(path: str, invert: bool) -> list:
    """Winding of the clutching loop of a cocycle spec, computed from the
    arcs' lifts: displacement(a12 * a23) - displacement(a13).  The
    extension is a table-format spec file next to the cocycle whose action
    lists every element the arcs use."""
    with open(path) as fh:
        doc = json.load(fh)
    ext = doc["extension"]
    if isinstance(ext, str):
        with open(os.path.join(os.path.dirname(path), ext)) as fh:
            ext = json.load(fh)
    names = ext["finite"]["names"]
    table = ext["finite"]["table"]
    k = ext["rank"]
    action = {names.index(n): m for n, m in ext["action"].items()}
    ident = [[int(i == j) for j in range(k)] for i in range(k)]
    rho = {0: ident, **action}

    def arc(key):
        pts = doc["arcs"][key]
        f = names.index(pts[0]["f"])
        lifts = [[Fraction(x) for x in p["t"]] for p in pts]
        return f, lifts

    def inverse(a):
        f, lifts = a
        fi = [row.index(0) for row in table][f]
        return fi, [[-x for x in apply(rho[fi], v)] for v in lifts]

    arcs = {key: arc(key) for key in ("a12", "a13", "a23")}
    if invert:
        arcs = {key: inverse(a) for key, a in arcs.items()}
    (f12, l12), (f13, l13), (f23, l23) = arcs["a12"], arcs["a13"], arcs["a23"]

    def disp(lifts):
        return [b - a for a, b in zip(lifts[0], lifts[-1])]

    # a12 * a23 moves by disp(a12) + rho(f12) disp(a23)
    d1 = [a + b for a, b in zip(disp(l12), apply(rho[f12], disp(l23)))]
    return [a - b for a, b in zip(d1, disp(l13))]


def check_clutch_doc(doc, path: str, invert: bool, size: int) -> str | None:
    """size: the expected absolute value of the one winding coordinate."""
    rows = rows_of(doc)
    checks = [v for name, v in rows.items() if name.startswith("check-")]
    if len(checks) != 4 or not all(checks):
        return "cocycle validation rows are not all true"
    want = clutch_winding_from_spec(path, invert)
    if rows["winding"] != want or rows["marker"] is not None or [abs(w) for w in want] != [size]:
        return f"winding {rows['winding']}, computed {want}, expected size {size}"
    return None


# ---------------------------------------------------------------------------
# self-test on tiny cases with known answers


def self_test() -> list:
    """Returns the list of failed cases (empty when all pass)."""
    failed = []

    def expect(label, got, want):
        if got != want:
            failed.append(f"{label}: got {got}, want {want}")

    def cyclic(n):
        return [[(a + b) % n for b in range(n)] for a in range(n)]

    def product_table(a, b):
        m = len(b)
        return [
            [a[x // m][y // m] * m + b[x % m][y % m] for y in range(len(a) * m)]
            for x in range(len(a) * m)
        ]

    # S3 as permutations of three points
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    s3 = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]

    expect("invariant factors Z2+Z2+Z4+Z3", invariant_factors([2, 2, 4, 3]), [2, 2, 12])
    expect("invariants of Z2xZ4", abelian_invariants(product_table(cyclic(2), cyclic(4))), [2, 4])
    expect("invariants of Z6", abelian_invariants(cyclic(6)), [6])
    expect("abelianization of S3", abelianization(s3), [2])
    expect("H(BZ3)", abelian_group_homology([3], 3), [(1, []), (0, [3]), (0, []), (0, [3])])
    expect(
        "H(B(Z2xZ2))",
        abelian_group_homology([2, 2], 3),
        [(1, []), (0, [2, 2]), (0, [2]), (0, [2, 2, 2])],
    )
    expect("rank of [[2]] mod 2", rank_mod_p([{0: 2}], 2), 0)
    expect("rank of [[2]] mod 3", rank_mod_p([{0: 2}], 3), 1)
    expect("rank of [[1,1],[1,1]]", rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: 1}], 5), 1)
    # circle with two vertices and two edges: H0 = H1 = Z
    circle = Complex([2, 2, 0], [None, [{0: -1, 1: 1}, {0: 1, 1: -1}], []])
    expect("UCT on the circle", check_uct(circle, [(1, []), (1, [])], [2, 3]), None)
    expect("UCT catches a wrong answer", check_uct(circle, [(1, []), (0, [])], [2]) is None, False)
    # BZ2 through degree 3: H1 = Z/2, H2 = 0 over Z; F_2 sees Z/2 in both
    bz2 = bar_complex(cyclic(2), 3)
    expect("F_2 Betti of BZ2", fp_betti(bz2, 2), [1, 1, 1])
    expect("UCT on BZ2", check_uct(bz2, [(1, []), (0, [2]), (0, [])], [2, LARGE_PRIME]), None)
    expect("homogeneous Z3 sizes", homogeneous_complex(cyclic(3), 2).sizes, [3, 6, 12])
    expect("F_3 Betti of the Z3 homogeneous model", fp_betti(homogeneous_complex(cyclic(3), 3), 3), [1, 0, 0])
    expect("S3 homogeneous model is not acyclic", fp_betti(homogeneous_complex(s3, 2), LARGE_PRIME)[1] > 0, True)
    expect("all commuting pairs of S3", all_tuple_count([1, 5, 7], 2), 18)
    expect("hnf", hnf([[2, 0], [0, 2], [1, 1]], 2), [[1, 1], [0, 2]])
    expect("saturated", _maximal_minor_gcd([[1, 1]]), 1)
    # o2: rank 1, F = Z2 acting by -1; [tau, t] = 2t
    o2 = Extension(1, cyclic(2), [[[1]], [[-1]]], [])
    expect("o2 psi", o2.psi(1), [[2]])
    expect("o2 bracket", o2.comm(((Fraction(0),), 1), ((Fraction(1, 3),), 0)), ((Fraction(2, 3),), 0))
    # su2 normalizer: Z4 acting through Z2, modulo (1/2, 2)
    su2 = Extension(1, cyclic(4), [[[1]], [[-1]], [[1]], [[-1]]], [((Fraction(1, 2),), 2)])
    expect("su2 quotient size", len(su2.z), 2)
    expect("su2 identification", su2.same(((Fraction(1, 2),), 2), (su2.zero(), 0)), True)
    return failed
