"""A pinned corpus of small finite groups, built on demand and cached.

Names are stable identifiers used by the CLI and the acceptance suite:
cyclic Z1..Z16, direct products (Z2xZ2, ..., Z4xZ6), dihedral D4..D16
(labelled by order), quaternion Q8 and Q16, permutation groups S3, S4, A4,
and the central products Z4oZ4 and Q8oZ4.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, ValidationError, meter
from .groups import FiniteGroup, central_product, direct_product


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group needs order >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = [str(a) for a in range(n)]
    return FiniteGroup(table, names=names, label=f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections s r^i."""
    if n < 1:
        raise ValidationError("dihedral group needs n >= 1")
    size = 2 * n

    def mul(x, y):
        xi, xf = x % n, x >= n
        yi, yf = y % n, y >= n
        if not xf and not yf:
            return (xi + yi) % n
        if not xf and yf:
            return n + (yi - xi) % n
        if xf and not yf:
            return n + (xi + yi) % n
        return (yi - xi) % n

    table = [[mul(x, y) for y in range(size)] for x in range(size)]
    names = ["1"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    names += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, n)]
    return FiniteGroup(table, names=names, label=f"D{size}")


def quaternion(m: int) -> FiniteGroup:
    """Generalized quaternion group of order 4m: a of order 2m, b with
    b*b = a^m and b^-1 a b = a^-1."""
    if m < 2:
        raise ValidationError("quaternion group needs m >= 2")
    n = 2 * m
    size = 2 * n

    def mul(x, y):
        xi, xb = x % n, x >= n
        yi, yb = y % n, y >= n
        if not xb and not yb:
            return (xi + yi) % n
        if not xb and yb:
            return n + (xi + yi) % n
        if xb and not yb:
            return n + (xi - yi) % n
        return (xi - yi + m) % n

    table = [[mul(x, y) for y in range(size)] for x in range(size)]
    if m == 2:
        names = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    else:
        names = ["1", "a"] + [f"a{i}" for i in range(2, n)]
        names += ["b", "ab"] + [f"a{i}b" for i in range(2, n)]
    return FiniteGroup(table, names=names, label=f"Q{size}")


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_name(p):
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) or "e"


def permutation_group(generators, label=None, budget: int = DEFAULT_BUDGET) -> FiniteGroup:
    """Group generated by permutations (tuples mapping i to p[i]), with
    elements sorted lexicographically so the identity sits at index 0.  The
    n-th element found is charged its 2n - 1 new Cayley-table entries.  A
    table of composed permutations is a group by construction, so it is
    not checked again."""
    gens = [tuple(p) for p in generators]
    if not gens:
        raise ValidationError("need at least one generator")
    deg = len(gens[0])
    ident = tuple(range(deg))
    for p in gens:
        if sorted(p) != list(ident):
            raise ValidationError(f"{p} is not a permutation of 0..{deg - 1}")
    elements, budget = {ident}, meter(budget)
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _perm_mul(p, g)
                if q not in elements:
                    elements.add(q)
                    budget.charge(2 * len(elements) - 1, "Cayley table of a permutation group")
                    nxt.append(q)
        frontier = nxt
    elems = sorted(elements)
    pos = {p: i for i, p in enumerate(elems)}
    table = [[pos[_perm_mul(p, q)] for q in elems] for p in elems]
    names = [_cycle_name(p) for p in elems]
    return FiniteGroup(table, names=names, label=label, check=False)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("symmetric group needs n >= 1")
    if n == 1:
        return permutation_group([(0,)], label="S1")
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return permutation_group([swap, cycle], label=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        raise ValidationError("alternating group needs n >= 3")
    c012 = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [c012]
    else:
        last3 = tuple(range(n - 3)) + (n - 2, n - 1, n - 3)
        gens = [c012, last3]
    return permutation_group(gens, label=f"A{n}")


_BUILDERS = {}
for _n in range(1, 17):
    _BUILDERS[f"Z{_n}"] = (lambda k: lambda: cyclic(k))(_n)
for _a, _b in ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (4, 4), (4, 6)):
    _BUILDERS[f"Z{_a}xZ{_b}"] = (
        lambda p, q: lambda: direct_product(cyclic(p), cyclic(q), label=f"Z{p}xZ{q}")
    )(_a, _b)
for _n in range(2, 9):
    _BUILDERS[f"D{2 * _n}"] = (lambda k: lambda: dihedral(k))(_n)
_BUILDERS["Q8"] = lambda: quaternion(2)
_BUILDERS["Q16"] = lambda: quaternion(4)
_BUILDERS["S3"] = lambda: symmetric(3)
_BUILDERS["S4"] = lambda: symmetric(4)
_BUILDERS["A4"] = lambda: alternating(4)
_BUILDERS["Z4oZ4"] = lambda: central_product(
    cyclic(4), cyclic(4), {0: 0, 2: 2}, label="Z4oZ4"
)[0]
_BUILDERS["Q8oZ4"] = lambda: central_product(
    quaternion(2), cyclic(4), {0: 0, 2: 2}, label="Q8oZ4"
)[0]

_cache: dict = {}


def catalog_names() -> tuple:
    """All catalog group names, in the builder table's pinned order."""
    return tuple(_BUILDERS)


def catalog_group(name: str) -> FiniteGroup:
    """Fetch a catalog group by name (cached)."""
    if name not in _BUILDERS:
        raise ValidationError(f"unknown catalog group {name!r}")
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]


def catalog_groups(max_order=None):
    """Yield (name, group) for every catalog group, optionally capped by order."""
    for name in _BUILDERS:
        G = catalog_group(name)
        if max_order is None or G.order <= max_order:
            yield name, G
