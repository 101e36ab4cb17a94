import hashlib
import json
import random
import sys

import pytest

from commclass.catalog import (
    alternating,
    catalog_group,
    catalog_groups,
    catalog_names,
    cyclic,
    dihedral,
    permutation_group,
    quaternion,
    symmetric,
)
from commclass import intlinalg
from commclass.errors import BudgetExceededError, MathInvariantError, ValidationError
from commclass.groups import (
    FiniteGroup,
    Subgroup,
    abelianization,
    center,
    central_product,
    closure,
    commutator_subgroup,
    commuting_levels,
    commuting_tuples,
    continuation_counts,
    direct_product,
    generated_subgroup,
    generators,
    invariant_factors_of_abelian,
    quotient_group,
    realize_triple,
)

rng = random.Random(0x9009)


def test_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 1]])  # identity not at index 0
    # Latin square with identity that fails associativity
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(bad)


def test_catalog_is_valid_and_ordered():
    names = catalog_names()
    assert names == (
        *(f"Z{n}" for n in range(1, 17)),
        "Z2xZ2",
        "Z2xZ4",
        "Z2xZ6",
        "Z2xZ8",
        "Z3xZ3",
        "Z3xZ4",
        "Z4xZ4",
        "Z4xZ6",
        "D4",
        "D6",
        "D8",
        "D10",
        "D12",
        "D14",
        "D16",
        "Q8",
        "Q16",
        "S3",
        "S4",
        "A4",
        "Z4oZ4",
        "Q8oZ4",
    )
    assert list(catalog_groups()) == [(name, catalog_group(name)) for name in names]
    for name in names:
        G = catalog_group(name)
        # revalidate the table from scratch
        FiniteGroup(G.table, check=True)
        assert G.order >= 1


def test_basic_arithmetic():
    G = catalog_group("S3")
    for a in range(G.order):
        assert G.mul(a, G.inv(a)) == 0
        assert G.mul(0, a) == a
        assert G.commutator(a, a) == 0
    for _ in range(200):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert G.commute(a, b) == (G.mul(a, b) == G.mul(b, a))
    assert not G.is_abelian
    assert catalog_group("Z12").is_abelian


def test_element_order():
    G = cyclic(12)
    assert G.element_order(1) == 12
    assert G.element_order(4) == 3
    assert G.element_order(0) == 1


def test_permutation_group_s3():
    G = permutation_group([(1, 0, 2), (1, 2, 0)], label="S3")
    assert G.order == 6
    assert sorted(G.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    assert symmetric(4).order == 24
    assert alternating(4).order == 12


def test_dihedral_quaternion_presentations():
    D8 = dihedral(4)
    assert D8.order == 8
    assert not D8.is_abelian
    r, s = D8.names.index("r"), D8.names.index("s")
    assert D8.element_order(r) == 4
    assert D8.element_order(s) == 2
    # s r s^-1 = r^-1
    assert D8.mul(D8.mul(s, r), D8.inv(s)) == D8.inv(r)
    Q8 = quaternion(2)
    i, j = Q8.names.index("i"), Q8.names.index("j")
    minus_one = Q8.names.index("-1")
    assert Q8.mul(i, i) == minus_one
    assert Q8.mul(j, j) == minus_one
    assert Q8.commutator(i, j) == minus_one


def test_center_and_commutator_subgroup():
    Q8 = catalog_group("Q8")
    Z = center(Q8)
    assert sorted(Z.elements) == [0, 2]
    assert sorted(commutator_subgroup(Q8).elements) == [0, 2]
    S3 = catalog_group("S3")
    assert len(center(S3).elements) == 1
    assert len(commutator_subgroup(S3).elements) == 3
    A4 = catalog_group("A4")
    assert len(commutator_subgroup(A4).elements) == 4


def test_subgroup_machinery():
    S3 = catalog_group("S3")
    H = generated_subgroup(S3, [S3.names.index("(0 1 2)")])
    assert len(H.elements) == 3
    assert H.is_normal()
    assert H.is_abelian()
    with pytest.raises(ValidationError):
        Subgroup(S3, (0, 1, 2))  # not closed unless those happen to be
    assert closure(S3, [0]) == (0,)


def test_quotient_group():
    S3 = catalog_group("S3")
    N = commutator_subgroup(S3)
    Q, proj = quotient_group(S3, N)
    assert Q.order == 2
    for _ in range(50):
        a, b = rng.randrange(6), rng.randrange(6)
        assert proj[S3.mul(a, b)] == Q.mul(proj[a], proj[b])
    # each coset is named by its least member
    assert Q.names == tuple(S3.names[proj.index(q)] for q in range(Q.order))


def test_direct_product_and_invariant_factors():
    G = direct_product(cyclic(2), cyclic(4))
    assert G.order == 8
    assert G.is_abelian
    assert invariant_factors_of_abelian(G) == [2, 4]
    assert invariant_factors_of_abelian(cyclic(12)) == [12]
    assert invariant_factors_of_abelian(cyclic(1)) == []
    assert invariant_factors_of_abelian(direct_product(cyclic(2), cyclic(3))) == [6]
    with pytest.raises(ValidationError):
        invariant_factors_of_abelian(catalog_group("S3"))


def test_short_abelian_presentation_is_an_internal_fault(monkeypatch):
    # the presentation has full rank by construction; a short diagonal is a bug, not a usage error
    monkeypatch.setattr(intlinalg, "snf_diagonal", lambda M, budget: [1] * (M.rows - 1))
    with pytest.raises(MathInvariantError, match="unexpected rank"):
        invariant_factors_of_abelian(cyclic(4))


def test_generators_are_greedy_and_generate():
    for name, G in [*catalog_groups(), ("A5", alternating(5))]:
        gens = generators(G)
        assert closure(G, gens) == tuple(range(G.order)), name
        for k, g in enumerate(gens):
            assert g not in closure(G, gens[:k]), name
    assert generators(cyclic(1)) == []
    assert generators(catalog_group("S4")) == [1, 2, 6]


def test_abelianization():
    assert abelianization(catalog_group("Q8")) == [2, 2]
    assert abelianization(catalog_group("S4")) == [2]
    assert abelianization(catalog_group("A4")) == [3]
    assert abelianization(catalog_group("D8")) == [2, 2]
    assert abelianization(catalog_group("Z6")) == [6]


def test_commuting_tuples_counts():
    # the pair count is the sum of centralizer orders
    for name in ("S3", "D8", "Q8", "A4", "Z12"):
        G = catalog_group(name)
        pairs = commuting_tuples(G, 2)
        assert len(pairs) == sum(len(G.commuting_set(g)) for g in range(G.order))
    S3 = catalog_group("S3")
    assert len(commuting_tuples(S3, 0)) == 1
    assert len(commuting_tuples(S3, 1)) == 6
    assert len(commuting_tuples(S3, 3)) == 48


def test_commuting_tuples_symmetry():
    G = catalog_group("D8")
    triples = set(commuting_tuples(G, 3))
    for t in triples:
        assert (t[2], t[0], t[1]) in triples
        assert tuple(G.inv(g) for g in t) in triples
        for a in t:
            for b in t:
                assert G.commute(a, b)


def test_commuting_tuples_budget():
    with pytest.raises(BudgetExceededError):
        commuting_tuples(catalog_group("S4"), 4, budget=1000)


def test_commuting_tuples_are_the_lexicographic_filter_of_all_tuples():
    from itertools import product

    for name in ("Z1", "Z4", "S3", "Q8", "Z2xZ4"):
        G = catalog_group(name)
        levels = commuting_levels(G, 3)
        assert len(levels) == 4, name
        for n in range(4):
            every = [
                t
                for t in product(range(G.order), repeat=n)
                if all(G.commute(a, b) for a in t for b in t)
            ]
            assert commuting_tuples(G, n) == levels[n] == every, (name, n)


def test_count_of_nondegenerate_commuting_tuples_matches_the_enumeration():
    # f(k, S) counts the nondegenerate commuting k-tuples with entries in S,
    # for G itself and every intersection of centralisers reached from it
    for name, G in catalog_groups(16):
        top = 4 if G.order <= 8 else 3
        tuples = [[t for t in level if 0 not in t] for level in commuting_levels(G, top)]
        counts = continuation_counts(G, top)
        assert frozenset(range(G.order)) in counts, name
        for S, f in counts.items():
            assert f == [sum(1 for t in level if S.issuperset(t)) for level in tuples], name
    # an abelian group of order n has (n - 1)^k of them, at any length
    assert continuation_counts(cyclic(3), 40)[frozenset(range(3))][-1] == 2**40
    assert continuation_counts(cyclic(1), 5) == {frozenset({0}): [1, 0, 0, 0, 0, 0]}


def test_commuting_tuples_need_no_recursion():
    # a budget of the n(n+1)/2 entries of the levels admits lengths far past
    # the interpreter's recursion limit
    n = 3 * sys.getrecursionlimit()
    assert commuting_tuples(cyclic(1), n, budget=n * (n + 1) // 2) == [(0,) * n]


def test_central_product():
    Z4 = cyclic(4)
    G, proj = central_product(Z4, Z4, {0: 0, 2: 2})
    assert G.order == 8
    assert G.is_abelian
    assert invariant_factors_of_abelian(G) == [2, 4]
    # antidiagonal identification: (2, 2) maps to the identity
    assert proj[2 * 4 + 2] == 0
    Q8oZ4 = catalog_group("Q8oZ4")
    assert Q8oZ4.order == 16
    assert abelianization(Q8oZ4) == [2, 2, 2]
    assert len(center(Q8oZ4).elements) == 4
    with pytest.raises(ValidationError):
        central_product(Z4, Z4, {0: 0, 1: 1})  # {0,1} is not a subgroup of Z4


@pytest.mark.parametrize(
    "name, H, names, proj, table_sha256",
    [
        (
            "Z4oZ4",
            cyclic(4),
            ["(0,0)", "(0,1)", "(0,2)", "(0,3)", "(1,0)", "(1,1)", "(1,2)", "(1,3)"],
            [0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 0, 1, 6, 7, 4, 5],
            "b0829ec1045601d1e78cf50240b7c1087719d7613c63dae2f2fb58ceae8aad43",
        ),
        (
            "Q8oZ4",
            quaternion(2),
            [f"({q},{z})" for q in ("1", "i", "j", "k") for z in range(4)],
            [0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 0, 1, 6, 7, 4, 5]
            + [8, 9, 10, 11, 12, 13, 14, 15, 10, 11, 8, 9, 14, 15, 12, 13],
            "14a24eab18667d11fdb6d3f65ccae0e46c03e6b49793f4df60bf604db6558d99",
        ),
    ],
)
def test_central_product_pins_its_elements(name, H, names, proj, table_sha256):
    # an extension spec may name these elements, so their order and names are fixed
    G, got = central_product(H, cyclic(4), {0: 0, 2: 2}, label=name)
    assert list(G.names) == names
    assert got == proj
    assert hashlib.sha256(json.dumps(G.table).encode()).hexdigest() == table_sha256
    assert G.label == name
    C = catalog_group(name)
    assert (C.table, C.names, C.label) == (G.table, G.names, G.label)


def test_realize_triple():
    Q8 = catalog_group("Q8")
    K = Subgroup(Q8, (0, 2))
    minus_one = 2
    triple = realize_triple(Q8, K, minus_one, minus_one)
    assert triple == (1, 1, 4)  # (i, i, j), the lexicographically first witness
    g1, g2, g3 = triple
    assert Q8.commutator(g1, g2) == 0
    assert Q8.commutator(g2, g3) == minus_one
    assert Q8.commutator(g1, g3) == minus_one
    assert realize_triple(Q8, K, 0, 0) == (0, 0, 0)
    with pytest.raises(ValidationError):
        realize_triple(Q8, K, 1, 2)  # i is not in K


def test_names_round_trip():
    for name, G in catalog_groups(12):
        for g in range(G.order):
            assert G.names.index(G.name_of(g)) == g
