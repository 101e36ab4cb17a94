import pytest

from commclass.catalog import catalog_group, catalog_groups, cyclic
from commclass.cosetposet import (
    CosetPoset,
    abelian_subgroups,
    closed_abelian_subgroups,
    coset_poset_homology,
)
from commclass.errors import BudgetExceededError
from commclass.groups import commuting_tuples, continuation_counts
from commclass.intlinalg import AbelianGroupInvariants

Z = AbelianGroupInvariants


def test_abelian_subgroup_counts():
    # S3: trivial, three <transposition>, <3-cycle>
    assert len(abelian_subgroups(catalog_group("S3"))) == 5
    # each subgroup found after the trivial one is charged
    message = "abelian subgroup enumeration: charging 1 brings the total to 4, which exceeds budget 3"
    with pytest.raises(BudgetExceededError, match=message):
        abelian_subgroups(catalog_group("S3"), budget=3)
    assert len(abelian_subgroups(catalog_group("S3"), budget=4)) == 5
    # Q8: trivial, center, <i>, <j>, <k>
    assert len(abelian_subgroups(catalog_group("Q8"))) == 5
    # a prime-order group: trivial and itself
    assert len(abelian_subgroups(cyclic(5))) == 2
    assert len(abelian_subgroups(cyclic(1))) == 1


def test_abelian_subgroups_are_the_subgroups_of_commuting_triples():
    # no catalog group of order <= 16 has an abelian subgroup of rank 4, so
    # each abelian subgroup is generated by a commuting triple: the products
    # a^i b^j c^k of its powers
    for name, G in catalog_groups(16):
        t = G.table
        powers = {}
        for a in range(G.order):
            powers[a], p = [0], a
            while p:
                powers[a].append(p)
                p = t[p][a]
        want = set()
        for a, b, c in commuting_tuples(G, 3):
            want.add(tuple(sorted({t[t[x][y]][z] for x in powers[a] for y in powers[b] for z in powers[c]})))
        got = [s.elements for s in abelian_subgroups(G)]
        assert set(got) == want, name
        assert got == sorted(want, key=lambda els: (len(els), els)), name


def test_abelian_subgroups_are_abelian_and_closed():
    G = catalog_group("D8")
    subs = abelian_subgroups(G)
    for s in subs:
        assert s.is_abelian()
        for a in s.elements:
            for b in s.elements:
                assert G.mul(a, b) in s._set
    # the whole group only appears when abelian
    assert all(s.order < G.order for s in subs)
    H = cyclic(6)
    assert any(s.order == 6 for s in abelian_subgroups(H))


def test_poset_sizes():
    P = CosetPoset(catalog_group("S3"))
    assert P.size() == (17, 24)
    Q = CosetPoset(catalog_group("Q8"))
    assert Q.size() == (18, 44)


def test_poset_homology_fixtures():
    assert coset_poset_homology(catalog_group("S3"), 2) == [Z(0, ()), Z(8, ()), Z(0, ())]
    assert coset_poset_homology(catalog_group("Q8"), 2) == [Z(0, ()), Z(3, ()), Z(0, ())]
    assert coset_poset_homology(catalog_group("D8"), 1)[1] == Z(3, ())


def test_poset_contractible_for_abelian():
    for name, G in catalog_groups(9):
        if not G.is_abelian:
            continue
        assert coset_poset_homology(G, 2) == [Z(0, ())] * 3


def test_chain_counts_s3():
    P = CosetPoset(catalog_group("S3"))
    chains = P.chains(2)
    assert [len(level) for level in chains] == [17, 24, 0]
    # every edge joins comparable cosets
    for a, b in chains[1]:
        assert P.vertices[a] < P.vertices[b]


def _intersections_of_maximal_abelian_subgroups(G):
    """The family by brute force: for every abelian subgroup, the
    intersection of the maximal abelian subgroups above it."""
    abelian = [frozenset(s.elements) for s in abelian_subgroups(G)]
    maximal = [A for A in abelian if not any(A < B for B in abelian)]
    family = {frozenset.intersection(*[A for A in maximal if B <= A]) for B in abelian}
    return sorted((len(I), tuple(sorted(I))) for I in family)


def test_closed_family_is_the_intersections_of_maximal_abelian_subgroups():
    for name, G in catalog_groups():
        family = closed_abelian_subgroups(G, continuation_counts(G, 0))
        assert [(s.order, s.elements) for s in family] == (
            _intersections_of_maximal_abelian_subgroups(G)
        ), name
        if G.is_abelian:
            assert [s.elements for s in family] == [tuple(range(G.order))], name


def test_closed_family_is_the_centres_of_the_centraliser_lattice():
    # closed_abelian_subgroups reads the lattice S -> S ∩ C_G(x) that
    # continuation_counts walks, and keeps the centre of each set
    groups = list(catalog_groups())
    assert len(groups) == 38
    for name, G in groups:
        centres = {
            tuple(z for z in sorted(C) if all(G.commute(z, c) for c in C))
            for C in continuation_counts(G, 0)
        }
        want = sorted(centres, key=lambda els: (len(els), els))
        assert [s.elements for s in closed_abelian_subgroups(G, continuation_counts(G, 0))] == want, name


def test_centraliser_lattice_is_charged_once_per_set():
    # S4's lattice holds 15 sets, 14 found after S4 itself, and through
    # length 3 each set gains 3 counts: 14 + 45 = 59 in all
    S4 = catalog_group("S4")
    message = "centraliser lattice: charging 1 brings the total to 14, which exceeds budget 13"
    with pytest.raises(BudgetExceededError, match=message):
        continuation_counts(S4, 0, budget=13)
    assert len(continuation_counts(S4, 0, budget=14)) == 15
    message = "counts through length 3: charging 45 brings the total to 59, which exceeds budget 58"
    with pytest.raises(BudgetExceededError, match=message):
        continuation_counts(S4, 3, budget=58)
    # the closed family is read off the sets, whatever the length counted
    closed = [closed_abelian_subgroups(S4, continuation_counts(S4, n, budget=59)) for n in (0, 3)]
    assert len(closed[0]) == 15
    assert [s.elements for s in closed[0]] == [s.elements for s in closed[1]]


def test_closed_coset_poset_has_the_homology_of_the_full_one():
    # the closure hB -> h·∩{A maximal abelian : A ⊇ B} retracts P onto Q
    for name, G in catalog_groups():
        full = CosetPoset(G).homology(3)
        assert CosetPoset(G, closed_abelian_subgroups(G, continuation_counts(G, 0))).homology(3) == full, name


def test_successors_are_the_cosets_above():
    # read off the inclusions of the family, against a scan of every pair
    # of cosets; the counts are sum |G|/|I| over I and over pairs I < J
    for name, G in catalog_groups(12):
        for family in (abelian_subgroups(G), closed_abelian_subgroups(G, continuation_counts(G, 0))):
            P = CosetPoset(G, family)
            for c, succ in zip(P.vertices, P.successors):
                assert succ == [j for j, d in enumerate(P.vertices) if c < d], name
            sets = [frozenset(s.elements) for s in family]
            assert P.size() == (
                sum(G.order // len(I) for I in sets),
                sum(G.order // len(I) for I in sets for J in sets if I < J),
            ), name
