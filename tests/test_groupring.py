import pytest

from commclass import catalog
from commclass.catalog import alternating, catalog_group, catalog_groups, cyclic
from commclass.errors import BudgetExceededError, ValidationError
from commclass.groups import (
    abelianization,
    commutator_subgroup,
    direct_product,
    generators,
    invariant_factors_of_abelian,
    quotient_group,
)
from commclass.groupring import coinvariants, moore_h2, pi2_e2_connected
from commclass.intlinalg import AbelianGroupInvariants, IntMatrix, homology_range, snf_diagonal

Z = AbelianGroupInvariants


def test_coinvariants_fixtures():
    assert coinvariants(cyclic(1)) == Z(0, ())
    assert coinvariants(cyclic(2)) == Z(0, (2,))
    assert coinvariants(cyclic(3)) == Z(0, (3,))
    assert coinvariants(direct_product(cyclic(2), cyclic(2))) == Z(0, (2, 2))
    assert coinvariants(catalog_group("S3")) == Z(0, (2,))
    assert coinvariants(catalog_group("Q8")) == Z(0, (2, 2))
    assert coinvariants(catalog_group("A4")) == Z(0, (3,))
    assert coinvariants(catalog_group("S4")) == Z(0, (2,))


def test_coinvariants_match_abelianization():
    for name, G in catalog_groups(16):
        assert coinvariants(G) == Z(0, tuple(abelianization(G)))


def test_moore_h2_fixtures():
    assert moore_h2(cyclic(1)) == Z(0, ())
    assert moore_h2(cyclic(3)) == Z(0, (3,))
    assert moore_h2(direct_product(cyclic(2), cyclic(2))) == Z(0, (2, 2))
    assert moore_h2(direct_product(cyclic(2), cyclic(4))) == Z(0, (2, 4))


def test_moore_h2_matches_coinvariants():
    for name, G in catalog_groups(12):
        assert moore_h2(G) == coinvariants(G)


def test_pi2_connected_total_space():
    assert pi2_e2_connected([2]) == Z(0, (2,))
    assert pi2_e2_connected([2, 4]) == Z(0, (2, 4))
    assert pi2_e2_connected([]) == Z(0, ())
    assert pi2_e2_connected([6]) == Z(0, (6,))


def test_pi2_input_validation():
    with pytest.raises(ValidationError):
        pi2_e2_connected([3, 2])  # not a divisibility chain
    with pytest.raises(ValidationError):
        pi2_e2_connected([1])
    with pytest.raises(ValidationError):
        pi2_e2_connected([0, 2])


def test_group_ring_work_is_charged_before_it_is_built(monkeypatch):
    # S4 has a generating set of 3: 3·23 columns of coinvariants, 3·24 of
    # moore_h2, charged before they are built; the elimination's pivots are
    # charged to the same meter, 367 and 531 in all
    S4 = catalog_group("S4")
    built = []
    from_column_dicts = IntMatrix.from_column_dicts
    monkeypatch.setattr(
        IntMatrix,
        "from_column_dicts",
        lambda cols, nrows: built.append(len(cols)) or from_column_dicts(cols, nrows),
    )
    for fn, columns, total in ((coinvariants, 69, 367), (moore_h2, 72, 531)):
        with pytest.raises(BudgetExceededError, match=f"charging {columns} brings"):
            fn(S4, budget=columns - 1)
        assert built == []
        with pytest.raises(BudgetExceededError, match=f"elimination: .* to {total},"):
            fn(S4, budget=total - 1)
        assert fn(S4, budget=total) == Z(0, (2,))
        assert built == [columns, columns]
        built.clear()
    monkeypatch.undo()
    monkeypatch.setattr(catalog, "cyclic", lambda n: built.append(n))
    with pytest.raises(BudgetExceededError, match="160000"):
        pi2_e2_connected([400], budget=159999)
    assert built == []
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError):
        pi2_e2_connected([2, 4], budget=128)
    assert pi2_e2_connected([2, 4], budget=129) == Z(0, (2, 4))


# The presentations on every pair of G x G: the builds the generating-set
# presentations replaced, kept as their oracle.


def _all_pairs_coinvariants(A):
    n = A.order
    cols = []
    for a in range(n):
        for b in range(1, n):
            col = {}
            for el, s in ((b, 1), (A.mul(a, b), -1), (a, 1)):
                if el != 0:
                    col[el - 1] = col.get(el - 1, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n - 1)])[0]


def _all_pairs_moore_h2(A):
    n = A.order
    cols = []
    for h1 in range(n):
        for h2 in range(n):
            col = {}
            for el, s in ((h1, 1), (A.mul(h2, h1), -1), (h2, 1), (0, -1)):
                col[el] = col.get(el, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n)], reduced=True)[0]


def _all_pairs_invariant_factors(G):
    n = G.order
    cols = []
    for a in range(n):
        for b in range(n):
            col = {}
            for idx, s in ((a, 1), (b, 1), (G.table[a][b], -1)):
                col[idx] = col.get(idx, 0) + s
            cols.append(col)
    return [d for d in snf_diagonal(IntMatrix.from_column_dicts(cols, n)) if d > 1]


@pytest.mark.parametrize("name", [name for name, _ in catalog_groups()] + ["A5"])
def test_generating_set_presentations_match_all_pairs(name):
    G = alternating(5) if name == "A5" else catalog_group(name)
    assert coinvariants(G) == _all_pairs_coinvariants(G)
    assert moore_h2(G) == _all_pairs_moore_h2(G)
    Q, _ = quotient_group(G, commutator_subgroup(G))
    assert abelianization(G) == _all_pairs_invariant_factors(Q)


def test_group_ring_builds_a_column_per_generator_and_element(monkeypatch):
    built = []
    from_column_dicts = IntMatrix.from_column_dicts
    monkeypatch.setattr(
        IntMatrix,
        "from_column_dicts",
        lambda cols, nrows: built.append(len(cols)) or from_column_dicts(cols, nrows),
    )
    S4 = catalog_group("S4")
    S = len(generators(S4))
    assert S == 3
    coinvariants(S4)
    moore_h2(S4)
    assert built == [S * 23, S * 24]
    built.clear()
    G = catalog_group("Z4xZ6")
    invariant_factors_of_abelian(G)
    assert built == [(len(generators(G)) + 1) * 24]
