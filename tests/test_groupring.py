import pytest

from commclass import catalog
from commclass.catalog import catalog_group, catalog_groups, cyclic
from commclass.errors import BudgetExceededError, ValidationError
from commclass.groups import abelianization, direct_product
from commclass.groupring import coinvariants, moore_h2, pi2_e2_connected
from commclass.intlinalg import AbelianGroupInvariants

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
    S4 = catalog_group("S4")
    for fn in (coinvariants, moore_h2):
        with pytest.raises(BudgetExceededError, match="576"):
            fn(S4, budget=575)
        assert fn(S4, budget=576) == Z(0, (2,))
    built = []
    monkeypatch.setattr(catalog, "cyclic", lambda n: built.append(n))
    with pytest.raises(BudgetExceededError, match="160000"):
        pi2_e2_connected([400], budget=159999)
    assert built == []
    monkeypatch.undo()
    assert pi2_e2_connected([2, 4], budget=64) == Z(0, (2, 4))
