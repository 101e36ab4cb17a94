"""One test per acceptance criterion; each prints one pass/fail line under
pytest -v, carries the criterion's own diagnostic in the assertion, and
compares its row with the pinned verify-all document, so that the counts in
the details (identities, groups, evaluations) cannot drift."""

import json
import os

import pytest

from commclass import acceptance
from commclass.errors import BudgetExceededError

with open(os.path.join(os.path.dirname(__file__), "fixtures", "verify-all.json")) as fh:
    PINNED = {row["name"]: row["value"] for row in json.load(fh)["results"]}


def check(n):
    number, name, fn = acceptance.CRITERIA[n - 1]
    assert number == n
    passed, detail = fn()
    assert passed, f"criterion {n} ({name}): {detail}"
    assert {"name": name, "passed": passed, "detail": detail} == PINNED[f"criterion-{n:02d}"]


def test_criteria_table_is_complete():
    assert [number for number, _, _ in acceptance.CRITERIA] == list(range(1, 13))
    assert len({name for _, name, _ in acceptance.CRITERIA}) == 12


def test_criterion_01_coinvariants_match_abelianization():
    check(1)


def test_criterion_02_moore_complex_middle_homology():
    check(2)


def test_criterion_03_pi2_of_connected_total_space():
    check(3)


def test_criterion_04_total_space_matches_coset_poset():
    check(4)


def test_criterion_05_abelian_groups_exactly_acyclic():
    check(5)


def test_criterion_06_commutation_action_lattice_suite():
    check(6)


def test_criterion_07_lifted_commutator_identity():
    check(7)


def test_criterion_08_bracket_equals_lattice_action():
    check(8)


def test_criterion_09_clutching_winding_suite():
    check(9)


def test_criterion_10_central_product_commuting_tuples():
    check(10)


def test_criterion_11_projection_and_commutator_maps_simplicial():
    check(11)


def test_criterion_12_almost_commuting_triple_realization():
    check(12)


def test_group_ring_criteria_charge_the_budget():
    # the largest group-ring call of each criterion, columns and pivots
    # charged to one meter: Q8oZ4's coinvariants, Q8oZ4's moore_h2, and
    # pi2-e2 over Z2xZ2 (Cayley tables, columns and pivots)
    for n, largest in ((1, 367), (2, 300), (3, 50)):
        _, _, fn = acceptance.CRITERIA[n - 1]
        with pytest.raises(BudgetExceededError, match=f"brings the total to {largest},"):
            fn(budget=largest - 1)
        assert fn(budget=largest)[0]
