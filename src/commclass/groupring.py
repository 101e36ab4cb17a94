"""Coinvariants of the augmentation ideal of a group ring, and the degree-2
homology of the three-term complex Z[A x A] -> Z[A] -> Z whose middle
differential is the augmentation.

For a finite group A the coinvariants of the augmentation ideal under the
translation action recover the abelianization of A; the three-term complex
recovers the same invariants and serves as the chain-level model for the
second homotopy group of the connected total space built over a group with
finite abelian fundamental group.
"""

from __future__ import annotations

from .errors import DEFAULT_BUDGET, MathInvariantError, check_budget
from .groups import FiniteGroup
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_range


def coinvariants(A: FiniteGroup, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Invariants of W / <w - aw>, where W is the augmentation ideal of the
    integral group ring of A and a ranges over A.

    W has basis {a - 1 : a != 1}.  For basis elements w = b - 1 the relation
    w - aw reads (b-1) - (ab-1) + (a-1), so the relation matrix has one
    column per pair (a, b) with those three signed entries; the |A|^2
    columns are charged against the budget before they are built.
    """
    n = A.order
    check_budget(n * n, budget, "coinvariants: relation columns over G x G")
    basis = list(range(1, n))
    pos = {a: i for i, a in enumerate(basis)}
    cols = []
    for a in range(n):
        for b in basis:
            col = {}
            for el, s in ((b, 1), (A.mul(a, b), -1), (a, 1)):
                if el != 0:
                    i = pos[el]
                    col[i] = col.get(i, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n - 1)])[0]


def moore_h2(A: FiniteGroup, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Homology at the middle of Z[A x A] -> Z[A] -> Z.

    The right map is the augmentation, so this is the reduced H_0 of the
    one-boundary complex Z[A x A] -> Z[A].  The left map sends the generator
    (h1, h2) to [h1] - [h2*h1] + [h2] - [1]; every pair of elements is a
    generator, and the |A|^2 generators are charged against the budget
    before they are built.  The middle homology equals the coinvariants of
    the augmentation ideal, hence the abelianization of A.
    """
    n = A.order
    check_budget(n * n, budget, "moore-h2: relation columns over G x G")
    cols = []
    for h1 in range(n):
        for h2 in range(n):
            col = {}
            for el, s in ((h1, 1), (A.mul(h2, h1), -1), (h2, 1), (0, -1)):
                col[el] = col.get(el, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n)], reduced=True)[0]


def pi2_e2_connected(invariant_factors, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Second-homotopy invariants of the connected total-space model over a
    compact connected group with the given finite abelian fundamental group.

    Builds the abelian group with the given invariant factors, runs moore_h2
    on it, and checks the result equals the input group; a mismatch means an
    implementation bug, not a property of the input.
    """
    # validates the factors: each >= 2, each dividing the next
    expected = AbelianGroupInvariants(0, tuple(invariant_factors))
    # Z[A x A] has |A|^2 generators; charge them before building any group
    order = 1
    for d in expected.torsion:
        order *= d
        check_budget(order * order, budget, "pi2-e2: generators of Z[A x A]")
    from .catalog import cyclic
    from .groups import direct_product

    A = cyclic(1)
    for d in expected.torsion:
        A = direct_product(A, cyclic(d))
    result = moore_h2(A, budget=budget)
    if result != expected:
        raise MathInvariantError(
            f"middle homology {result} does not match the fundamental group {expected}"
        )
    return result
