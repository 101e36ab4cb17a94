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

from .errors import DEFAULT_BUDGET, MathInvariantError, meter
from .groups import FiniteGroup, generators
from .intlinalg import AbelianGroupInvariants, IntMatrix, homology_range


def coinvariants(A: FiniteGroup, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Invariants of W / <w - aw>, where W is the augmentation ideal of the
    integral group ring of A and a ranges over A.

    W has basis {b - 1 : b != 1}.  For w = b - 1 the relation w - aw reads
    (b-1) - (ab-1) + (a-1), one column per pair (a, b).  Only a in a
    generating set S is kept: with phi(a) = a - 1 these columns give
    phi(sb) = phi(s) + phi(b), and every a is a positive word in S, so
    induction on its length gives phi(ab) = phi(a) + phi(b) and the image is
    unchanged.  The |S|·(|A|-1) columns are charged before any is built.
    """
    n, S, budget = A.order, generators(A), meter(budget)
    budget.charge(len(S) * (n - 1), "coinvariants: relation columns over S x G")
    cols = []
    for a in S:
        for b in range(1, n):
            col = {}
            for el, s in ((b, 1), (A.mul(a, b), -1), (a, 1)):
                if el != 0:
                    col[el - 1] = col.get(el - 1, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n - 1)], budget=budget)[0]


def moore_h2(A: FiniteGroup, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Homology at the middle of Z[A x A] -> Z[A] -> Z.

    The right map is the augmentation, so this is the reduced H_0 of the
    one-boundary complex Z[A x A] -> Z[A].  The left map sends the generator
    (h1, h2) to phi(h1) + phi(h2) - phi(h2*h1) with phi(h) = [h] - [1]; as
    in coinvariants, the columns with h2 in a generating set S span the same
    image, and the |S|·|A| columns are charged before any is built.  The
    middle homology equals the coinvariants of the augmentation ideal, hence
    the abelianization of A.
    """
    n, S, budget = A.order, generators(A), meter(budget)
    budget.charge(len(S) * n, "moore-h2: relation columns over S x G")
    cols = []
    for h2 in S:
        for h1 in range(n):
            col = {}
            for el, s in ((h1, 1), (A.mul(h2, h1), -1), (h2, 1), (0, -1)):
                col[el] = col.get(el, 0) + s
            cols.append(col)
    return homology_range([IntMatrix.from_column_dicts(cols, n)], reduced=True, budget=budget)[0]


def pi2_e2_connected(invariant_factors, budget: int = DEFAULT_BUDGET) -> AbelianGroupInvariants:
    """Second-homotopy invariants of the connected total-space model over a
    compact connected group with the given finite abelian fundamental group.

    Builds the abelian group with the given invariant factors, runs moore_h2
    on it, and checks the result equals the input group; a mismatch means an
    implementation bug, not a property of the input.  The Cayley table of
    each product direct_product builds on the way to A is charged first.
    """
    # validates the factors: each >= 2, each dividing the next
    expected = AbelianGroupInvariants(0, tuple(invariant_factors))
    order, budget = 1, meter(budget)
    for d in expected.torsion:
        order *= d
        budget.charge(order * order, "pi2-e2: Cayley table of A")
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
