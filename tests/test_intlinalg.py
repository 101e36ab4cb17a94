import random
from fractions import Fraction
from math import gcd

import pytest

from commclass.errors import Budget, MathInvariantError, ValidationError
from commclass.intlinalg import (
    AbelianGroupInvariants,
    IntMatrix,
    Lattice,
    _ext_gcd,
    complement,
    homology_at,
    homology_range,
    integer_kernel,
    lattice_sum,
    row_hnf,
    saturate,
    snf_diagonal,
)

rng = random.Random(0xa11ce)


def determinant(M: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination, an oracle
    independent of the Smith and Hermite forms."""
    assert M.rows == M.cols
    n = M.rows
    if n == 0:
        return 1
    A = M.to_rows()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if A[t][t] == 0:
            for i in range(t + 1, n):
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                A[i][j] = (A[i][j] * A[t][t] - A[i][t] * A[t][j]) // prev
            A[i][t] = 0
        prev = A[t][t]
    return sign * A[n - 1][n - 1]


def _find_pivot(A, m, n, t):
    """Smallest absolute nonzero entry of A[t:, t:], ties by lowest (row, col)."""
    best = None
    for i in range(t, m):
        Ai = A[i]
        for j in range(t, n):
            v = Ai[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
        if best is not None and best[0] == 1:
            return best
    return best


def _dense_smith(rows, m, n):
    """Diagonal of the Smith normal form of the dense m x n matrix rows:
    min(m, n) entries, the nonzero ones a positive divisibility chain
    followed by zeros.  The oracle of snf_diagonal's sparse elimination.

    Pivot rule: smallest absolute nonzero entry, ties broken by lowest
    (row, column) index.  Entries are cleared with single extended-gcd
    row/column mixes rather than repeated division.  Once elimination ends
    A is diagonal, and the divisibility chain is restored on that list alone
    by replacing pairs with their gcd and lcm.  Coefficient growth is
    unbounded in general: on some sparse random matrices the entries grow
    exponentially with the pivot count.
    """
    A = [row[:] for row in rows]
    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _find_pivot(A, m, n, t)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                b = A[i][t]
                if not b:
                    continue
                a = A[t][t]
                if b % a == 0:
                    q = b // a
                    Ai, At = A[i], A[t]
                    for j in range(t, n):
                        Ai[j] -= q * At[j]
                else:
                    g, x, y = _ext_gcd(a, b)
                    a1, b1 = a // g, b // g
                    Ai, At = A[i], A[t]
                    for j in range(t, n):
                        at, ai = At[j], Ai[j]
                        At[j] = x * at + y * ai
                        Ai[j] = a1 * ai - b1 * at
            # column phase: exact-division clears leave column t alone,
            # gcd mixes can refill it and shrink the pivot, so loop
            column_dirtied = False
            for j in range(t + 1, n):
                b = A[t][j]
                if not b:
                    continue
                a = A[t][t]
                if b % a == 0:
                    q = b // a
                    for row in A:
                        row[j] -= q * row[t]
                else:
                    g, x, y = _ext_gcd(a, b)
                    a1, b1 = a // g, b // g
                    for row in A:
                        rt, rj = row[t], row[j]
                        row[t] = x * rt + y * rj
                        row[j] = a1 * rj - b1 * rt
                    column_dirtied = True
            if not column_dirtied:
                break
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
        t += 1
    # A is diagonal now; replacing a pair by (gcd, lcm) keeps the invariant
    # factors, and doing so for every pair i < j makes a divisibility chain
    d = [A[i][i] for i in range(limit)]
    for i in range(t):
        for j in range(i + 1, t):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b
    return d


def random_matrix(max_dim=12, lo=-9, hi=9):
    m = rng.randrange(1, max_dim + 1)
    n = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def is_divisibility_chain(divs):
    return all(b % a == 0 for a, b in zip(divs, divs[1:]))


def test_intmatrix_basics():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.to_rows() == [[1, 2], [3, 4]]
    assert M.transpose().to_rows() == [[1, 3], [2, 4]]
    assert (M @ IntMatrix.identity(2)) == M
    assert M.times_vector([1, 0]) == (1, 3)
    assert M.times_vector([Fraction(1, 2), 0]) == (Fraction(1, 2), Fraction(3, 2))
    N = IntMatrix.from_columns([[1, 3], [2, 4]], 2)
    assert N == M
    assert IntMatrix.from_rows([[0, 0]]).is_zero()


def test_intmatrix_shape_errors():
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValidationError):
        IntMatrix.from_columns([[1, 2, 3]], 2)
    for entry in (True, 1.5):
        with pytest.raises(ValidationError, match="^entries must be ints$"):
            IntMatrix.from_rows([[entry]])


@pytest.mark.parametrize(
    "column, message",
    [
        ({0: True}, "entries must be ints"),
        ({1: 1.5}, "entries must be ints"),
        ({-1: 1}, "row index -1 out of range"),
        ({2: 1}, "row index 2 out of range"),
    ],
)
def test_from_column_dicts_refuses_bad_entries(column, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        IntMatrix.from_column_dicts([{0: 1}, column], 2)


def test_from_column_dicts_drops_zero_entries():
    M = IntMatrix.from_column_dicts([{0: 0, 1: 3}, {1: 0}, {}], 2)
    assert M.to_rows() == [[0, 0, 0], [3, 0, 0]]
    assert M.nnz == 1 and M == IntMatrix.from_rows([[0, 0, 0], [3, 0, 0]])
    assert IntMatrix.from_column_dicts([{0: 0}], 1).is_zero()


def random_unimodular(n, local):
    """A product of random elementary integer row operations on I_n."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = local.randrange(n), local.randrange(n)
        if i == j:
            U[i] = [-x for x in U[i]]
        else:
            c = local.randint(-3, 3)
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    if n > 1 and local.random() < 0.5:
        U[0], U[1] = U[1], U[0]
    return IntMatrix.from_rows(U)


def check_smith_diagonal(M, local):
    """The invariant factors of M: the dense routine's diagonal, a positive
    divisibility chain followed by zeros, unchanged by unimodular U and V on
    either side and by transposition, and |det M| for a square M."""
    divs = snf_diagonal(M)
    dense = _dense_smith(M.to_rows(), M.rows, M.cols)
    assert len(dense) == min(M.rows, M.cols)
    assert dense == divs + [0] * (len(dense) - len(divs))
    assert all(d > 0 for d in divs)
    assert is_divisibility_chain(divs)
    U, V = random_unimodular(M.rows, local), random_unimodular(M.cols, local)
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    assert snf_diagonal(U @ M @ V) == divs
    assert snf_diagonal(M.transpose()) == divs
    if M.rows == M.cols:
        prod = 1
        for d in divs:
            prod *= d
        assert abs(determinant(M)) == (prod if len(divs) == M.rows else 0)
    return divs


def test_smith_normal_form_fixture():
    M = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert check_smith_diagonal(M, random.Random(156)) == [2, 2, 156]
    # already diagonal: only the gcd/lcm chain restore changes it
    M = IntMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert check_smith_diagonal(M, random.Random(30)) == [1, 30, 30]


def test_smith_normal_form_random():
    local = random.Random(0x5a17)
    for _ in range(250):
        check_smith_diagonal(random_matrix(8, -6, 6), local)


def test_sparse_path_matches_dense():
    # the unit sweeps, then the non-unit finish on what they leave; the dense
    # routine on the whole matrix is the oracle
    def check(rows, m, n):
        M = IntMatrix.from_rows(rows) if m else IntMatrix.zero(0, n)
        dense = _dense_smith([list(r) for r in rows], m, n)
        assert len(dense) == min(m, n)
        divs = [d for d in dense if d]
        # a positive divisibility chain, then only zeros
        assert dense == divs + [0] * (len(dense) - len(divs))
        assert all(d > 0 for d in divs)
        assert is_divisibility_chain(divs)
        assert snf_diagonal(M) == divs

    for m, n in [(0, 0), (0, 4), (4, 0), (1, 1)]:
        check([[0] * n for _ in range(m)], m, n)
    for _ in range(30):
        m, n = rng.randrange(1, 76), rng.randrange(1, 76)
        rows = [[0] * n for _ in range(m)]
        for _ in range(m + n):
            rows[rng.randrange(m)][rng.randrange(n)] = rng.randint(-4, 4)
        check(rows, m, n)
    # no +-1 entry: everything goes to the non-unit finish
    rows = [[rng.choice([0, 0, 2, -3, 4, 6]) for _ in range(12)] for _ in range(9)]
    check(rows, 9, 12)
    # the unit appears only after fill-in, in a row already swept
    check([[2, 3, 0], [1, 1, 5]], 2, 3)
    assert snf_diagonal(IntMatrix.from_rows([[2, 3, 0], [1, 1, 5]])) == [1, 1]


def test_snf_diagonal_is_the_same_on_the_transpose():
    # the rows of a tall M and the columns of a wide M are set up alike, so
    # a non-square M and its transpose give the same factors for the same work
    local = random.Random(7)
    checked = 0
    for _ in range(400):
        m, n = local.randint(1, 24), local.randint(1, 24)
        if m == n:
            continue
        rows = [[0] * n for _ in range(m)]
        for _ in range(2 * (m + n)):
            rows[local.randrange(m)][local.randrange(n)] = local.choice([-1, 1, 1, 2])
        M, meters = IntMatrix.from_rows(rows), (Budget(), Budget())
        assert snf_diagonal(M, meters[0]) == snf_diagonal(M.transpose(), meters[1]), rows
        assert meters[0].spent == meters[1].spent, rows
        checked += 1
    assert checked == 381


def test_dense_tail_lies_along_the_short_side(monkeypatch):
    # the sweeps run along the short side of M, so the lines left to the
    # non-unit finish have at most min(rows, cols) live cross indices
    from commclass import intlinalg
    from commclass.catalog import catalog_group
    from commclass.simplicial import build_c

    finish = intlinalg._nonunit_pivots
    blocks = []

    def spy(rows, cols, budget):
        blocks.append((len(rows), len({j for r in rows.values() for j in r})))
        return finish(rows, cols, budget)

    monkeypatch.setattr(intlinalg, "_nonunit_pivots", spy)

    def check(M):
        blocks.clear()
        divs = snf_diagonal(M)
        assert all(n <= min(M.rows, M.cols) for _, n in blocks), (M, blocks)
        # M and its transpose share invariant factors; the dense oracle
        # runs on whichever orientation has fewer columns
        O = M.transpose() if M.cols > M.rows else M
        dense = _dense_smith(O.to_rows(), O.rows, O.cols)
        assert divs == [d for d in dense if d]
        return list(blocks)

    # the bar-model boundaries of Z3xZ3 for --max-dim 3, 64 x 512 and
    # 512 x 4096, with torsion; sweeping their columns leaves 96 and 947
    # lines on 6 and 25 cross indices
    S = build_c(catalog_group("Z3xZ3"), 4)
    assert check(S.boundary_matrix(3)) == [(96, 6)]
    assert check(S.boundary_matrix(4)) == [(947, 25)]
    local = random.Random(20261018)
    finished = 0
    for _ in range(40):
        short, long = local.randrange(1, 30), local.randrange(30, 90)
        m, n = (short, long) if local.random() < 0.5 else (long, short)
        rows = [[0] * n for _ in range(m)]
        for _ in range(2 * (m + n)):
            rows[local.randrange(m)][local.randrange(n)] = local.choice([-2, -1, 1, 1, 2, 3])
        finished += len(check(IntMatrix.from_rows(rows)))
    assert finished >= 10


def test_integer_kernel():
    M = IntMatrix.from_rows([[2, -4, 2]])
    K = integer_kernel(M)
    assert K.cols == 2
    assert (M @ K).is_zero()
    # kernel bases are saturated: their lattice equals its own saturation
    L = Lattice.from_columns(3, K.to_columns())
    assert saturate(L) == L
    for _ in range(100):
        M = random_matrix(8)
        K = integer_kernel(M)
        assert (M @ K).is_zero()
        assert K.cols == M.cols - len(snf_diagonal(M))
        L = Lattice.from_columns(M.cols, K.to_columns())
        assert saturate(L) == L


def test_lattice_jobs_use_only_the_hermite_form(monkeypatch):
    # kernels, saturation and complements come from row_hnf with a carried
    # identity block; neither snf_diagonal nor its non-unit finish runs
    from commclass import intlinalg

    def no_smith(*args):
        raise AssertionError("a lattice job called the Smith elimination")

    monkeypatch.setattr(intlinalg, "snf_diagonal", no_smith)
    monkeypatch.setattr(intlinalg, "_nonunit_pivots", no_smith)
    for _ in range(40):
        M = random_matrix(6, -4, 4)
        assert (M @ integer_kernel(M)).is_zero()
        L = saturate(Lattice.from_columns(M.rows, M.to_columns()))
        C = complement(L)
        assert L.rank + C.rank == M.rows


def test_homology_at_fixtures():
    zero_out = IntMatrix.zero(0, 3)
    d_in = IntMatrix.from_columns([[2, 0, 0]], 3)
    h = homology_at(zero_out, d_in)
    assert h == AbelianGroupInvariants(2, (2,))
    assert str(h) == "Z^2 + Z/2"
    assert homology_at(zero_out, IntMatrix.zero(3, 0)) == AbelianGroupInvariants(3, ())
    assert AbelianGroupInvariants(0, ()).is_trivial


def test_homology_at_random_oracle():
    """ker/im invariants computed two ways: homology_at on the raw pair
    versus SNF of the inclusion written in kernel coordinates."""
    for _ in range(60):
        n = rng.randrange(2, 7)
        d_out = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        )
        K = integer_kernel(d_out)
        r = K.cols
        s = rng.randrange(1, 5)
        R = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(s)] for _ in range(r)])
        d_in = K @ R
        got = homology_at(d_out, d_in)
        divs = snf_diagonal(R)
        expected = AbelianGroupInvariants(r - len(divs), tuple(d for d in divs if d > 1))
        assert got == expected


def test_homology_at_rejects_noncomplex():
    d_out = IntMatrix.from_rows([[1, 0]])
    d_in = IntMatrix.from_columns([[1, 0]], 2)
    with pytest.raises(Exception):
        homology_at(d_out, d_in)


def random_complex(top, reduced):
    """Boundaries [d_1, ..., d_{top+1}] with d_k o d_{k+1} = 0, and the
    homology they must give.  Each d_{k+1} is K R with K a saturated basis of
    ker(d_k), so H_k is Z^{K.cols} / im(R).  With reduced, d_1 is built on
    the kernel of the augmentation, so its columns sum to 0."""
    n = rng.randrange(1, 5)
    prev = IntMatrix.from_rows([[1] * n]) if reduced else IntMatrix.zero(0, n)
    boundaries, homology = [], []
    for _ in range(top + 1):
        K = integer_kernel(prev)
        s = rng.randrange(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(K.cols)]
        R = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, s)
        divs = snf_diagonal(R)
        homology.append(AbelianGroupInvariants.from_divisors(K.cols - len(divs), divs))
        prev = K @ R
        boundaries.append(prev)
    return boundaries, homology


@pytest.mark.parametrize("reduced", [False, True])
def test_homology_range_matches_homology_at_per_slot(reduced):
    for _ in range(40):
        top = rng.randrange(0, 4)
        ds, expected = random_complex(top, reduced)
        n0 = ds[0].rows
        d_0 = IntMatrix.from_rows([[1] * n0]) if reduced else IntMatrix.zero(0, n0)
        per_slot = [homology_at(d_out, d_in) for d_out, d_in in zip([d_0] + ds, ds)]
        assert homology_range(ds, reduced=reduced) == per_slot == expected


def test_homology_range_rejects_noncomplex():
    d_1 = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(ValidationError, match="non-composable"):
        homology_range([d_1, IntMatrix.zero(3, 1)])
    with pytest.raises(MathInvariantError, match="nonzero"):
        homology_range([d_1, IntMatrix.from_columns([[1, 0]], 2)])
    with pytest.raises(MathInvariantError, match="augmentation"):
        homology_range([d_1], reduced=True)
    assert homology_range([d_1]) == [AbelianGroupInvariants(0, ())]


def test_row_hnf_canonical():
    rows = [[2, 4], [4, 2]]
    hnf = row_hnf(rows, 2)
    assert hnf == row_hnf(hnf, 2)
    assert Lattice(2, tuple(map(tuple, hnf))) == Lattice.from_columns(
        2, [[2, 4], [4, 2]]
    )


def test_row_hnf_carries_the_transform():
    # columns past ncols get no pivot and follow every row operation, so
    # reducing [A | I] yields [H | U] with U unimodular and U A = H
    for _ in range(60):
        A = random_matrix(6, -5, 5)
        m, n = A.rows, A.cols
        identity = IntMatrix.identity(m).to_rows()
        reduced = row_hnf([row + e for row, e in zip(A.to_rows(), identity)], n)
        assert len(reduced) == m
        H = IntMatrix.from_rows([row[:n] for row in reduced])
        U = IntMatrix.from_rows([row[n:] for row in reduced])
        assert U @ A == H
        assert abs(determinant(U)) == 1
        r = len(snf_diagonal(A))
        assert [row[:n] for row in reduced[:r]] == row_hnf(A.to_rows(), n)
        assert all(not any(row[:n]) for row in reduced[r:])


def test_lattice_membership_and_sum():
    L = Lattice.from_columns(2, [[2, 0], [0, 3]])
    assert L.contains((4, 3))
    assert not L.contains((1, 0))
    assert not L.contains((Fraction(1, 2), 0))
    M = Lattice.from_columns(2, [[1, 0]])
    S = lattice_sum([L, M])
    assert S.contains((1, 0)) and S.contains((0, 3))
    assert not S.contains((0, 1))
    assert Lattice.full(2).is_full
    assert not Lattice.from_columns(1, [[2]]).is_full
    assert not Lattice.from_columns(2, [[1, 0]]).is_full


def test_saturate_properties():
    for _ in range(80):
        k = rng.randrange(1, 5)
        cols = [
            [rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randrange(1, 4))
        ]
        L = Lattice.from_columns(k, cols)
        S = saturate(L)
        assert S.rank == L.rank
        assert saturate(S) == S
        for row in L.basis_rows():
            assert S.contains(row)


def test_complement_unimodular():
    for _ in range(60):
        k = rng.randrange(1, 5)
        cols = [
            [rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randrange(1, 4))
        ]
        L = saturate(Lattice.from_columns(k, cols))
        C = complement(L)
        assert L.rank + C.rank == k
        square = IntMatrix.from_rows(
            [list(r) for r in L.basis_rows()] + [list(r) for r in C.basis_rows()]
        )
        assert abs(determinant(square)) == 1


def test_complement_refuses_unsaturated_lattices():
    for cols in ([[2, 0]], [[1, 1], [1, -1]], [[0, 3, 3]]):
        L = Lattice.from_columns(len(cols[0]), cols)
        with pytest.raises(ValidationError):
            complement(L)
        complement(saturate(L))


def test_nonunit_finish_mixes_rows_and_columns(monkeypatch):
    # matrices without a +-1 entry reach the non-unit finish at once; a pivot
    # that does not divide an entry of its column mixes rows by gcd, one that
    # does not divide an entry of its row mixes columns
    from commclass import intlinalg

    mixes = []
    for name in ("_mix_rows", "_mix_columns"):
        def spy(*args, _name=name, _fn=getattr(intlinalg, name)):
            mixes.append(_name)
            return _fn(*args)

        monkeypatch.setattr(intlinalg, name, spy)

    def run(rows):
        mixes.clear()
        return snf_diagonal(IntMatrix.from_rows(rows)), sorted(set(mixes))

    assert run([[2, 3], [0, 5]]) == ([1, 10], ["_mix_columns"])
    assert run([[2, 0], [3, 5]]) == ([1, 10], ["_mix_rows"])
    assert run([[4, 6], [6, 9]]) == ([1], ["_mix_columns", "_mix_rows"])
    local = random.Random(20261020)
    for rows in ([[2, 3], [0, 5]], [[4, 6], [6, 9]]):
        check_smith_diagonal(IntMatrix.from_rows(rows), local)
    counts = {"_mix_rows": 0, "_mix_columns": 0}
    for _ in range(60):
        m, n = local.randrange(1, 9), local.randrange(1, 9)
        M = IntMatrix.from_rows(
            [[local.choice([0, 0, 2, -2, 3, -3, 4, 6, -9]) for _ in range(n)] for _ in range(m)]
        )
        mixes.clear()
        check_smith_diagonal(M, local)
        for name in mixes:
            counts[name] += 1
    assert all(counts.values()), counts


def test_s4_bar_boundary_matches_the_oracle(monkeypatch):
    # d_4 of S4's Morse complex, the top boundary of homology-b2g --max-dim 3,
    # leaves 262 lines on 33 cross indices to the non-unit finish
    from commclass import intlinalg
    from commclass.catalog import catalog_group
    from commclass.simplicial import morse_complex

    finish = intlinalg._nonunit_pivots
    blocks = []

    def spy(rows, cols, budget):
        blocks.append((len(rows), len({j for r in rows.values() for j in r})))
        return finish(rows, cols, budget)

    monkeypatch.setattr(intlinalg, "_nonunit_pivots", spy)
    d = morse_complex(catalog_group("S4"), 4).boundaries[3]
    assert (d.rows, d.cols, d.nnz) == (215, 625, 2457)
    T = d.transpose()
    dense = _dense_smith(T.to_rows(), T.rows, T.cols)
    divs = snf_diagonal(d)
    assert blocks == [(262, 33)]
    assert divs == [x for x in dense if x]
    assert [x for x in divs if x > 1] == [2, 2, 2, 2, 2, 6, 12, 12, 12]
