"""Exact integer linear algebra: invariant factors, Hermite form, integer
kernels, lattices in Z^k, and homology of integer chain complexes.

All arithmetic uses Python's arbitrary-precision integers.  Matrices are
stored sparsely (one dict per row) so that boundary matrices of large chain
complexes stay affordable.  Each job has one eliminator.  Invariant factors
of every matrix come from one sparse elimination along the short side of
the matrix (its rows, or its columns when it is wider than tall): greedy
unit pivots first, then pivots of least absolute value with extended-gcd
mixes on the lines left without a +-1 entry.  Lattice jobs (bases, sums,
kernels, saturation, complements) use the row Hermite form alone.  One
reduction of [B | I], with the given vectors as the columns of B, carries
a unimodular U: its rows that vanish on B span the vectors orthogonal to
the given ones (an integer kernel), and the lattice orthogonal to its
pivot rows is a complement.  Saturation is the orthogonal of the
orthogonal, two such reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DEFAULT_BUDGET, MathInvariantError, ValidationError, meter


class IntMatrix:
    """Integer matrix with explicit dimensions and sparse row storage."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, data):
        """The trusted constructor: data holds one checked dict per row,
        mapping column indices in range(cols) to nonzero ints.  Outside
        input comes in through the checked builders below."""
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        self.rows, self.cols, self._data = rows, cols, data

    @classmethod
    def from_rows(cls, rows_list):
        """Build from dense rows, checking each entry and dropping zeros."""
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = []
        for row in rows_list:
            if len(row) != cols:
                raise ValidationError("ragged rows")
            d = {}
            for j, v in enumerate(row):
                if v:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValidationError("entries must be ints")
                    d[j] = v
            data.append(d)
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, cols_list, nrows):
        if any(len(col) != nrows for col in cols_list):
            raise ValidationError("column length does not match nrows")
        return cls.from_column_dicts([dict(enumerate(col)) for col in cols_list], nrows)

    @classmethod
    def from_column_dicts(cls, col_dicts, nrows):
        """Build from sparse columns: col_dicts[j] maps row index to entry.
        Checks each entry as it places it, dropping zeros."""
        data = [{} for _ in range(nrows)]
        for j, col in enumerate(col_dicts):
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise ValidationError(f"row index {i} out of range")
                if v:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValidationError("entries must be ints")
                    data[i][j] = v
        return cls(nrows, len(col_dicts), data)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    def to_rows(self):
        return [[self._data[i].get(j, 0) for j in range(self.cols)] for i in range(self.rows)]

    def to_columns(self):
        return [[self._data[i].get(j, 0) for i in range(self.rows)] for j in range(self.cols)]

    def column_dicts(self):
        cols = [dict() for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def transpose(self):
        return IntMatrix(self.cols, self.rows, self.column_dicts())

    @property
    def nnz(self):
        return sum(len(r) for r in self._data)

    def is_zero(self):
        return all(not r for r in self._data)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out, odata = [], other._data
        for row in self._data:
            acc = {}
            for k, v in row.items():
                for j, w in odata[k].items():
                    s = acc.get(j, 0) + v * w
                    if s:
                        acc[j] = s
                    elif j in acc:
                        del acc[j]
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def times_vector(self, vec):
        """Matrix-vector product; the vector may hold ints or Fractions."""
        if len(vec) != self.cols:
            raise ValidationError("vector length does not match cols")
        return tuple(sum(v * vec[j] for j, v in row.items()) for row in self._data)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self):
        if self.rows * self.cols <= 64:
            return f"IntMatrix({self.to_rows()!r})"
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# sparse elimination for invariant factors


def _ext_gcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _clear_column(rows, cols, prow, j, lines):
    """Cancel column j of the given rows, which prow[j] divides, by
    multiples of prow; the caller keeps cols[j]."""
    p = prow[j]
    for i2 in lines:
        r2 = rows[i2]
        q = r2.pop(j) // p
        for j2, pv in prow.items():
            if j2 == j:
                continue
            new = r2.get(j2, 0) - q * pv
            if new:
                if j2 not in r2:
                    cols[j2].add(i2)
                r2[j2] = new
            elif j2 in r2:
                del r2[j2]
                cols[j2].discard(i2)
        if not r2:
            del rows[i2]


def _mix_rows(rows, cols, i, i2, j, budget):
    """Replace rows i and i2 by the unimodular mix that leaves
    gcd(rows[i][j], rows[i2][j]) at (i, j) and 0 at (i2, j)."""
    r, r2 = rows[i], rows[i2]
    budget.charge(len(r) + len(r2), "elimination: gcd mix of rows")
    g, x, y = _ext_gcd(r[j], r2[j])
    a, b = r[j] // g, r2[j] // g
    for k in r.keys() | r2.keys():
        u, w = r.get(k, 0), r2.get(k, 0)
        for line, row, v in ((i, r, x * u + y * w), (i2, r2, a * w - b * u)):
            if v:
                if k not in row:
                    cols[k].add(line)
                row[k] = v
            elif k in row:
                del row[k]
                cols[k].discard(line)
    if not r2:
        del rows[i2]


def _mix_columns(rows, cols, i, j, j2, budget):
    """Replace columns j and j2 by the unimodular mix that leaves
    gcd(rows[i][j], rows[i][j2]) at (i, j) and 0 at (i, j2); column j
    holds row i alone, so the other rows of column j2 fill column j."""
    budget.charge(len(cols[j]) + len(cols[j2]), "elimination: gcd mix of columns")
    r = rows[i]
    g, _, y = _ext_gcd(r[j], r.pop(j2))
    a = r[j] // g
    r[j] = g
    cols[j2].discard(i)
    for i2 in cols[j2]:
        r2 = rows[i2]
        r2[j] = y * r2[j2]
        r2[j2] *= a
        cols[j].add(i2)


def _nonunit_pivots(rows, cols, budget):
    """|pivot| of each pivot that diagonalises rows (line -> {cross index:
    entry}; cols, the transpose index, is kept in step), consuming both.
    Each pivot is an entry of least |value|, ties broken by the Markowitz
    cost (len(row) - 1)(len(col) - 1), then by line order.  Its column is
    cleared by row operations, then its row by column operations: the
    column holds the pivot alone, so an entry the pivot divides is dropped,
    and one it does not divide is mixed in by gcd, which refills the
    column.  Each clearing of the column is charged its Markowitz cost."""
    low = {i: min(map(abs, r.values())) for i, r in rows.items()}
    diagonal = []
    while rows:
        a = min(low.values())
        best = None
        for i, m in low.items():
            if m == a:
                n = len(rows[i]) - 1
                for j, v in rows[i].items():
                    if v == a or v == -a:
                        cost = n * (len(cols[j]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, i, j)
        _, i, j = best
        touched = set()
        while True:
            budget.charge((len(rows[i]) - 1) * (len(cols[j]) - 1), "elimination: non-unit pivot")
            # a mix leaves a pivot that divides the one before, so the rows
            # it divided stay divisible and are cleared after every mix
            lines = [i2 for i2 in cols[j] if i2 != i]
            touched.update(lines)
            for i2 in lines:
                if rows[i2][j] % rows[i][j]:
                    _mix_rows(rows, cols, i, i2, j, budget)
            _clear_column(rows, cols, rows[i], j, [i2 for i2 in cols[j] if i2 != i])
            cols[j] = {i}
            r = rows[i]
            j2 = next((j2 for j2, b in r.items() if b % r[j]), None)
            if j2 is None:
                break
            touched.update(cols[j2])
            _mix_columns(rows, cols, i, j, j2, budget)
        r = rows.pop(i)
        del low[i]
        for j2 in r:
            cols[j2].discard(i)
        del cols[j]
        diagonal.append(abs(r[j]))
        for i2 in touched:
            if i2 in rows:
                low[i2] = min(map(abs, rows[i2].values()))
            else:
                low.pop(i2, None)
    return diagonal


def snf_diagonal(M: IntMatrix, budget=DEFAULT_BUDGET):
    """Nonzero invariant factors of M (the nonzero diagonal of its SNF).

    Greedy unit-pivot elimination (Dumas-Saunders-Villard): sweep the lines
    from shortest to longest and pivot each on its +-1 entry in the
    sparsest cross line, the first such, found in one scan; _clear_column
    then cancels the rest of its column.
    Each pivot is a unimodular equivalence splitting off diag(1).  Fill-in
    can create units in lines already swept, so sweeps repeat until one
    finds no pivot; the lines left without a +-1 entry are finished on the
    same sparse rows by _nonunit_pivots, and the divisibility chain is
    restored on its pivots above 1 by gcd/lcm replacements.

    The swept lines are the short side of M: its rows, unless M is wider
    than tall, in which case they are its columns.  M and its transpose
    have the same invariant factors, and sweeping the short lines fills
    in far less; what is left then has at most min(rows, cols) cross
    indices.  One set-up serves both sides: the swept lines as dicts, the
    cross index as the sets of the other side's lines.  Each pivot is
    charged the (len(row) - 1)(len(col) - 1) entries it updates, and each
    gcd mix the entries of the two lines it rewrites, before the work.
    """
    budget = meter(budget)
    # rows: swept line -> {cross index: entry}; cols: cross index -> lines
    wide = M.cols > M.rows
    cols = {j: set(r) for j, r in enumerate(M._data if wide else M.column_dicts()) if r}
    rows = {i: r for i, r in enumerate(M.column_dicts() if wide else map(dict, M._data)) if r}

    ones = 0
    pivoted = True
    while pivoted:
        pivoted = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            prow = rows.get(i)
            if prow is None:
                continue
            j = None
            for j2, x in prow.items():
                if (x == 1 or x == -1) and (j is None or len(cols[j2]) < least):
                    j, least = j2, len(cols[j2])
            if j is None:
                continue
            budget.charge((len(prow) - 1) * (least - 1), "elimination: unit pivot")
            del rows[i]
            for j2 in prow:
                cols[j2].discard(i)
            _clear_column(rows, cols, prow, j, cols.pop(j))
            ones += 1
            pivoted = True

    if not rows:
        return [1] * ones
    # the pivots above 1 are a diagonal; replacing a pair by (gcd, lcm)
    # keeps the invariant factors, and doing so for every pair i < j makes
    # a divisibility chain
    pivots = _nonunit_pivots(rows, cols, budget)
    d = [p for p in pivots if p > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b
    return [1] * (ones + len(pivots) - len(d)) + d


# ---------------------------------------------------------------------------
# Hermite form and lattices


def row_hnf(rows_list, ncols):
    """Canonical row Hermite normal form; returns the nonzero rows.

    Echelon with positive pivots in the first ncols columns; entries above
    each pivot lie in [0, pivot).  The pivot rows come first and are a
    canonical basis of the row lattice.  Columns past ncols get no pivot;
    they are carried along every row operation, so for rows [A | I] the
    carried block of the result is a unimodular U with U A in Hermite form,
    and its rows after the pivot rows (zero on A) span the left kernel of A.
    """
    work = [list(r) for r in rows_list if any(r)]
    m = len(work)
    r = 0
    for c in range(ncols):
        # gather a pivot at position (r, c)
        while True:
            nz = [i for i in range(r, m) if work[i][c]]
            if not nz:
                break
            if len(nz) == 1 and (r in nz):
                break
            piv = min(nz, key=lambda i: (abs(work[i][c]), i))
            if piv != r:
                work[r], work[piv] = work[piv], work[r]
            p = work[r][c]
            done = True
            for i in range(r + 1, m):
                if work[i][c]:
                    q = work[i][c] // p
                    if q:
                        wi, wr = work[i], work[r]
                        for j in range(c, len(wr)):
                            wi[j] -= q * wr[j]
                    if work[i][c]:
                        done = False
            if done:
                break
        if r < m and work[r][c]:
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            p = work[r][c]
            for i in range(r):
                q = work[i][c] // p
                if q:
                    wi, wr = work[i], work[r]
                    for j in range(c, len(wr)):
                        wi[j] -= q * wr[j]
            r += 1
        if r == m:
            break
    return work[:r] + [row for row in work[r:] if any(row)]


def _carried_blocks(vectors, k):
    """Reduce [B | I_k] by row_hnf on B's columns, B the k x n matrix whose
    columns are the n given vectors of Z^k.  The carried block becomes a
    unimodular U with U B in Hermite form.  Returns (top, bottom): the rows
    of U at the pivot rows, and the rows of U that vanish on B.  The bottom
    rows span the vectors orthogonal to every given vector; being rows of a
    unimodular matrix, they span a saturated lattice."""
    n = len(vectors)
    reduced = row_hnf(
        [[v[i] for v in vectors] + [int(i == j) for j in range(k)] for i in range(k)], n
    )
    r = sum(1 for row in reduced if any(row[:n]))
    return [row[n:] for row in reduced[:r]], [row[n:] for row in reduced[r:]]


def _orthogonal(vectors, k) -> Lattice:
    """The (saturated) lattice of the x in Z^k orthogonal to every given vector."""
    return Lattice(k, row_hnf(_carried_blocks(vectors, k)[1], k))


def integer_kernel(M: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : M x = 0} as columns: the vectors orthogonal
    to the rows of M, from one carried reduction; the basis is saturated."""
    return IntMatrix.from_columns(_carried_blocks(M.to_rows(), M.cols)[1], M.cols)


class Lattice:
    """Sublattice of Z^k stored by a canonical Hermite basis.

    Generators may be given as columns; internally the basis is kept as
    HNF rows so equality of lattices is equality of representations.
    """

    __slots__ = ("ambient", "_rows")

    def __init__(self, ambient, hnf_rows):
        self.ambient = ambient
        self._rows = tuple(tuple(r) for r in hnf_rows)

    @classmethod
    def from_columns(cls, ambient, columns):
        for c in columns:
            if len(c) != ambient:
                raise ValidationError("generator length does not match ambient rank")
            for v in c:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValidationError("lattice generators must be integer vectors")
        return cls(ambient, row_hnf([list(c) for c in columns], ambient))

    @classmethod
    def full(cls, ambient):
        return cls.from_columns(ambient, [[1 if i == j else 0 for i in range(ambient)] for j in range(ambient)])

    @property
    def rank(self):
        return len(self._rows)

    def basis_rows(self):
        return [list(r) for r in self._rows]

    @property
    def is_full(self):
        return self.rank == self.ambient and all(
            next(v for v in row if v) == 1 for row in self._rows
        )

    def contains(self, vec) -> bool:
        """Exact membership; accepts int or Fraction coordinates."""
        if len(vec) != self.ambient:
            raise ValidationError("vector length does not match ambient rank")
        v = list(vec)
        for x in v:
            if x != int(x):
                return False
        v = [int(x) for x in v]
        for row in self._rows:
            c = next(i for i, x in enumerate(row) if x)
            if v[c]:
                q, rem = divmod(v[c], row[c])
                if rem:
                    return False
                for j in range(c, self.ambient):
                    v[j] -= q * row[j]
        return not any(v)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient == other.ambient and self._rows == other._rows

    def __repr__(self):
        return f"Lattice(ambient={self.ambient}, basis_rows={[list(r) for r in self._rows]})"


def lattice_sum(lattices) -> Lattice:
    """Smallest lattice containing all the given ones (common ambient rank)."""
    lattices = list(lattices)
    if not lattices:
        raise ValidationError("lattice_sum of an empty family is undefined")
    ambient = lattices[0].ambient
    rows = []
    for L in lattices:
        if L.ambient != ambient:
            raise ValidationError("lattice_sum requires a common ambient rank")
        rows.extend(L.basis_rows())
    return Lattice(ambient, row_hnf(rows, ambient))


def saturate(L: Lattice) -> Lattice:
    """Saturation (L tensor Q) intersected with Z^k: the vectors orthogonal
    to those orthogonal to L, from two carried reductions."""
    return _orthogonal(_carried_blocks(L.basis_rows(), L.ambient)[1], L.ambient)


def complement(L: Lattice) -> Lattice:
    """A primitive complement: a lattice C with L (+) C = Z^k.

    Requires L primitive (saturated); raises ValidationError otherwise.
    One reduction of [B | I] for the basis columns B of L gives U B = [H; 0]
    with U unimodular.  The bottom rows of U span the vectors orthogonal to
    L, so the lattice orthogonal to them is the saturation of L, which must
    be L itself.  Then H is unimodular, so L is spanned by the first r
    columns of U^-1, and C, spanned by the others, is the lattice orthogonal
    to the top r rows of U.  The complement is not unique; this is the one
    the Hermite reduction picks.
    """
    top, bottom = _carried_blocks(L.basis_rows(), L.ambient)
    if _orthogonal(bottom, L.ambient) != L:
        raise ValidationError("complement requires a primitive (saturated) lattice")
    return _orthogonal(top, L.ambient)


# ---------------------------------------------------------------------------
# abelian group invariants and homology


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Finitely generated abelian group: free rank plus invariant factors
    (each >= 2, each dividing the next)."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValidationError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValidationError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValidationError("invariant factors must form a divisibility chain")
            prev = d

    @classmethod
    def from_divisors(cls, free_rank, divisors):
        return cls(free_rank, tuple(d for d in divisors if d > 1))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_range(boundaries, reduced: bool = False, budget=DEFAULT_BUDGET) -> list:
    """Homology H_0..H_top of the complex with boundaries [d_1, ..., d_{top+1}],
    d_k: C_k -> C_{k-1}, reducing each boundary once.

    ker(d_k) is a saturated summand of C_k, so the torsion of H_k is that of
    C_k / im(d_{k+1}) (the invariant factors of d_{k+1} above 1) and its free
    rank is rank C_k - rank(d_k) - rank(d_{k+1}), with d_0 = 0.  With
    reduced=True, d_0 is the augmentation C_0 -> Z instead.

    The complex is checked first: adjacent boundaries compose, with
    d_k o d_{k+1} = 0, and with reduced=True the augmentation vanishes on
    im(d_1) (every column of d_1 sums to zero).  Non-composable shapes raise
    ValidationError, a nonzero composite or augmentation MathInvariantError.
    """
    budget = meter(budget)
    for k, (d_out, d_in) in enumerate(zip(boundaries, boundaries[1:]), start=1):
        if d_out.cols != d_in.rows:
            raise ValidationError(
                f"non-composable dimensions: d_{k} is {d_out.rows}x{d_out.cols}, "
                f"d_{k + 1} is {d_in.rows}x{d_in.cols}"
            )
        if d_in.cols and d_out.rows and not (d_out @ d_in).is_zero():
            raise MathInvariantError(f"composite d_{k} o d_{k + 1} is nonzero")
    if reduced and boundaries:
        sums = [0] * boundaries[0].cols
        for row in boundaries[0]._data:
            for j, v in row.items():
                sums[j] += v
        if any(sums):
            raise MathInvariantError("augmentation o d_1 is nonzero")
    rank_out = 1 if reduced and boundaries and boundaries[0].rows else 0
    out = []
    for d_in in boundaries:
        div_in = snf_diagonal(d_in, budget)
        free = d_in.rows - rank_out - len(div_in)
        if free < 0:
            raise MathInvariantError("negative free rank; matrices are inconsistent")
        out.append(AbelianGroupInvariants.from_divisors(free, div_in))
        rank_out = len(div_in)
    return out


def homology_at(d_out: IntMatrix, d_in: IntMatrix) -> AbelianGroupInvariants:
    """Homology ker(d_out)/im(d_in) at the middle slot of
    Z^m --d_in--> Z^n --d_out--> Z^p, with d_out o d_in = 0."""
    return homology_range([d_out, d_in])[1]
