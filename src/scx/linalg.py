"""Exact matrix algebra over the supported rings.

Dense matrices of :class:`~scx.rings.LaurentPoly` entries, Smith normal
form with transform certificates over the Euclidean rings (Z, the
constant fields, and one-variable Laurent rings over a field), kernels,
exact linear solving, homology of composable pairs, and fraction-field
rank/kernels over any of the integral domains.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rings
from .rings import (LaurentPoly, RingMismatchError, divide,
                    divmod_euclid, enorm, is_euclidean, normalizing_unit,
                    one, zero)


class LinalgError(Exception):
    pass


class Matrix:
    """Immutable-by-convention dense matrix over a single ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data, cols=None):
        self.ring = ring
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix rows")
            for e in row:
                # equal rings need not be one object, so identity is only
                # the fast path before the dataclass comparison
                if not isinstance(e, LaurentPoly) or (
                        e.ring is not ring and e.ring != ring):
                    raise RingMismatchError("entry from a different ring")

    @classmethod
    def _trusted(cls, ring, data, cols):
        """Wrap the list of row lists ``data`` without copying or checking
        it: for results built from checked matrices over ``ring``."""
        M = object.__new__(cls)
        M.ring, M.data, M.rows, M.cols = ring, data, len(data), cols
        return M

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = zero(ring)
        return cls(ring, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, ring, n):
        z, o = zero(ring), one(ring)
        return cls(ring, [[o if i == j else z for j in range(n)]
                          for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.data == other.data)

    def is_zero(self):
        return all(e.is_zero() for row in self.data for e in row)

    def transpose(self):
        return Matrix._trusted(self.ring, [[row[j] for row in self.data]
                                           for j in range(self.cols)],
                               self.rows)

    def __add__(self, other):
        self._compat(other, same_shape=True)
        # a + 0 is a: zero entries of other cost no ring addition
        return Matrix._trusted(self.ring,
                               [[a + b if b else a for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.data, other.data)],
                               self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # zero entries are kept as they are rather than negated into copies
        return Matrix._trusted(self.ring, [[-e if e else e for e in row]
                                           for row in self.data], self.cols)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            # the entry products check that other lies in the ring
            return Matrix._trusted(self.ring,
                                   [[e * other for e in row]
                                    for row in self.data], self.cols)
        self._compat(other)
        if self.cols != other.rows:
            raise LinalgError(
                f"shape mismatch {self.rows}x{self.cols} * "
                f"{other.rows}x{other.cols}")
        # Index each row of the right factor by its nonzero entries once;
        # every output entry then receives its terms in ascending k.
        z = zero(self.ring)
        nonzero_rows = [[(j, b) for j, b in enumerate(row) if b]
                        for row in other.data]
        out = []
        for arow in self.data:
            row = [z] * other.cols
            for a, brow in zip(arow, nonzero_rows):
                if a:
                    for j, b in brow:
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix._trusted(self.ring, out, other.cols)

    def _compat(self, other, same_shape=False):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.ring != self.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch")

    def hstack(self, other):
        self._compat(other)
        if self.rows != other.rows:
            raise LinalgError("row count mismatch")
        return Matrix(self.ring,
                      [r1 + r2 for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols + other.cols)

    def vstack(self, other):
        self._compat(other)
        if self.cols != other.cols:
            raise LinalgError("column count mismatch")
        return Matrix(self.ring, self.data + other.data, cols=self.cols)

    def columns_selected(self, js):
        return Matrix(self.ring,
                      [[self.data[i][j] for j in js] for i in range(self.rows)],
                      cols=len(js))

    def rows_selected(self, idxs):
        return Matrix(self.ring, [self.data[i] for i in idxs], cols=self.cols)

    def map_entries(self, f, target_ring=None):
        ring = target_ring if target_ring is not None else self.ring
        return Matrix(ring, [[f(e) for e in row] for row in self.data],
                      cols=self.cols)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.data)
        return f"<Matrix {self.rows}x{self.cols} over {self.ring.tag}: {body}>"


def assemble(ring, rows, cols, pieces):
    """The rows x cols matrix over ``ring`` that is zero but for the
    (row, col, block) pieces, each block placed with its top left entry
    at (row, col); a later piece overwrites an earlier one."""
    data = [[zero(ring)] * cols for _ in range(rows)]
    for r, c, M in pieces:
        if M.ring != ring:
            raise RingMismatchError(f"block over {M.ring}, not {ring}")
        if r < 0 or c < 0 or r + M.rows > rows or c + M.cols > cols:
            raise LinalgError(f"{M.rows}x{M.cols} block at ({r}, {c}) "
                              f"leaves a {rows}x{cols} matrix")
        for i, row in enumerate(M.data):
            data[r + i][c:c + M.cols] = row
    return Matrix._trusted(ring, data, cols)


def kron(A, B):
    """The Kronecker product: entry (i*B.rows + k, j*B.cols + l) is
    A[i, j] * B[k, l].  Only pairs of nonzero entries are multiplied, and
    a factor 1 or -1 is applied as a copy or a negation."""
    A._compat(B)
    o = one(A.ring)
    mo = -o

    def nonzero(M):
        # (row, col, entry, sign): sign is 1 or -1 when the entry is
        # that unit, else 0
        return [(i, j, e, 1 if e == o else -1 if e == mo else 0)
                for i, row in enumerate(M.data) for j, e in enumerate(row)
                if e]

    z = zero(A.ring)
    data = [[z] * (A.cols * B.cols) for _ in range(A.rows * B.rows)]
    nonzero_b = nonzero(B)
    for i, j, a, sa in nonzero(A):
        for k, l, b, sb in nonzero_b:
            p = (a if sb > 0 else -a) if sb else (
                (b if sa > 0 else -b) if sa else a * b)
            data[i * B.rows + k][j * B.cols + l] = p
    return Matrix._trusted(A.ring, data, A.cols * B.cols)


@dataclass
class SmithResult:
    """U * M * V == D with U, V invertible and a diagonal divisibility chain."""
    D: Matrix
    U: Matrix
    V: Matrix

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    def rank(self):
        return sum(1 for d in self.diagonal() if d)


@dataclass
class HomologySummary:
    free_rank: int
    torsion: list


def _require_euclidean(ring):
    if not is_euclidean(ring):
        raise LinalgError(
            f"{ring} is not Euclidean; Smith reduction is refused there")


def smith_normal_form(M):
    """Diagonalize M by invertible row/column operations.

    Returns a :class:`SmithResult` whose diagonal entries are canonical
    associates forming a divisibility chain, zeros last.
    """
    _require_euclidean(M.ring)
    ring = M.ring
    m, n = M.rows, M.cols
    A = [row[:] for row in M.data]
    U = [row[:] for row in Matrix.identity(ring, m).data]
    V = [row[:] for row in Matrix.identity(ring, n).data]

    # x - q*0 == x, so the updates skip the zero entries of row or column t
    def row_axpy(i, q, t):
        # row_i -= q*row_t
        for j in range(n):
            if A[t][j]:
                A[i][j] = A[i][j] - q * A[t][j]
        for j in range(m):
            if U[t][j]:
                U[i][j] = U[i][j] - q * U[t][j]

    def col_axpy(j, q, t):
        for i in range(m):
            if A[i][t]:
                A[i][j] = A[i][j] - A[i][t] * q
        for i in range(n):
            if V[i][t]:
                V[i][j] = V[i][j] - V[i][t] * q

    def row_swap(i, t):
        A[i], A[t] = A[t], A[i]
        U[i], U[t] = U[t], U[i]

    def col_swap(j, t):
        for r in A:
            r[j], r[t] = r[t], r[j]
        for r in V:
            r[j], r[t] = r[t], r[j]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal Euclidean norm
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j]:
                    nm = enorm(A[i][j])
                    if best is None or nm < best[0]:
                        best = (nm, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi, t)
        if bj != t:
            col_swap(bj, t)
        while True:
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q, r = divmod_euclid(A[i][t], A[t][t])
                    row_axpy(i, q, t)
                    if r:
                        row_swap(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q, r = divmod_euclid(A[t][j], A[t][t])
                    col_axpy(j, q, t)
                    if r:
                        col_swap(j, t)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the remaining submatrix for the chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] and divide(A[i][j], A[t][t]) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                A[t][j] = A[t][j] + A[offender][j]
            for j in range(m):
                U[t][j] = U[t][j] + U[offender][j]
        t += 1

    for k in range(min(m, n)):
        if A[k][k]:
            u = normalizing_unit(A[k][k])
            if not u.is_one():
                for j in range(n):
                    A[k][j] = u * A[k][j]
                for j in range(m):
                    U[k][j] = u * U[k][j]

    return SmithResult(Matrix(ring, A, cols=n), Matrix(ring, U, cols=m),
                       Matrix(ring, V, cols=n))


def kernel_basis(M):
    """Columns form a basis of ker M as a module (Euclidean rings)."""
    snf = smith_normal_form(M)
    r = snf.rank()
    free = [j for j in range(M.cols)
            if j >= min(M.rows, M.cols) or not snf.D[j, j]]
    if len(free) != M.cols - r:
        raise LinalgError("Smith form rank disagrees with its free columns")
    return snf.V.columns_selected(free)


def solve(M, b):
    """One solution of M x = b, or None when the system is unsolvable."""
    if b.rows != M.rows or b.cols != 1:
        raise LinalgError("right-hand side shape mismatch")
    return solve_matrix(M, b)


def solve_matrix(M, B):
    """Solve M X = B column-wise; None when any column is unsolvable."""
    snf = smith_normal_form(M)
    C = snf.U * B
    ring = M.ring
    cols = []
    for j in range(B.cols):
        y = [zero(ring)] * M.cols
        for i in range(M.rows):
            if i < min(M.rows, M.cols) and snf.D[i, i]:
                q = divide(C[i, j], snf.D[i, i])
                if q is None:
                    return None
                y[i] = q
            elif C[i, j]:
                return None
        cols.append(y)
    X = Matrix(ring, [[cols[j][i] for j in range(B.cols)]
                      for i in range(M.cols)])
    return snf.V * X


def homology(d_in, d_out):
    """Homology at the middle of  R^m --d_in--> R^n --d_out--> R^p.

    free_rank is nullity(d_out) - rank(d_in); torsion lists the non-unit
    invariant factors of d_in written in a kernel basis of d_out.
    """
    if d_in.ring != d_out.ring:
        raise RingMismatchError("maps over different rings")
    if d_out.cols != d_in.rows:
        raise LinalgError("maps are not composable")
    if not (d_out * d_in).is_zero():
        raise LinalgError("d_out * d_in != 0")
    K = kernel_basis(d_out)
    X = solve_matrix(K, d_in)
    if X is None:
        raise LinalgError("image does not lie in the kernel")
    snf = smith_normal_form(X)
    r = snf.rank()
    torsion = []
    for d in snf.diagonal():
        if d and not d.is_unit():
            torsion.append(rings.normalize_associate(d))
    return HomologySummary(K.cols - r, torsion)


def det(M):
    """Determinant by fraction-free (Bareiss) elimination; exact divisions."""
    if M.rows != M.cols:
        raise LinalgError("determinant of a non-square matrix")
    n = M.rows
    ring = M.ring
    if n == 0:
        return one(ring)
    A = [row[:] for row in M.data]
    sign = 1
    prev = one(ring)
    for k in range(n - 1):
        if not A[k][k]:
            pivot = next((i for i in range(k + 1, n) if A[i][k]), None)
            if pivot is None:
                return zero(ring)
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[k][k] * A[i][j] - A[i][k] * A[k][j]
                q = divide(num, prev)
                if q is None:
                    raise LinalgError("Bareiss division failed")
                A[i][j] = q
            A[i][k] = zero(ring)
        prev = A[k][k]
    d = A[n - 1][n - 1]
    return -d if sign < 0 else d


def _eliminate(M):
    """Division-free Gauss-Jordan elimination; returns the reduced rows and
    the (row, col) pivots.  Each column pivots on its candidate with the
    fewest terms, and every other row becomes p*row - q*pivot_row, walking
    only the pivot row's nonzero entries and leaving zeros unmultiplied."""
    A = [row[:] for row in M.data]
    m = M.rows
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        if r == m:
            break
        cands = [i for i in range(r, m) if A[i][c]]
        if not cands:
            continue
        best = min(cands, key=lambda i: len(A[i][c].terms_dict()))
        A[r], A[best] = A[best], A[r]
        p = A[r][c]
        support = [(j, e) for j, e in enumerate(A[r]) if e]
        for i in range(m):
            q = A[i][c]
            if i == r or not q:
                continue
            row = [p * e if e else e for e in A[i]]
            for j, e in support:
                row[j] = row[j] - q * e
            A[i] = row
        pivots.append((r, c))
    return A, pivots


def rank(M):
    """Rank over the fraction field of the ring, for every supported ring."""
    return len(_eliminate(M)[1])


rank_fraction_field = rank


def kernel_fraction_field(M):
    """Columns spanning ker M over Frac(ring), with entries cleared into
    the ring.  Works over any supported integral domain."""
    ring = M.ring
    A, pivots = _eliminate(M)
    free = sorted(set(range(M.cols)) - {c for _, c in pivots})
    # head[k] * tail[k + 1] is the product of every pivot but the k-th
    diag = [A[i][c] for i, c in pivots]
    head, tail = [one(ring)], [one(ring)]
    for d, e in zip(diag, reversed(diag)):
        head.append(head[-1] * d)
        tail.insert(0, e * tail[0])
    others = [h * t for h, t in zip(head, tail[1:])]
    rows = [[zero(ring)] * len(free) for _ in range(M.cols)]
    for j, f in enumerate(free):
        rows[f][j] = head[-1]
        for (i, c), other in zip(pivots, others):
            if A[i][f]:
                rows[c][j] = -(A[i][f] * other)
    return Matrix(ring, rows, cols=len(free))
