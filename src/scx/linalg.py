"""Exact matrix algebra over the supported rings.

Matrices of :class:`~scx.rings.LaurentPoly` entries stored as row dicts
of their nonzero entries (the algorithms here never visit a zero, and
every matrix of the package is built from those entries by
:meth:`Matrix.from_entries`, the block builders or the algorithms),
diagonal Smith reduction with transform certificates over the Euclidean
rings (Z, the constant fields, and one-variable Laurent rings over a
field) and the invariant factors read from it, kernels, exact linear
solving, the homology of a differential from its Smith form, the gcds
of each row on the kernel of the rows above it from the pivots of one
Euclidean (Hermite-style) echelon sweep of the transpose, and over
any integral domain the fraction-field ranks and the columns that raise
them, read from the pivot columns of one division-free forward sweep to
echelon (not reduced) form, which a back pass turns into fraction-field
kernels.  One product loop, :func:`sum_of_products`, builds sum_i A_i B_i
(``A * B`` is its one pair); it and the row operations sum each entry in
one term dict by the multiply-accumulate kernel of :mod:`scx.rings`, and
wrap it once.  :func:`assemble` places disjoint blocks."""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .rings import (LaurentPoly, RingMismatchError, divide,
                    divmod_euclid, enorm, gcd, is_euclidean, kernel,
                    key_at_point, normalize_associate, normalizing_unit, one,
                    rational_terms, zero)


class LinalgError(Exception):
    pass


def _nonzero(ring, e):
    """Whether e is nonzero, once it is checked to be an entry of ring."""
    # equal rings need not be one object: identity is only the fast path
    if not isinstance(e, LaurentPoly) or (e.ring is not ring
                                          and e.ring != ring):
        raise RingMismatchError("entry from a different ring")
    return bool(e)


def _add_into(row, src, q=None):
    """row += q * src (row += src without q) on row dicts, in place, with
    cancelled sums dropped; only the entries of src are visited.  Each
    sum a + q * e is built in one term dict."""
    # q = 1 adds e itself, so that a product by 1 stays free
    mac = None if q is None or q.is_one() else kernel(q.ring)
    for j, e in src.items():
        a = row.get(j)
        if mac:
            acc = {} if a is None else dict(a.slot_terms())
            mac(acc, q, e)
            e = LaurentPoly._trusted(q.ring, acc)
        elif a is not None:
            e = a + e
        if e:
            row[j] = e
        else:
            row.pop(j, None)


class Matrix:
    """Immutable-by-convention matrix over a single ring, row i stored as
    the dict {column: nonzero entry}: no zero is ever stored, and a row
    dict is never changed once a matrix holds it, so matrices may share
    rows.  :meth:`from_entries` builds one from its nonzero entries;
    ``Matrix(ring, rows, cols=None)`` takes dense rows (for tests and
    hand-written matrices), all ``cols`` long when it is given, and
    drops their zeros.
    """

    __slots__ = ("ring", "rows", "cols", "_dicts", "_dense")

    def __init__(self, ring, data, cols=None):
        data = [list(row) for row in data]
        cols = (len(data[0]) if data else 0) if cols is None else cols
        if any(len(row) != cols for row in data):
            raise LinalgError(f"a matrix row is not {cols} entries long")
        self.ring, self.rows, self.cols = ring, len(data), cols
        self._dense = None
        self._dicts = [{j: e for j, e in enumerate(row) if _nonzero(ring, e)}
                       for row in data]

    @classmethod
    def from_entries(cls, ring, rows, cols, entries):
        """The rows x cols matrix over ``ring`` holding the (row, col,
        entry) triples ``entries`` and zero elsewhere: the inverse of
        :meth:`nonzero_entries`.  Each entry must belong to ``ring`` and
        each position to the matrix; zero entries are dropped."""
        dicts = [{} for _ in range(rows)]
        for i, j, e in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise LinalgError(f"entry at ({i}, {j}) outside a "
                                  f"{rows}x{cols} matrix")
            if _nonzero(ring, e):
                dicts[i][j] = e
        return cls._trusted(ring, dicts, cols)

    @classmethod
    def _trusted(cls, ring, dicts, cols):
        """Wrap the row dicts ``dicts`` without copying or checking them:
        for results built from checked matrices over ``ring``."""
        M = object.__new__(cls)
        M.ring, M._dicts, M.rows, M.cols = ring, dicts, len(dicts), cols
        M._dense = None
        return M

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls._trusted(ring, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, ring, n):
        return cls._trusted(ring, [{i: one(ring)} for i in range(n)], n)

    @property
    def data(self):
        """A read-only dense view (row tuples) for readers outside scx,
        built on first access; scx itself walks ``nonzero_entries``."""
        if self._dense is None:
            z = zero(self.ring)
            self._dense = tuple(tuple(row.get(j, z) for j in range(self.cols))
                                for row in self._dicts)
        return self._dense

    def nonzero_entries(self):
        """The nonzero entries as (row, col, entry), in row-major order."""
        return ((i, j, row[j]) for i, row in enumerate(self._dicts)
                for j in sorted(row))

    def __getitem__(self, ij):
        i, j = ij
        e = self._dicts[i].get(range(self.cols)[j])
        return zero(self.ring) if e is None else e

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._dicts == other._dicts)

    def is_zero(self):
        return not any(self._dicts)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._dicts):
            for j, e in row.items():
                out[j][i] = e
        return Matrix._trusted(self.ring, out, self.rows)

    def __add__(self, other):
        self._compat(other, same_shape=True)
        out = [dict(row) for row in self._dicts]
        for row, src in zip(out, other._dicts):
            _add_into(row, src)
        return Matrix._trusted(self.ring, out, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._trusted(self.ring, [{j: -e for j, e in row.items()}
                                           for row in self._dicts], self.cols)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.ring != self.ring:
                raise RingMismatchError(f"{self.ring} vs {other.ring}")
            return Matrix._trusted(
                self.ring, [{j: p for j, e in row.items() if (p := e * other)}
                            for row in self._dicts], self.cols)
        return sum_of_products([(self, other)])

    def _compat(self, other, same_shape=False):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.ring != self.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch")

    def columns_selected(self, js):
        js = [range(self.cols)[j] for j in js]
        return Matrix._trusted(self.ring, [
            {k: row[j] for k, j in enumerate(js) if j in row}
            for row in self._dicts], len(js))

    def rows_selected(self, idxs):
        return Matrix._trusted(self.ring, [self._dicts[i] for i in idxs],
                               self.cols)

    def map_entries(self, f, target_ring):
        """Apply f, a map into ``target_ring``, to every stored entry.
        Zero entries are not stored, so f must send 0 to 0: every caller
        passes one ring map built by :func:`~scx.rings.homomorphism`,
        whose memoized monomial images all the entries share."""
        return Matrix._trusted(target_ring, [
            {j: y for j, e in row.items() if _nonzero(target_ring, y := f(e))}
            for row in self._dicts], self.cols)

    def __repr__(self):
        body = "; ".join(", ".join(str(self[i, j]) for j in range(self.cols))
                         for i in range(self.rows))
        return f"<Matrix {self.rows}x{self.cols} over {self.ring.tag}: {body}>"


def sum_of_products(pairs):
    """sum_i A_i B_i over the nonempty list ``pairs`` of (A_i, B_i), of
    one ring and one product shape: the one product loop (``A * B`` is
    one pair).  Each entry is summed in one term dict by the
    :mod:`scx.rings` kernel and wrapped once; a cancelled sum is dropped."""
    if not pairs:
        raise LinalgError("no pairs were given to sum")
    A0, B0 = pairs[0]
    for A, B in pairs:
        A._compat(B)
        A0._compat(A)
        if A.cols != B.rows:
            raise LinalgError(
                f"shape mismatch {A.rows}x{A.cols} * {B.rows}x{B.cols}")
        if (A.rows, B.cols) != (A0.rows, B0.cols):
            raise LinalgError(f"a {A.rows}x{B.cols} product does not add "
                              f"to a {A0.rows}x{B0.cols} sum")
    ring, sums = A0.ring, [None] * A0.rows
    mac = kernel(ring)
    for A, B in pairs:
        right = B._dicts
        for i, arow in enumerate(A._dicts):
            if arow:
                row = sums[i] = sums[i] or {}
                for k, a in arow.items():
                    for j, b in right[k].items():
                        acc = row.get(j)
                        if acc is None:
                            row[j] = acc = {}
                        mac(acc, a, b)
    return Matrix._trusted(ring, [
        {j: LaurentPoly._trusted(ring, acc) for j, acc in row.items() if acc}
        if row else {} for row in sums], B0.cols)


def assemble(ring, rows, cols, pieces):
    """The rows x cols matrix over ``ring`` that is zero but for the
    (row, col, block) pieces, each block placed with its top left entry
    at (row, col).  The pieces must be disjoint: a piece that writes an
    entry an earlier piece set raises :class:`LinalgError`."""
    dicts = [{} for _ in range(rows)]
    for r, c, M in pieces:
        if M.ring != ring:
            raise RingMismatchError(f"block over {M.ring}, not {ring}")
        if r < 0 or c < 0 or r + M.rows > rows or c + M.cols > cols:
            raise LinalgError(f"{M.rows}x{M.cols} block at ({r}, {c}) "
                              f"leaves a {rows}x{cols} matrix")
        for dst, row in zip(dicts[r:r + M.rows], M._dicts):
            if row:
                size = len(dst) + len(row)
                dst.update({c + j: e for j, e in row.items()} if c else row)
                if len(dst) != size:
                    raise LinalgError(f"{M.rows}x{M.cols} block at ({r}, "
                                      f"{c}) overlaps an earlier piece")
    return Matrix._trusted(ring, dicts, cols)


def kron(A, B):
    """The Kronecker product: entry (i*B.rows + k, j*B.cols + l) is
    A[i, j] * B[k, l].  Only pairs of nonzero entries are multiplied."""
    A._compat(B)
    dicts = [{} for _ in range(A.rows * B.rows)]
    nonzero_b = list(B.nonzero_entries())
    for i, j, a in A.nonzero_entries():
        for k, l, b in nonzero_b:
            dicts[i * B.rows + k][j * B.cols + l] = a * b
    return Matrix._trusted(A.ring, dicts, A.cols * B.cols)


class SmithResult(namedtuple("SmithResult", "D U V")):
    """U * M * V == D with U, V invertible and D diagonal: each diagonal
    entry a normalized associate, zeros last.  The diagonal need not be a
    divisibility chain; :meth:`invariant_factors` makes one from it."""

    __slots__ = ()

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    def rank(self):
        return sum(1 for d in self.diagonal() if d)

    def invariant_factors(self):
        """The invariant factors d_1 | d_2 | ... of M as normalized
        associates, from one pass over the nonzero diagonal of D: a pair
        d_i, d_j (i < j) where d_i does not divide d_j becomes (gcd, lcm),
        which keeps the product.  Values only: no certificate carries M
        to the chain."""
        d = [e for e in self.diagonal() if e]
        for i in range(len(d)):
            if d[i].is_unit():
                continue
            for j in range(i + 1, len(d)):
                if d[j] != d[i] and divide(d[j], d[i]) is None:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, normalize_associate(d[j]
                                                        * divide(d[i], g))
        return d


class HomologySummary(namedtuple("HomologySummary", "free_rank torsion")):
    """The free rank of a homology module and its torsion factors."""

    __slots__ = ()


def smith_normal_form(M):
    """Diagonalize M by invertible row/column operations.

    Returns a :class:`SmithResult` whose diagonal entries are normalized
    associates, zeros last; the divisibility chain is not enforced here
    but read by :meth:`SmithResult.invariant_factors`.
    """
    ring = M.ring
    if not is_euclidean(ring):
        raise LinalgError(
            f"{ring} is not Euclidean; Smith reduction is refused there")
    m, n = M.rows, M.cols
    A = [dict(row) for row in M._dicts]
    U = [{i: one(ring)} for i in range(m)]
    V = [{i: one(ring)} for i in range(n)]

    def col_swap(j, t):
        for r in A + V:
            if j in r or t in r:
                a, b = r.pop(j, None), r.pop(t, None)
                r.update((k, e) for k, e in ((t, a), (j, b)) if e is not None)

    for t in range(min(m, n)):
        # a pivot of minimal Euclidean norm, the first in (row, col) order
        best = min(((enorm(e), i, j) for i in range(t, m)
                    for j, e in A[i].items() if j >= t), default=None)
        if best is None:
            break
        _, bi, bj = best
        A[bi], A[t], U[bi], U[t] = A[t], A[bi], U[t], U[bi]
        if bj != t:
            col_swap(bj, t)
        while True:
            # clear column t below the pivot, then row t beyond it, in
            # ascending order; a nonzero remainder is swapped in as the
            # smaller pivot and the sweep starts over
            i = next((i for i in range(t + 1, m) if t in A[i]), None)
            if i is not None:
                q, r = divmod_euclid(A[i][t], A[t][t])
                _add_into(A[i], A[t], -q)
                _add_into(U[i], U[t], -q)
                if r:
                    A[i], A[t], U[i], U[t] = A[t], A[i], U[t], U[i]
                continue
            j = min((j for j in A[t] if j > t), default=None)
            if j is None:
                break
            q, r = divmod_euclid(A[t][j], A[t][t])
            # col_j -= q*col_t
            for row in A + V:
                if t in row:
                    _add_into(row, {j: row[t]}, -q)
            if r:
                col_swap(j, t)

    for k in range(min(m, n)):
        if k in A[k]:
            u = normalizing_unit(A[k][k])
            if not u.is_one():
                # as in normalize_associate: integral coefficients as ints
                A[k], U[k] = ({j: rational_terms(u * e)
                               for j, e in X.items()} for X in (A[k], U[k]))

    return SmithResult(Matrix._trusted(ring, A, n),
                       Matrix._trusted(ring, U, m),
                       Matrix._trusted(ring, V, n))


def kernel_basis(M):
    """Columns form a basis of ker M as a module (Euclidean rings)."""
    snf = smith_normal_form(M)
    r = snf.rank()
    free = [j for j in range(M.cols)
            if j >= min(M.rows, M.cols) or not snf.D[j, j]]
    if len(free) != M.cols - r:
        raise LinalgError("Smith form rank disagrees with its free columns")
    return snf.V.columns_selected(free)


def kernel_gcds(M):
    """Per row c of M over a Euclidean ring, the gcd (up to units) of the
    values of row c on the kernel of the rows above it, or None when they
    are all zero.  One Euclidean sweep brings the rows of M^T, one per
    unknown, to echelon form column by column by invertible row
    operations.  When column c is reached, the rows below the rank are
    zero in the columns before c, and since the operations are
    invertible they form a basis of the kernel of the rows of M above c;
    their entries in column c are row c's values on that basis.  The
    holder of least Euclidean norm reduces the others until one row alone
    holds the column, and that row's entry is their gcd."""
    if not is_euclidean(M.ring):
        raise LinalgError(f"{M.ring} is not Euclidean; no gcds there")
    A, r, out = M.transpose()._dicts, 0, []
    for c in range(M.rows):
        held = [i for i in range(r, len(A)) if c in A[i]]
        while len(held) > 1:
            p = min(held, key=lambda i: enorm(A[i][c]))
            for i in held:
                if i != p:
                    _add_into(A[i], A[p], -divmod_euclid(A[i][c], A[p][c])[0])
            held = [i for i in held if c in A[i]]
        if not held:
            out.append(None)
            continue
        A[r], A[held[0]] = A[held[0]], A[r]
        out.append(A[r][c])
        r += 1
    return out


def solve_matrix(M, B):
    """Solve M X = B column-wise; None when any column is unsolvable."""
    snf = smith_normal_form(M)
    diag = snf.diagonal()
    # D Y = U B entry by entry, then X = V Y
    Y = [{} for _ in range(M.cols)]
    for i, j, c in (snf.U * B).nonzero_entries():
        q = divide(c, diag[i]) if i < len(diag) and diag[i] else None
        if q is None:
            return None
        Y[i][j] = q
    return snf.V * Matrix._trusted(M.ring, Y, B.cols)


def homology(D):
    """Homology of the square differential D (D * D == 0) on R^n.

    free_rank is n - 2 * rank(D); torsion lists the non-unit invariant
    factors of D.
    """
    if D.rows != D.cols:
        raise LinalgError(f"a {D.rows}x{D.cols} differential is not square")
    if not (D * D).is_zero():
        raise LinalgError("D * D != 0")
    # ker D is a direct summand of R^n holding im D, so the torsion of
    # ker/im is that of coker D, and rank(ker) = n - rank(D)
    factors = smith_normal_form(D).invariant_factors()
    return HomologySummary(D.cols - 2 * len(factors),
                           [d for d in factors if not d.is_unit()])


def det(M):
    """Determinant by fraction-free (Bareiss) elimination; exact divisions."""
    if M.rows != M.cols:
        raise LinalgError("determinant of a non-square matrix")
    n = M.rows
    ring = M.ring
    if n == 0:
        return one(ring)
    A = [[M[i, j] for j in range(n)] for i in range(n)]
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


def _clear(A, pivot, c, rows):
    """Clear column c from each row A[i], i in ``rows``, that holds it: the
    row becomes p*row - q*pivot (p = pivot[c], q = A[i][c]), walking only
    the nonzero entries of both; an entry p*e - q*f is built in one term
    dict."""
    p = pivot[c]
    ring, mac = p.ring, kernel(p.ring)
    for i in [i for i in rows if c in A[i]]:
        row, q = A[i], -A[i][c]
        out = {j: q * f for j, f in pivot.items() if j not in row}
        for j, e in row.items():
            if j not in pivot:
                out[j] = p * e
                continue
            acc = {}
            mac(acc, p, e)
            mac(acc, q, pivot[j])
            if acc:
                out[j] = LaurentPoly._trusted(ring, acc)
        A[i] = out


def _eliminate(M):
    """Division-free forward elimination; returns the echelon row dicts
    and the (row, col) pivots.  Each column pivots on its candidate with
    the fewest terms, and only the rows below the pivot are cleared."""
    A, m = list(M._dicts), M.rows
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        if r == m:
            break
        cands = [i for i in range(r, m) if c in A[i]]
        if not cands:
            continue
        best = min(cands, key=lambda i: len(A[i][c]))
        A[r], A[best] = A[best], A[r]
        _clear(A, A[r], c, range(r + 1, m))
        pivots.append((r, c))
    return A, pivots


def _rank_at_point(M):
    """The rank over F_p, p = 2^61 - 1, of the image of M under the ring
    map U^(1/N) -> 5, each T -> 3 and x -> 7 from a characteristic-0
    ring, or None when a Q denominator is divisible by p.  Each row is
    reduced by the pivot rows, keyed by their leading column, until it
    is zero or leads in a new column."""
    p, images, pivots = 2 ** 61 - 1, {}, {}
    for src in M._dicts:
        row = {}
        for j, e in src.items():
            s = 0
            for key, c in e.slot_terms():
                if c.__class__ is not int:
                    if not c.denominator % p:
                        return None
                    c = c.numerator * pow(c.denominator, -1, p)
                m = images.get(key)
                if m is None:
                    m = images[key] = key_at_point(key, p)
                s += c * m
            if s := s % p:
                row[j] = s
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inverse = pow(row[c], -1, p)
                pivots[c] = {j: a * inverse % p for j, a in row.items()}
                break
            q = row[c]
            for j, a in pivot.items():
                if b := (row.get(j, 0) - q * a) % p:
                    row[j] = b
                else:
                    del row[j]
    return len(pivots)


def rank(M, ceiling=None):
    """Rank over the fraction field of the ring, for every supported ring.

    A ``ceiling`` the caller has proved for that rank lets a ring of
    characteristic 0 skip the sweep: a ring map can only lower a rank, so
    when the rank at one point of F_p (:func:`_rank_at_point`) reaches
    the ceiling, it is the rank.  ``sharp`` passes (size - 1) // 2 for
    dtilde and for its cone D, bounds that hold over any field.  dtilde
    squares to zero on 2n + 1 generators, so dim H(dtilde) is odd.
    Untwisted, H(D) is the kernel plus the cokernel of the nilpotent
    2 chi_* on H(dtilde); twisted, D splits over an algebraic closure
    into dtilde +- l*chi, l^2 = 2w != 0, each of square zero (dtilde chi
    + chi dtilde = 0, chi^2 = 0) on 2n + 1 generators.  Either way dim
    H(D) >= 2, so rank D <= (N - 2)/2 on N = 4n + 2 generators."""
    if (ceiling is not None and not M.ring.char_two
            and _rank_at_point(M) == ceiling):
        return ceiling
    return len(_eliminate(M)[1])


def pivot_columns(M):
    """The columns where the forward sweep of :func:`_eliminate` pivots.
    Row operations keep the linear relations among the columns, and the
    sweep pivots in column order, so column c is one exactly when it is
    outside the span of the columns before it over the fraction field:
    when it raises the rank of the column prefix.  Only the pivots are
    read: the echelon rows need no back pass."""
    return {c for _r, c in _eliminate(M)[1]}


def raising_column(M, head):
    """The first column c at which the rank of the first c + 1 columns of
    M exceeds that of its first ``head`` rows over the fraction field, or
    None when there is none.  One sweep of the head gives its echelon
    rows, which with the rows past the head span the row space of M; so
    the later rows are reduced by the head's pivot rows, column by
    column, and c is the first column that one of them still holds and
    no head row pivots."""
    A, pivots = _eliminate(M.rows_selected(range(head)))
    held = {c: A[r] for r, c in pivots}
    rest = M._dicts[head:]
    for c in range(M.cols):
        if c in held:
            _clear(rest, held[c], c, range(len(rest)))
        elif any(c in row for row in rest):
            return c
    return None


# kept because bench tracing wraps it by name
rank_fraction_field = rank


# no src function calls it: it is the tests' Gamma oracle, and bench
# tracing wraps it by name
def kernel_fraction_field(M):
    """Columns spanning ker M over Frac(ring), with entries cleared into
    the ring; works over any supported integral domain.  A back pass
    clears the rows above each pivot of the echelon form, which leaves
    each pivot row with its pivot d and entries in free columns only.
    The column of free column f holds the product P of the pivots d of
    the rows with an entry a at f, and -a * (P / d) at each one's pivot."""
    A, pivots = _eliminate(M)
    for r, c in pivots:
        _clear(A, A[r], c, range(r))
    free = sorted(set(range(M.cols)) - {c for _, c in pivots})
    dicts = [{} for _ in range(M.cols)]
    for j, f in enumerate(free):
        rows = [(r, c) for r, c in pivots if f in A[r]]
        product = prod((A[r][c] for r, c in rows), start=one(M.ring))
        dicts[f][j] = product
        for r, c in rows:
            dicts[c][j] = -(A[r][f] * divide(product, A[r][c]))
    return Matrix._trusted(M.ring, dicts, len(free))
