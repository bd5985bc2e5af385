"""Matrix products and v-powers, Smith normal form with certificates,
invariant factors, kernels, solving, homology."""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from scx import cli
from scx import equivariant as E
from scx import knots
from scx import linalg as L
from scx import rings as R
from scx import scomplex as S

import helpers


def zm(rows, cols=None):
    return helpers.int_matrix(R.Z, rows, cols)


def test_snf_unit_diagonal_over_laurent():
    t = R.var(R.F2T, "T")
    M = L.Matrix(R.F2T, [[R.one(R.F2T), R.zero(R.F2T)],
                         [R.zero(R.F2T), t]])
    s = L.smith_normal_form(M)
    assert s.U * M * s.V == s.D
    # T is a unit, so the normal form is the identity
    assert all(d.is_one() for d in s.diagonal())


def test_snf_integer_example():
    M = zm([[2, 4], [6, 8]])
    s = L.smith_normal_form(M)
    assert s.U * M * s.V == s.D
    assert [str(d) for d in s.diagonal()] == ["2", "4"]
    assert str(L.det(M)) == "-8"
    assert str(L.det(s.D)) in ("8", "-8")
    assert str(L.det(s.U)) in ("1", "-1")
    assert str(L.det(s.V)) in ("1", "-1")


def test_snf_irreducible_stays():
    t = R.var(R.F2T, "T")
    M = L.Matrix(R.F2T, [[t + R.one(R.F2T)]])
    s = L.smith_normal_form(M)
    assert str(s.D[0, 0]) == "T + 1"


def _coefficient_types(*polys):
    return {type(c) for p in polys for c in p.terms_dict().values()}


def test_snf_normalizes_qt_pivots_with_int_coefficients():
    # the normalizing unit 1/2 of the pivots 2T + 4 and 2 scales rows of
    # D and U through the int-restoring step of normalize_associate
    t, one = R.var(R.QT, "T"), R.one(R.QT)
    half = R.divide(one, 2 * one)
    s = L.smith_normal_form(L.Matrix(R.QT, [[2 * t + 4 * one]]))
    assert (s.D[0, 0], s.U[0, 0]) == (t + 2 * one, half)
    assert _coefficient_types(s.D[0, 0]) == {int}
    M = L.Matrix(R.QT, [[t + one], [2 * t + 4 * one]])
    s = L.smith_normal_form(M)
    assert s.U * M * s.V == s.D
    # the remainder 2 becomes the pivot, and U's row 0 is (-2, 1) / 2
    assert [s.D[0, 0], s.U[0, 0], s.U[0, 1]] == [one, -one, half]
    assert _coefficient_types(s.D[0, 0], s.U[0, 0]) == {int}


def test_snf_refused_on_two_variable_rings():
    M = L.Matrix(R.S_BN, [[R.var(R.S_BN, "T1")]])
    with pytest.raises(L.LinalgError):
        L.smith_normal_form(M)
    assert L.rank(M) == 1  # fraction-field fallback still works


def test_kernel_examples():
    K = L.kernel_basis(zm([[1, -1]]))
    assert K.cols == 1 and K[0, 0] == K[1, 0] and K[0, 0]
    assert L.kernel_basis(zm([[0, 0], [0, 0]])).cols == 2
    t = R.var(R.QT, "T")
    assert L.kernel_basis(L.Matrix(R.QT, [[t ** 2 - t ** -2]])).cols == 0


def _sweep_input(rng, ring):
    """At most 8 rows, each zero, a combination of the rows above, random,
    or random times a non-unit more often than not; the first row is
    zero in about a third of the draws."""
    n = rng.randint(1, 7)
    rows = [[R.zero(ring)] * n] if rng.random() < 0.3 else []
    while len(rows) < rng.randint(1, 8):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([R.zero(ring)] * n)
        elif kind == 1 and rows:
            coeffs = [helpers.random_poly(rng, ring, allow_zero=True)
                      for _ in rows]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)),
                             R.zero(ring)) for j in range(n)])
        else:
            f = helpers.random_poly(rng, ring) if kind == 3 else R.one(ring)
            rows.append([f * helpers.random_poly(rng, ring, allow_zero=True)
                         * helpers.random_poly(rng, ring) for _ in range(n)])
    return L.Matrix(ring, rows, cols=n)


@pytest.mark.parametrize("ring", [R.Z, R.F2T, R.F4T, R.QT],
                         ids=lambda r: r.tag)
def test_kernel_gcds_are_the_gcds_on_smith_form_kernels(ring):
    # entry c is the gcd of row c on a kernel basis of the rows above it,
    # here from the Smith form, or None when that row is zero there
    rng = random.Random(3434)
    seen = set()
    for _ in range(40):
        M = _sweep_input(rng, ring)
        gcds = L.kernel_gcds(M)
        assert len(gcds) == M.rows
        for c, g in enumerate(gcds):
            row = (M.rows_selected([c])
                   * L.kernel_basis(M.rows_selected(range(c))))
            values = [e for *_, e in row.nonzero_entries()]
            want = None
            for e in values:
                want = R.normalize_associate(e if want is None
                                             else R.gcd(want, e))
            assert (g if g is None else R.normalize_associate(g)) == want
            seen.add("none" if g is None else "unit" if g.is_unit()
                     else "proper")
    assert seen == {"none", "unit", "proper"}


def test_kernel_gcds_are_refused_off_the_euclidean_rings():
    with pytest.raises(L.LinalgError):
        L.kernel_gcds(helpers.int_matrix(R.ZT, [[1, 2]]))


def test_solve_examples():
    assert str(L.solve_matrix(zm([[2]]), zm([[4]]))[0, 0]) == "2"
    assert L.solve_matrix(zm([[2]]), zm([[3]])) is None
    t = R.var(R.QT, "T")
    p = t ** 2 - t ** -2
    s = L.solve_matrix(L.Matrix(R.QT, [[p]]), L.Matrix(R.QT, [[p * p]]))
    assert s[0, 0] == p


def test_homology_examples():
    H = L.homology(L.Matrix.zeros(R.Z, 3, 3))
    assert H.free_rank == 3 and H.torsion == []
    # Z --2--> Z: no free part, torsion Z/2
    H2 = L.homology(zm([[0, 0], [2, 0]]))
    assert H2.free_rank == 0 and [str(x) for x in H2.torsion] == ["2"]
    assert L.homology(L.Matrix.zeros(R.Z, 0, 0)).free_rank == 0


def test_homology_rejects_noncomposable():
    with pytest.raises(L.LinalgError, match="not square"):
        L.homology(zm([[1], [1]]))
    with pytest.raises(L.LinalgError, match="D \\* D != 0"):
        L.homology(zm([[1]]))


def test_snf_certificates_randomized():
    rng = random.Random(404)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = zm([[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)])
        s = L.smith_normal_form(M)
        assert s.U * M * s.V == s.D
        diag = s.invariant_factors()
        for a, b in zip(diag, diag[1:]):
            assert R.divide(b, a) is not None
        # off-diagonal must vanish
        for i in range(s.D.rows):
            for j in range(s.D.cols):
                if i != j:
                    assert s.D[i, j].is_zero()
        # rank over the fraction field agrees with the diagonal count
        assert L.rank_fraction_field(M) == len(diag)


def test_snf_certificates_randomized_laurent():
    rng = random.Random(505)
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = L.Matrix(R.F2T, [[helpers.random_poly(rng, R.F2T,
                                                  allow_zero=True)
                              for _ in range(n)] for _ in range(m)])
        s = L.smith_normal_form(M)
        assert s.U * M * s.V == s.D
        diag = s.invariant_factors()
        for a, b in zip(diag, diag[1:]):
            assert R.divide(b, a) is not None
        # Smith form stays the oracle for the elimination behind rank
        assert L.rank(M) == s.rank()


def test_homology_matches_integer_oracle():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        d_in = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        # D = [[0, 0], [d_in, 0]] on Z^m + Z^n
        D = zm([[0] * (m + n)] * m + [row + [0] * n for row in d_in])
        H = L.homology(D)
        diag = helpers.naive_integer_diagonal(d_in) if m else []
        rank = len(diag)
        torsion = sorted(d for d in diag if d > 1)
        assert H.free_rank == m + n - 2 * rank
        assert sorted(int(str(t)) for t in H.torsion) == torsion


def _random_matrix(rng, ring, m, n):
    """Random entries; or a product through a random inner size, whose
    invariant factors are more often not units; or a diagonal matrix,
    whose Smith diagonal need not be a divisibility chain."""
    def draw(r, c):
        return L.Matrix(ring, [[helpers.random_poly(rng, ring, allow_zero=True)
                                for _ in range(c)] for _ in range(r)], cols=c)
    kind = rng.randrange(3)
    if kind == 0:
        return draw(m, n)
    if kind == 1:
        k = rng.randint(1, 4)
        return draw(m, k) * draw(k, n)
    # over Z small integers, elsewhere products of two random polynomials
    diagonal = [R.from_int(ring, rng.randint(-12, 12)) if ring == R.Z
                else helpers.random_poly(rng, ring, allow_zero=True)
                * helpers.random_poly(rng, ring) for _ in range(min(m, n))]
    return L.assemble(ring, m, n, [(i, i, L.Matrix(ring, [[d]]))
                                   for i, d in enumerate(diagonal)])


def test_invariant_factors_are_the_determinantal_divisors():
    # d_1 * ... * d_k is, up to units, the gcd of the k x k minors
    rng = random.Random(808)
    for ring in (R.Z, R.F2T, R.QT):
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = _random_matrix(rng, ring, m, n)
            factors = L.smith_normal_form(M).invariant_factors()
            product = R.one(ring)
            for k in range(1, min(m, n) + 1):
                minors = R.zero(ring)
                for rows in itertools.combinations(range(m), k):
                    sub = M.rows_selected(rows)
                    for cols in itertools.combinations(range(n), k):
                        minors = R.gcd(minors,
                                       L.det(sub.columns_selected(cols)))
                if k > len(factors):
                    assert minors.is_zero()
                    continue
                product = product * factors[k - 1]
                assert minors == R.normalize_associate(product)


def _homology_in_kernel_coordinates(d_in, d_out):
    """d_in written in a kernel basis of d_out, and the invariant factors
    of that matrix: homology's route before it read d_in alone."""
    K = L.kernel_basis(d_out)
    X = L.solve_matrix(K, d_in)
    factors = L.smith_normal_form(X).invariant_factors()
    return K.cols - len(factors), [d for d in factors if not d.is_unit()]


def test_homology_matches_the_kernel_coordinate_route():
    rng = random.Random(909)
    for ring in (R.Z, R.F2T, R.QT):
        for _ in range(30):
            p, n, m = rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 4)
            d_out = _random_matrix(rng, ring, p, n)
            K = L.kernel_basis(d_out)
            d_in = K * _random_matrix(rng, ring, K.cols, m)
            # D = [[0, 0, 0], [d_in, 0, 0], [0, d_out, 0]] on
            # R^m + R^n + R^p
            D = L.assemble(ring, m + n + p, m + n + p,
                           [(m, 0, d_in), (m + n, m, d_out)])
            H = L.homology(D)
            assert (H.free_rank, H.torsion) \
                == _homology_in_kernel_coordinates(D, D)


def test_kernel_fraction_field_spans():
    rng = random.Random(707)
    for ring in (R.S_BN, R.universal(2), R.ZT, R.QT, R.F2T):
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            M = L.Matrix(ring, [[helpers.random_poly(rng, ring,
                                                     allow_zero=True)
                                 for _ in range(n)] for _ in range(m)])
            K = L.kernel_fraction_field(M)
            assert (M * K).is_zero()
            assert K.cols == n - L.rank_fraction_field(M)
            # a free column is one that does not raise the rank of the
            # columns before it; each kernel column owns one free column
            free = [c for c in range(n)
                    if L.rank(M.columns_selected(range(c + 1)))
                    == L.rank(M.columns_selected(range(c)))]
            assert len(free) == K.cols
            for j in range(K.cols):
                assert [bool(K[f, j]) for f in free] \
                    == [j2 == j for j2 in range(K.cols)]


def _prefix_ranks(M):
    """The rank of every column prefix of M, 0 and M.cols included."""
    return [L.rank(M.columns_selected(range(c))) for c in range(M.cols + 1)]


def test_pivot_and_raising_columns_are_read_from_the_prefix_ranks():
    rng = random.Random(1818)
    ran_out = 0
    for ring in (R.Z, R.ZT, R.F2T, R.QT, R.universal(3)):
        for _ in range(40):
            m, n = rng.randint(0, 4), rng.randint(0, 7)
            cols = []
            for j in range(n):
                if j and rng.random() < 0.3:
                    # a multiple of an earlier column, which never pivots
                    s = helpers.random_poly(rng, ring)
                    cols.append([s * e for e in rng.choice(cols)])
                else:
                    cols.append([helpers.random_poly(rng, ring,
                                                     allow_zero=True)
                                 for _ in range(m)])
            M = L.Matrix(ring, [[col[i] for col in cols]
                                for i in range(m)], cols=n)
            ranks = _prefix_ranks(M)
            # a pivot column is one that raises the rank of the prefix
            assert L.pivot_columns(M) == {c for c in range(n)
                                          if ranks[c + 1] > ranks[c]}
            # the first column at which M outranks each head of its rows
            for head in range(m + 1):
                below = _prefix_ranks(M.rows_selected(range(head)))
                assert L.raising_column(M, head) == next(
                    (c for c in range(n) if ranks[c + 1] > below[c + 1]),
                    None)
            # the rows run out before the last column
            ran_out += 0 < m == ranks[-1] and ranks.index(m) < n
    assert ran_out >= 20
    # one row: elimination stops after column 0
    assert L.pivot_columns(zm([[2, 1, 0, 3]])) == {0}
    assert L.pivot_columns(zm([[0, 1], [0, 2]])) == {1}
    assert L.pivot_columns(L.Matrix.zeros(R.Z, 3, 0)) == set()
    assert L.pivot_columns(L.Matrix.zeros(R.Z, 0, 2)) == set()
    # a later row raises the rank only where it leaves the head's span
    assert L.raising_column(zm([[0, 1], [0, 2]]), 1) is None
    assert L.raising_column(zm([[0, 1], [3, 2]]), 1) == 0
    assert L.raising_column(zm([[1, 1, 0], [2, 2, 5]]), 1) == 2
    assert L.raising_column(L.Matrix.zeros(R.Z, 0, 2), 0) is None


def test_raising_column_stops_at_the_first_raise(monkeypatch):
    # the row past the head holds column 0, which no head row pivots, so
    # nothing is cleared after the head's sweep
    events, eliminate, clear = [], L._eliminate, L._clear

    def swept(M):
        out = eliminate(M)
        events.append("sweep")
        return out

    def cleared(*args):
        events.append("clear")
        return clear(*args)

    monkeypatch.setattr(L, "_eliminate", swept)
    monkeypatch.setattr(L, "_clear", cleared)
    M = zm([[0, 1, 2, 0], [0, 3, 0, 1], [5, 7, 1, 1]])
    assert L.raising_column(M, 2) == 0
    assert events[-1] == "sweep" and "clear" in events
    # the head alone pivots at column 1, so the later row is cleared there
    del events[:]
    assert L.raising_column(zm([[0, 1, 2], [0, 3, 1]]), 1) == 2
    assert events[-2:] == ["sweep", "clear"]


def test_fraction_field_elimination_work_on_a_sparse_cone(monkeypatch):
    """The twisted cone of trefoil^3 over Q[T^+-1] is 54x54 with 94
    nonzero entries; elimination that multiplies zeros, or that picks
    large pivots, does tens of thousands of products here."""
    T = knots.fixture("trefoil")
    T3 = S.tensor(S.tensor(T, T), T)
    C = S.base_change_complex(
        T3, S.standard_assignment(T3.ring, R.QT, U="1"), R.QT)
    _gens, D = S.sharp_complex(C, twisted=True)
    assert (D.rows, D.cols) == (54, 54)
    # entry products are counted where every one runs: at the kernel
    calls = [0]
    mac = R.kernel(R.QT)

    def counted(acc, a, b):
        calls[0] += 1
        return mac(acc, a, b)

    monkeypatch.setitem(R._KERNELS, ("Q", 1), counted)
    r = L.rank_fraction_field(D)
    # rank reads the forward sweep alone, with no back pass
    assert calls[0] == 197
    K = L.kernel_fraction_field(D)
    monkeypatch.undo()
    assert calls[0] <= 4000
    assert max(len(e.terms_dict()) for row in K.data for e in row) <= 100
    assert (r, K.cols) == (26, 28)
    assert (D * K).is_zero()


@pytest.fixture(scope="module")
def trefoil_powers():
    """T3 = T2 (x) T1, T4 = T2 (x) T2 and M32 = T3 (x) dual(T2), where
    T1 is the trefoil and T2 = T1 (x) T1."""
    T1 = knots.fixture("trefoil")
    T2 = S.tensor(T1, T1)
    T3 = S.tensor(T2, T1)
    return {"T3": T3, "T4": S.tensor(T2, T2), "M32": S.tensor(T3, S.dual(T2))}


def _columns(K):
    cols = [{} for _ in range(K.cols)]
    for i, j, e in K.nonzero_entries():
        cols[j][i] = e
    return cols


def _agrees_with_gauss_jordan(M, kernels=True):
    """The forward sweep pivots where Gauss-Jordan elimination does, so
    rank and the pivot columns are the oracle's; and each kernel column is
    a nonzero multiple of the oracle's column with the same index."""
    pivots = L._eliminate(M)[1]
    assert pivots == helpers.reference_eliminate(M)[1]
    assert L.rank(M) == len(pivots)
    cols = {c for _r, c in pivots}
    assert L.pivot_columns(M) == cols
    # over a head of no rows the first pivot column raises the rank; over
    # all of them no column does
    assert L.raising_column(M, 0) == min(cols, default=None)
    assert L.raising_column(M, M.rows) is None
    if not kernels:
        return
    free = [f for f in range(M.cols) if f not in cols]
    got = _columns(L.kernel_fraction_field(M))
    want = helpers.reference_kernel(M)
    assert len(got) == len(want) == len(free)
    for f, u, w in zip(free, got, want):
        # both are nonzero at their free column f, so u = (u[f] / w[f]) w;
        # equal columns skip the cross products, which grow large on cones
        assert u.keys() == w.keys() and f in w
        assert u == w or all(u[i] * w[f] == w[i] * u[f] for i in w)


@pytest.mark.parametrize("ring", [R.Z, R.ZT, R.QT, R.F2T, R.universal(2),
                                  R.S_BN], ids=lambda r: r.tag)
def test_forward_sweep_matches_gauss_jordan_on_random_matrices(ring):
    rng = random.Random(2121)
    for _ in range(30):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        M = _random_sparse(rng, ring, m, n)
        if rng.random() < 0.4:
            # a product through a small inner size: dependent rows and
            # columns, and free columns between the pivots
            k = rng.randint(0, 3)
            M = _random_sparse(rng, ring, m, k) * _random_sparse(rng, ring,
                                                                 k, n)
        _agrees_with_gauss_jordan(M)


@pytest.mark.parametrize("name, ring, kernels", [
    ("T3", R.QT, True), ("T3", R.F2T, True), ("T4", R.QT, False),
    ("T4", R.F2T, False), ("M32", R.F2T, False)])
def test_forward_sweep_matches_gauss_jordan_on_the_cones(trefoil_powers, name,
                                                        ring, kernels):
    C = trefoil_powers[name]
    C = S.base_change_complex(C, S.standard_assignment(C.ring, ring, U="1"),
                              ring)
    for twisted in (False, True):
        _agrees_with_gauss_jordan(S.sharp_complex(C, twisted)[1], kernels)


# ---------------------------------------------------------------------------
# products


def _naive_product(A, B):
    """Triple-loop reference: every term, zeros included, in ascending k."""
    rows = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = R.zero(A.ring)
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            row.append(acc)
        rows.append(row)
    return L.Matrix(A.ring, rows, cols=B.cols)


def _random_sparse(rng, ring, m, n):
    return L.Matrix(ring, [[helpers.random_poly(rng, ring)
                            if rng.random() < 0.3 else R.zero(ring)
                            for _ in range(n)] for _ in range(m)], cols=n)


def _replaced(M, f):
    """M with each entry e at (i, j) replaced by f(i, j, e), built through
    the constructor."""
    return L.Matrix(M.ring, [[f(i, j, M[i, j]) for j in range(M.cols)]
                             for i in range(M.rows)], cols=M.cols)


def _same_entries(M, N):
    return ((M.rows, M.cols) == (N.rows, N.cols)
            and [[e.to_str() for e in row] for row in M.data]
            == [[e.to_str() for e in row] for row in N.data])


@pytest.mark.parametrize("ring", [R.Z, R.ZT, R.F2T, R.universal(3)],
                         ids=lambda r: r.tag)
def test_product_matches_naive_reference(ring):
    rng = random.Random(808)
    for _ in range(40):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = _random_sparse(rng, ring, m, k)
        B = _random_sparse(rng, ring, k, n)
        # a zero row of A and a zero column of B
        zr = rng.randrange(m)
        A = _replaced(A, lambda i, j, e: R.zero(ring) if i == zr else e)
        zc = rng.randrange(n)
        B = _replaced(B, lambda i, j, e: R.zero(ring) if j == zc else e)
        P, N = A * B, _naive_product(A, B)
        assert P == N and _same_entries(P, N)
        assert all(P[i, zc].is_zero() for i in range(m))


def test_product_empty_shapes():
    rng = random.Random(909)
    ring = R.ZT
    A = _random_sparse(rng, ring, 3, 4)
    for left, right, shape in (
            (L.Matrix.zeros(ring, 0, 3), A, (0, 4)),
            (A, L.Matrix.zeros(ring, 4, 0), (3, 0)),
            (L.Matrix.zeros(ring, 2, 0), L.Matrix.zeros(ring, 0, 5), (2, 5))):
        P = left * right
        assert (P.rows, P.cols) == shape
        assert P.is_zero()
        assert P == _naive_product(left, right)
    with pytest.raises(L.LinalgError):
        A * A


def test_product_with_a_scalar():
    rng = random.Random(1010)
    for ring in (R.Z, R.ZT, R.F2T, R.universal(3)):
        A = _random_sparse(rng, ring, 3, 4)
        p = helpers.random_poly(rng, ring)
        P = A * p
        assert (P.rows, P.cols) == (3, 4)
        assert all(P[i, j] == A[i, j] * p
                   for i in range(3) for j in range(4))
        assert (A * R.zero(ring)).is_zero()


@pytest.mark.parametrize("ring", [R.Z, R.ZT, R.F2T, R.F4, R.universal(3)],
                         ids=lambda r: r.tag)
def test_sum_of_products_is_the_sum_of_the_products(ring):
    rng = random.Random(1111)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, 4)
            pairs.append((_random_sparse(rng, ring, m, k),
                          _random_sparse(rng, ring, k, n)))
        P = L.sum_of_products(pairs)
        N = L.Matrix.zeros(ring, m, n)
        for A, B in pairs:
            N = N + _naive_product(A, B)
        assert P == N and _same_entries(P, N)
        assert _stores_no_zero(P)
        # a pair and its negation cancel to a zero that stores nothing
        A, B = pairs[0]
        Z = L.sum_of_products(pairs + [(-A, B)] + [(A, -B)
                                                   for A, B in pairs[1:]])
        assert Z.is_zero() and list(Z.nonzero_entries()) == []
        assert L.sum_of_products([(A, B)]) == A * B


def test_sum_of_products_refuses_mismatched_pairs():
    rng = random.Random(1212)
    ring = R.ZT
    A = _random_sparse(rng, ring, 2, 3)
    B = _random_sparse(rng, ring, 3, 4)
    with pytest.raises(L.LinalgError, match=r"shape mismatch 2x3 \* 2x3"):
        L.sum_of_products([(A, B), (A, A)])
    # every product must have the shape of the first
    with pytest.raises(L.LinalgError, match="does not add"):
        L.sum_of_products([(A, B), (B.transpose(), B)])
    other = L.Matrix.identity(R.F2T, 3)
    with pytest.raises(R.RingMismatchError):
        L.sum_of_products([(A, other)])
    # a pair over another ring than the first, each pair consistent
    with pytest.raises(R.RingMismatchError):
        L.sum_of_products([(A, B), (L.Matrix.zeros(R.F2T, 2, 3),
                                    L.Matrix.zeros(R.F2T, 3, 4))])
    with pytest.raises(TypeError):
        L.sum_of_products([(A, "B")])
    # an empty sum has no shape or ring to take
    with pytest.raises(L.LinalgError, match="no pairs were given"):
        L.sum_of_products([])


def test_entries_must_share_the_matrix_ring():
    zt = R.ZT
    with pytest.raises(R.RingMismatchError):
        L.Matrix(zt, [[R.one(zt), R.one(R.F2T)]])
    with pytest.raises(R.RingMismatchError):
        L.Matrix(zt, [[R.one(zt), 1]])
    # an equal ring built separately is not the same object, and is accepted
    ring, other = R.universal(3), R.universal(3)
    assert other == ring and other is not ring
    M = L.Matrix(ring, [[R.one(other), R.var(other, "T")]])
    assert M[0, 1] == R.var(ring, "T")


@pytest.mark.parametrize("ring", [R.ZT, R.F2], ids=lambda r: r.tag)
def test_kron_mixed_product_law(ring):
    # (A (x) B)(C (x) D) = AC (x) BD
    rng = random.Random(1212)
    for _ in range(20):
        m, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        A, C = _random_sparse(rng, ring, m, k), _random_sparse(rng, ring, k, n)
        B, D = _random_sparse(rng, ring, p, q), _random_sparse(rng, ring, q, r)
        # unit entries 1 and -1 among the factors
        B = _replaced(B, lambda i, j, e: R.one(ring) if i == j == 0 else e)
        D = _replaced(D, lambda i, j, e: -R.one(ring) if i == j == 0 else e)
        left = L.kron(A, B) * L.kron(C, D)
        assert (left.rows, left.cols) == (m * p, n * r)
        assert left == L.kron(A * C, B * D)


def test_kron_entries_and_empty_shapes():
    ring = R.ZT
    t = R.var(ring, "T")
    A = L.Matrix(ring, [[t, R.zero(ring)], [R.one(ring), -t]])
    B = L.Matrix(ring, [[R.one(ring), t]])
    K = L.kron(A, B)
    assert [[K[i, j] for j in range(4)] for i in range(2)] == [
        [t, t * t, R.zero(ring), R.zero(ring)],
        [R.one(ring), t, -t, -(t * t)]]
    E = L.kron(A, L.Matrix.zeros(ring, 0, 3))
    assert (E.rows, E.cols) == (0, 6)
    with pytest.raises(R.RingMismatchError):
        L.kron(A, L.Matrix.identity(R.F2T, 1))


def test_assemble_places_blocks():
    ring = R.ZT
    t = R.var(ring, "T")
    I2 = L.Matrix.identity(ring, 2)
    M = L.assemble(ring, 3, 4, [(0, 1, I2), (2, 0, L.Matrix(ring, [[t]]))])
    z, o = R.zero(ring), R.one(ring)
    assert M == L.Matrix(ring, [[z, o, z, z], [z, z, o, z], [t, z, z, z]])
    with pytest.raises(L.LinalgError):
        L.assemble(ring, 2, 2, [(1, 1, I2)])
    with pytest.raises(R.RingMismatchError):
        L.assemble(ring, 2, 2, [(0, 0, L.Matrix.identity(R.F2T, 2))])


def test_assemble_refuses_overlapping_pieces():
    # the pieces must be disjoint: an entry set twice names the later block
    ring = R.ZT
    t = R.var(ring, "T")
    z, o = R.zero(ring), R.one(ring)
    full = L.Matrix(ring, [[t, t, t], [t, t, t]])
    later = L.Matrix(ring, [[o, z], [z, 2 * o]])
    with pytest.raises(L.LinalgError, match=r"2x2 block at \(0, 1\) "
                       "overlaps an earlier piece"):
        L.assemble(ring, 2, 3, [(0, 0, full), (0, 1, later)])
    with pytest.raises(L.LinalgError, match=r"1x1 block at \(1, 1\)"):
        L.assemble(ring, 2, 2, [(0, 0, L.Matrix.identity(ring, 2)),
                                (1, 1, L.Matrix(ring, [[t]]))])
    # blocks may share a region where one of them is zero: only stored
    # entries are placed
    M = L.assemble(ring, 2, 3, [(0, 0, full),
                                (0, 0, L.Matrix.zeros(ring, 2, 2))])
    assert M == full
    M = L.assemble(ring, 2, 3, [(0, 1, later),
                                (0, 0, L.Matrix(ring, [[t, z], [t, z]]))])
    assert M == L.Matrix(ring, [[t, o, z], [t, z, 2 * o]])


# ---------------------------------------------------------------------------
# powers of v


def _v_power_complexes():
    rng = random.Random(1111)
    out = [knots.fixture(name) for name in ("trivial", "trefoil", "t34",
                                            "t35")]
    trefoil = knots.two_bridge_complex(3, -1, "f2t")
    out.append(S.tensor(trefoil, S.tensor(trefoil, trefoil)))
    for ring in (R.ZT, R.F2T):
        out += [helpers.random_scomplex(rng, ring, max_gens=10)
                for _ in range(4)]
    return out


def _naive_nilpotency_index(C):
    M = L.Matrix.identity(C.ring, C.n)
    for m in range(C.n + 1):
        if M.is_zero():
            return m
        M = C.v * M
    return None


def test_v_powers_are_repeated_products():
    for C in _v_power_complexes():
        vp = E.v_powers(C, C.n + 2)
        assert len(vp) == C.n + 3
        M = L.Matrix.identity(C.ring, C.n)
        for j, P in enumerate(vp):
            assert P == M, j
            M = C.v * M


def test_nilpotency_index_unchanged():
    seen = set()
    for C in _v_power_complexes():
        m = E.nilpotency_index(C)
        assert m == _naive_nilpotency_index(C)
        assert m == E.nilpotency_index(C, E.v_powers(C, C.n))
        seen.add(m)
    assert len(seen) > 1
    # a v that is not nilpotent
    ring = R.F2T
    C = S.SComplex(ring, [S.Generator("a", 0), S.Generator("b", 2)],
                   L.Matrix.zeros(ring, 2, 2),
                   L.Matrix(ring, [[R.zero(ring), R.one(ring)],
                                   [R.one(ring), R.zero(ring)]]),
                   L.Matrix.zeros(ring, 1, 2), L.Matrix.zeros(ring, 2, 1))
    assert E.nilpotency_index(C) is None
    assert _naive_nilpotency_index(C) is None


# ---------------------------------------------------------------------------
# sparse storage: no zero is ever stored


def _stores_no_zero(M):
    stored = list(M.nonzero_entries())
    return (all(e for _i, _j, e in stored)
            and [(i, j) for i, j, _e in stored]
            == [(i, j) for i in range(M.rows) for j in range(M.cols)
                if M[i, j]])


@pytest.mark.parametrize("ring", [R.Z, R.ZT, R.F2T, R.universal(3)],
                         ids=lambda r: r.tag)
def test_cancellation_stores_no_zero(ring):
    rng = random.Random(1313)
    for _ in range(20):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = _random_sparse(rng, ring, m, k)
        B = _random_sparse(rng, ring, k, n)
        Z = A + (-A)
        assert Z.is_zero() and list(Z.nonzero_entries()) == []
        assert (A - A).is_zero() and Z == L.Matrix.zeros(ring, m, k)
        # A B - A B cancels entry by entry
        P = L.sum_of_products([(A, B), (-A, B)])
        assert P.is_zero() and P == L.Matrix.zeros(ring, m, n)
        for M in (A * B, A + A, L.kron(A, B), A.transpose(),
                  A * R.zero(ring), L.assemble(ring, m + k, k + n, [
                      (0, 0, A), (m, k, B), (0, k, L.Matrix.zeros(ring, m, n))
                  ])):
            assert _stores_no_zero(M)


def test_smith_form_stores_no_zero():
    rng = random.Random(1414)
    for ring in (R.Z, R.Q, R.F2T, R.QT):
        for _ in range(15):
            M = _random_sparse(rng, ring, rng.randint(1, 5), rng.randint(1, 5))
            s = L.smith_normal_form(M)
            assert s.U * M * s.V == s.D
            for X in (s.D, s.U, s.V, L.kernel_basis(M),
                      L.kernel_fraction_field(M)):
                assert _stores_no_zero(X)


def test_base_change_that_kills_entries_stores_no_zero():
    two = R.from_int(R.Z, 2)
    M = L.Matrix(R.Z, [[two, R.one(R.Z)], [two, two]])
    to_f2 = R.homomorphism(R.Z, {}, R.F2)
    N = M.map_entries(to_f2, R.F2)
    assert _stores_no_zero(N)
    assert list(N.nonzero_entries()) == [(0, 1, R.one(R.F2))]
    assert N == L.Matrix(R.F2, [[R.zero(R.F2), R.one(R.F2)],
                                [R.zero(R.F2), R.zero(R.F2)]])
    assert (M * two).map_entries(to_f2, R.F2).is_zero()


def test_explicit_zeros_give_the_same_matrix():
    ring = R.ZT
    t, z = R.var(ring, "T"), R.zero(ring)
    M = L.Matrix(ring, [[t, z, z], [z, z, -t]])
    assert M == L.assemble(ring, 2, 3, [(0, 0, L.Matrix(ring, [[t]])),
                                        (1, 2, L.Matrix(ring, [[-t]]))])
    assert M == L.Matrix.zeros(ring, 2, 3) + M
    assert M != L.Matrix.zeros(ring, 2, 3)
    assert list(M.nonzero_entries()) == [(0, 0, t), (1, 2, -t)]
    assert (M[0, 1], M[1, 2], M[1, -1]) == (z, -t, -t)
    with pytest.raises(IndexError):
        M[0, 3]
    # equal entries stored in another order still compare equal
    A = L.Matrix(ring, [[t, z, z]])
    B = L.Matrix(ring, [[z, z, t]])
    assert A + B == B + A and list((B + A).nonzero_entries()) == [
        (0, 0, t), (0, 2, t)]
    # a zero-row or zero-column shape keeps its other dimension
    assert (L.Matrix(ring, [], cols=4).cols, L.Matrix(ring, []).cols) == (4, 0)


@pytest.mark.parametrize("ring", [R.Z, R.F2T, R.universal(3)],
                         ids=lambda r: r.tag)
def test_from_entries_inverts_nonzero_entries(ring):
    rng = random.Random(1818)
    for _ in range(20):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        M = _random_sparse(rng, ring, m, n)
        assert L.Matrix.from_entries(ring, m, n, M.nonzero_entries()) == M
        # every cell given, zeros included: the zeros are dropped
        N = L.Matrix.from_entries(ring, m, n, [
            (i, j, M[i, j]) for i in range(m) for j in range(n)])
        assert N == M and _stores_no_zero(N)
        assert list(N.nonzero_entries()) == list(M.nonzero_entries())


def test_from_entries_checks_ring_and_position():
    zt = R.ZT
    t = R.var(zt, "T")
    for e in (R.one(R.F2T), R.zero(R.F2T), 1):
        with pytest.raises(R.RingMismatchError):
            L.Matrix.from_entries(zt, 1, 2, [(0, 1, e)])
    for i, j in ((1, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(L.LinalgError):
            L.Matrix.from_entries(zt, 1, 2, [(i, j, t)])
    assert L.Matrix.from_entries(zt, 1, 2, [(0, 1, t)]) == L.Matrix(
        zt, [[R.zero(zt), t]])


def test_dense_rows_must_have_the_given_length():
    # cols, when given, is the length of every row
    zt = R.ZT
    t = R.var(zt, "T")
    for rows, cols in (([[t]], 2), ([[t, t]], 1), ([[t], [t, t]], None)):
        with pytest.raises(L.LinalgError):
            L.Matrix(zt, rows, cols=cols)
    M = L.Matrix(zt, [[t, R.zero(zt)]], cols=2)
    assert (M.rows, M.cols) == (1, 2)


def test_dense_view_is_read_only_and_built_once():
    ring = R.F2T
    t, z = R.var(ring, "T"), R.zero(ring)
    M = L.Matrix(ring, [[t, z], [z, R.one(ring)]])
    view = M.data
    assert view == ((t, z), (z, R.one(ring)))
    assert M.data is view
    with pytest.raises(TypeError):
        view[0][0] = z
    with pytest.raises(AttributeError):
        M.data = ()


_P = 2 ** 61 - 1


def _pair(ring, gr_a, gr_b, entry):
    """Generators a, b with d(a) = entry * b and no other map."""
    z = R.zero(ring)
    gens = [S.Generator("a", gr_a), S.Generator("b", gr_b)]
    return S.SComplex(ring, gens, L.Matrix(ring, [[z, z], [entry, z]]),
                      L.Matrix.zeros(ring, 2, 2), L.Matrix.zeros(ring, 1, 2),
                      L.Matrix.zeros(ring, 2, 1))


def _sharp_ranks(tmp_path, monkeypatch, C, twisted):
    """rank_over_fractions as ``scx sharp`` prints it, the ceiling it
    passed to linalg.rank, and the rank the sweep of the whole cone
    gives, read as the same total homology rank."""
    ceilings = []
    rank = L.rank

    def recorded(M, ceiling=None):
        ceilings.append(ceiling)
        return rank(M, ceiling)

    monkeypatch.setattr(L, "rank", recorded)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(S.to_dict(C)))
    out, err = io.StringIO(), io.StringIO()
    argv = ["sharp", "--in", str(path), "--json"] + ["--twisted"] * twisted
    assert cli.run(argv, out, err) == 0, err.getvalue()
    monkeypatch.undo()
    gens, D = S.sharp_complex(C, twisted)
    oracle = len(gens) - 2 * L.rank(D)
    return json.loads(out.getvalue())["rank_over_fractions"], ceilings, oracle


def test_sharp_rank_at_a_point_falls_back_below_its_ceiling(tmp_path,
                                                            monkeypatch):
    # d(a) = (T - 3) b vanishes at the point T = 3, so there the
    # untwisted cone keeps only the rank 2 of 2 * chi; over the fraction
    # field it reaches (N - |chi|)/2 = 4
    C = _pair(R.ZT, 1, 0, R.var(R.ZT, "T") - R.from_int(R.ZT, 3))
    D = S.sharp_complex(C)[1]
    assert L._rank_at_point(D) == 2 < L.rank(D) == 4
    printed, ceilings, oracle = _sharp_ranks(tmp_path, monkeypatch, C, False)
    assert ceilings == [4] and printed == oracle == 2
    # the one-generator zero-maps complex: only 2 * chi joins the copies,
    # and its rank 1 stays below the ceiling 2 at every point
    C = S.SComplex.zero_maps(R.ZT, [S.Generator("z", 0)])
    D = S.sharp_complex(C)[1]
    assert L._rank_at_point(D) == L.rank(D) == 1
    printed, ceilings, oracle = _sharp_ranks(tmp_path, monkeypatch, C, False)
    assert ceilings == [2] and printed == oracle == 4


def test_sharp_rank_with_a_denominator_p_is_swept(tmp_path, monkeypatch):
    # 1/p has no image in F_p: the rank at the point is refused
    e = R.monomial(R.QT, Fraction(1, _P), t=(1,))
    C = _pair(R.QT, 1, 0, e)
    D = S.sharp_complex(C, True)[1]
    assert L._rank_at_point(D) is None and L.rank(D, 4) == 4
    printed, ceilings, oracle = _sharp_ranks(tmp_path, monkeypatch, C, True)
    assert ceilings == [4] and printed == oracle == 2


def test_sharp_passes_its_ceiling_for_a_wrong_parity_entry(tmp_path,
                                                           monkeypatch):
    # d joins two generators of even gr, so D is not odd for gr mod 2;
    # the ceiling (N - 2)/2 does not read the gradings and still holds.
    # In characteristic 2 (S_BN, where no Smith form runs) the rank is
    # d-tilde's, on 2n + 1 = 5 generators, with the ceiling n
    for ring, ceiling in ((R.ZT, 4), (R.S_BN, 2)):
        one = R.one(ring)
        for twisted in (False, True):
            for gr_a in (0, 1):
                printed, ceilings, oracle = _sharp_ranks(
                    tmp_path, monkeypatch, _pair(ring, gr_a, 2, one), twisted)
                assert ceilings == [ceiling] and printed == oracle == 2
