"""Small models, model equivalence, h, ideal sequences, Gamma and the
theta-web presentations."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from scx import equivariant as E
from scx import knots, linalg as L, rings as R, scomplex as S

import helpers


def trefoil(ring=None):
    C = knots.fixture("trefoil")
    if ring is None:
        return C
    return knots.two_bridge_complex(3, -1, ring)


# ---------------------------------------------------------------------------
# small models


def test_small_hat_trefoil_differential_vanishes():
    for depth in (1, 3):
        assert E.small_triangle_matrices(trefoil(), depth)["d_hat"].is_zero()


def test_small_hat_x_action_records_delta1():
    C = trefoil("f2t")
    x_hat = E.small_triangle_matrices(C, 3)["x_hat"]
    t = R.var(C.ring, "T")
    # x sends the generator to (v beta, delta1 beta x^0) = (0, T^2 + T^-2)
    assert x_hat[0, 0].is_zero()
    assert x_hat[C.n, 0] == t ** 2 + t ** -2
    # and x^i to x^(i + 1)
    assert all(x_hat[C.n + i + 1, C.n + i] == R.one(C.ring)
               for i in range(3))


def test_small_check_tail_records_delta1():
    C = trefoil("f2t")
    d_check = E.small_triangle_matrices(C, 3)["d_check"]
    t = R.var(C.ring, "T")
    # d(beta) = (d beta, sum_j delta1 v^j beta x^(-j-1)) with v = 0
    assert d_check[C.n, 0] == t ** 2 + t ** -2
    assert d_check[C.n + 1, 0].is_zero() and d_check[C.n + 2, 0].is_zero()
    assert d_check[0, 0].is_zero()


def test_trivial_small_models():
    mats = E.small_triangle_matrices(S.SComplex.trivial(R.F2T), 2)
    assert mats["d_hat"].is_zero() and mats["d_check"].is_zero()
    assert (mats["d_hat"].rows, mats["x_hat"].rows) == (3, 3)


# ---------------------------------------------------------------------------
# model equivalence


def test_model_equivalence_trefoil_depth_five():
    assert E.verify_model_equivalence(trefoil(), 5).ok


def test_model_equivalence_trivial():
    for depth in (1, 3):
        assert E.verify_model_equivalence(
            S.SComplex.trivial(R.F2T), depth).ok


def test_model_equivalence_randomized():
    rng = random.Random(888)
    for ring in (R.ZT, R.F2T, R.Z, R.QT):
        for _ in range(12):
            C = helpers.random_scomplex(rng, ring, max_gens=8)
            rep = E.verify_model_equivalence(C, 4)
            assert rep.ok, rep.failures[:4]


def _random_maps(rng, C):
    """C's generators with d, v, delta1 and delta2 random matrices, as a
    rule not an S-complex."""
    def draw(rows, cols):
        return L.Matrix(C.ring, [
            [helpers.random_poly(rng, C.ring, allow_zero=True)
             for _ in range(cols)] for _ in range(rows)], cols=cols)
    return S.SComplex(C.ring, C.gens, draw(C.n, C.n), draw(C.n, C.n),
                      draw(1, C.n), draw(C.n, 1))


def test_model_maps_meet_x_equivariance_and_phi_psi_id_on_any_maps():
    # the model check leaves out x Phi_k = Phi_(k+1) and Phi Psi = id,
    # which hold by the way Phi and Psi are built whatever d, v, delta1
    # and delta2 are; these are the matrices the check builds
    rng = random.Random(3131)
    invalid = 0
    for ring in (R.Z, R.ZT, R.F2T, R.QT):
        for _ in range(6):
            C = _random_maps(rng, helpers.random_scomplex(rng, ring,
                                                          max_gens=8))
            invalid += not S.validate(C).ok
            for depth in (1, 2, 4):
                vp = E.v_powers(C, depth)
                phis, psis = E._phi_psi(C, depth, vp,
                                        *E._blocks(C, vp, depth, -depth))
                x_small = E.small_triangle_matrices(C, depth)["x_hat"]
                for k in range(depth):
                    assert x_small * phis[k] == phis[k + 1], (ring, depth, k)
                    # the model check reads output degree m >= 1 of input
                    # degree k at degree 1 of k - m + 1
                    for m in range(1, k + 1):
                        assert psis[m] * phis[k] == \
                            psis[1] * phis[k - m + 1], (ring, depth, k, m)
                small = C.n + depth + 1
                assert sum((P * Q for P, Q in zip(phis, psis)),
                           L.Matrix.zeros(ring, small, small)) == \
                    L.Matrix.identity(ring, small), (ring, depth)
    assert invalid >= 18, invalid


def _trefoil_pair_zt():
    """The zt tensor of two_bridge_complex(3, 1) with the trefoil."""
    return S.tensor(knots.two_bridge_complex(3, 1, "zt"), trefoil("zt"))


def _bumped(C, name, i, j):
    """C with 1 added to entry (i, j) of the map ``name``."""
    maps = {key: getattr(C, key) for key in ("d", "v", "delta1", "delta2")}
    M = maps[name]
    rows = [[M[r, c] for c in range(M.cols)] for r in range(M.rows)]
    rows[i][j] = rows[i][j] + R.one(C.ring)
    maps[name] = L.Matrix(C.ring, rows, cols=M.cols)
    return S.SComplex(C.ring, C.gens, maps["d"], maps["v"], maps["delta1"],
                      maps["delta2"], C.v_trusted)


def test_model_check_matches_the_reference_on_bumped_entries():
    # one sum of products per identity, the right side moved over, finds
    # the columns that the two sides built apart and subtracted find
    rng = random.Random(3636)
    failing = passing = 0
    for ring in (R.Z, R.ZT, R.F2T, R.QT):
        for _ in range(5):
            C = helpers.random_scomplex(rng, ring, max_gens=6)
            name = rng.choice(["d", "v", "delta1", "delta2"])
            M = getattr(C, name)
            B = _bumped(C, name, rng.randrange(M.rows), rng.randrange(M.cols))
            for depth in (1, 2, 4):
                for X in (C, B):
                    failures = E.verify_model_equivalence(X, depth).failures
                    assert failures == helpers.reference_model_check(
                        X, depth), (ring, name, depth)
                    failing += bool(failures)
                    passing += not failures
    assert failing >= 10 and passing >= 60, (failing, passing)


def test_model_equivalence_pair_passes():
    assert E.verify_model_equivalence(_trefoil_pair_zt(), 3).ok


_PHI_CHAIN = "Phi fails the chain property on [(1, 3, 1)]"
_HOMOTOPY = "Psi Phi - id != dK + Kd on [(1, 3, 2)]"


def _psi_chain(ring, *degrees):
    return [f"Psi fails the chain property on a small basis element "
            f"{{{k}: <{ring}: 1>}}" for k in degrees]


# expected failures, as the dict-element checker before the matrix rewrite
# reported them
@pytest.mark.parametrize("ring, name, i, j, depth, failures", [
    pytest.param("zt", "delta1", 0, 3, 3, [_PHI_CHAIN, _HOMOTOPY],
                 id="delta1-0-3"),
    pytest.param("zt", "v", 0, 3, 3, [_PHI_CHAIN, _HOMOTOPY], id="v-0-3"),
    pytest.param("zt", "v", 2, 1, 3, [_PHI_CHAIN, _HOMOTOPY], id="v-2-1"),
    pytest.param("zt", "d", 0, 2, 1, _psi_chain("ZT", 1), id="d-0-2-depth1"),
    pytest.param("zt", "d", 0, 2, 3, _psi_chain("ZT", 1, 2, 3),
                 id="d-0-2-depth3"),
    pytest.param("zt", "delta2", 0, 0, 3,
                 [_PHI_CHAIN, _HOMOTOPY] + _psi_chain("ZT", 1, 2, 3),
                 id="delta2-0-0"),
    pytest.param("f2t", "delta2", 0, 0, 3,
                 [_PHI_CHAIN, _HOMOTOPY] + _psi_chain("F2T", 1, 2, 3),
                 id="f2t-delta2-0-0"),
])
def test_model_equivalence_catches_a_bumped_entry(ring, name, i, j, depth,
                                                  failures):
    B = S.tensor(knots.two_bridge_complex(3, 1, ring), trefoil(ring))
    if name == "delta1":
        assert B.gens[j].gr_mod4 % 4 == 1
    elif name == "v":
        assert (B.gens[j].gr_mod4 - B.gens[i].gr_mod4) % 4 == 2
    rep = E.verify_model_equivalence(_bumped(B, name, i, j), depth)
    assert not rep.ok
    assert rep.failures == failures


def test_model_equivalence_works_one_degree_at_a_time(monkeypatch):
    # the largest matrix built must not grow with the truncation the way
    # whole operators on x-degrees 0..depth would
    t = trefoil("f2t")
    C = S.tensor(t, S.tensor(t, t))
    largest = {}
    init, trusted = L.Matrix.__init__, L.Matrix._trusted.__func__

    def record(M):
        largest[depth] = max(largest.get(depth, 0), M.rows * M.cols)

    def recording_init(self, ring, data, cols=None):
        init(self, ring, data, cols)
        record(self)

    def recording_trusted(cls, ring, dicts, cols):
        M = trusted(cls, ring, dicts, cols)
        record(M)
        return M

    # results of matrix operations are wrapped by _trusted, not __init__
    monkeypatch.setattr(L.Matrix, "__init__", recording_init)
    monkeypatch.setattr(L.Matrix, "_trusted", classmethod(recording_trusted))
    for depth in (2, 8):
        assert E.verify_model_equivalence(C, depth).ok
    assert largest[8] <= 3 * largest[2], largest


# ---------------------------------------------------------------------------
# h invariant


def test_h_trefoil_over_f2t_and_qt():
    assert E.h_invariant(trefoil("f2t")) == 1
    assert E.h_invariant(trefoil("qt")) == 1


def test_h_trefoil_over_universal_and_zt():
    assert E.h_invariant(trefoil()) == 1
    assert E.h_invariant(trefoil("zt")) == 1


def test_h_two_bridge_untwisted_vanishes():
    from math import gcd
    for p in (3, 5, 7, 9, 11):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert E.h_invariant(
                    knots.two_bridge_complex(p, q, "z")) == 0


def test_h_torus_fixtures_over_q():
    for name in ("t34", "t35"):
        C = knots.fixture(name)
        CQ = S.base_change_complex(
            C, S.standard_assignment(C.ring, R.Q), R.Q)
        assert E.h_invariant(CQ) == 1


def _trefoil_power(k):
    """trefoil^k over the universal ring, grouped T2 = T1 T1, T3 = T2 T1,
    T4 = T2 T2."""
    if k == 1:
        return trefoil()
    if k == 4:
        return S.tensor(_trefoil_power(2), _trefoil_power(2))
    return S.tensor(_trefoil_power(k - 1), trefoil())


def _h_from_ideals(C):
    """h by the second route: the top nonzero index of the ideal sequence
    over the range of the h search, read from one Euclidean sweep."""
    bound = E._search_bound(C, E.v_powers(C, C.n))
    ideals = E.j_ideals(C, -(bound + 1), bound)
    return max(i for i, gens in ideals.items() if gens)


_UNIVERSAL_H = {"T1": 1, "T2": 2, "T3": 3, "T4": 4, "M12": -1, "M21": 1}


@pytest.mark.parametrize("name", sorted(_UNIVERSAL_H))
def test_h_over_universal_matches_qt(name):
    # M<a><b> is trefoil^a tensor the dual of trefoil^b
    if name.startswith("T"):
        C = _trefoil_power(int(name[1]))
    else:
        C = S.tensor(_trefoil_power(int(name[1])),
                     S.dual(_trefoil_power(int(name[2]))))
    CQ = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.QT, U="1"), R.QT, check=False)
    h = E.h_invariant(C)
    assert h == _UNIVERSAL_H[name]
    assert E.h_invariant(CQ) == h
    assert _h_from_ideals(CQ) == h


def test_h_refuses_untrusted_v():
    C = knots.two_bridge_complex(5, -1)
    assert not C.v_trusted
    with pytest.raises(E.UntrustedVError):
        E.h_invariant(C)


def test_h_additivity_and_dual_negation_randomized():
    rng = random.Random(999)
    for _ in range(40):
        A = helpers.random_scomplex(rng, R.F2T, max_gens=6)
        B = helpers.random_scomplex(rng, R.F2T, max_gens=4,
                                    allow_dual=False)
        hA, hB = E.h_invariant(A), E.h_invariant(B)
        assert E.h_invariant(S.dual(A)) == -hA
        if 2 * A.n * B.n + A.n + B.n <= 20:
            assert E.h_invariant(S.tensor(A, B)) == hA + hB


def test_h_two_code_paths_agree_randomized():
    rng = random.Random(1212)
    for ring in (R.F2T, R.QT, R.Z, R.Q, R.F2, R.F4T):
        for _ in range(30):
            C = helpers.random_scomplex(rng, ring, max_gens=8)
            assert E.h_invariant(C) == _h_from_ideals(C)


def test_h_insensitive_to_fraction_field():
    # the non-positive witness scales freely (a_0 = 2 works over Z even
    # though a_0 = 1 needs rationals), so h agrees over Z and Q
    ring = R.Z
    one, z = R.one(ring), R.zero(ring)
    two = R.from_int(ring, 2)
    gens = [S.Generator("top", 3), S.Generator("bot", 2)]
    d = L.Matrix(ring, [[z, z], [two, z]])
    delta2 = L.Matrix(ring, [[z], [one]])
    C = S.SComplex(ring, gens, d, L.Matrix.zeros(ring, 2, 2),
                   L.Matrix.zeros(ring, 1, 2), delta2)
    assert S.validate(C).ok
    assert E.h_invariant(C) == 0
    CQ = S.base_change_complex(C, S.standard_assignment(ring, R.Q), R.Q)
    assert E.h_invariant(CQ) == 0
    # randomized agreement between Z and Q coefficients
    rng = random.Random(1515)
    for _ in range(20):
        A = helpers.random_scomplex(rng, R.Z, max_gens=8)
        AQ = S.base_change_complex(A, S.standard_assignment(R.Z, R.Q), R.Q)
        assert E.h_invariant(A) == E.h_invariant(AQ)


def test_h_and_gamma_eliminate_at_most_twice(monkeypatch):
    # h reads one row profile, and a column profile only when h <= 0;
    # Gamma(k) reads two profiles of one U-split from one sweep
    sizes, eliminate = [], L._eliminate

    def counted(M):
        sizes.append(M.cols)
        return eliminate(M)

    monkeypatch.setattr(L, "_eliminate", counted)
    for C, h in ((trefoil("qt"), 1), (S.dual(_trefoil_power(2)), -2)):
        assert E.h_invariant(C) == h
        assert len(sizes) == (1 if h > 0 else 2)
        sizes.clear()
    T2 = _trefoil_power(2)
    for k in range(-3, 7):
        E.gamma(T2, [k])
        assert len(sizes) == 1
        sizes.clear()
    E.gamma(T2, range(-3, 7))
    assert len(sizes) == 10


def test_blocks_are_multiplied_once_per_call(monkeypatch):
    # a call builds delta1 v^j and v^j delta2 once for all the levels it
    # reads, up to the first zero power of v; Gamma over eight levels of
    # trefoil^4 made 24 Matrix products when each level built its own,
    # and blocks past the first zero power add one here, 7 to the check;
    # the check made 65 while it also multiplied out x Phi_k = Phi_(k+1)
    # and Phi Psi = id, which hold by construction, and 59 while it read
    # the homotopy at every output degree, not at degrees 0 and 1 only;
    # J_i made 21 while it multiplied a kernel basis by each level's cut.
    # Every product is a pair of linalg.sum_of_products, A * B included,
    # and each pair counts: the check multiplies 79 pairs in 26 sums.
    # The counts of the check above are Matrix products, which saw each
    # of its stacked sums as one: 47 of them held the same 79 pairs
    T2, T4 = _trefoil_power(2), _trefoil_power(4)
    T4_f2t = S.base_change_complex(
        T4, S.standard_assignment(T4.ring, R.F2T, U="1"), R.F2T)
    products, sum_of_products = [], L.sum_of_products

    def counted(pairs):
        pairs = list(pairs)
        products.extend((A.rows, A.cols, B.cols) for A, B in pairs)
        return sum_of_products(pairs)

    monkeypatch.setattr(L, "sum_of_products", counted)
    for call, most in ((lambda: E.gamma(T4, range(-2, 6)), 10),
                       (lambda: E.h_invariant(T4), 7),
                       (lambda: E.j_ideals(T4_f2t, -1, 5), 9),
                       (lambda: E.verify_model_equivalence(T2, 5), 79)):
        products.clear()
        call()
        assert len(products) <= most, products


def _swap_complex(ring):
    """a at grading 1 and b at grading 3, d = 0, v swapping them (so v is
    not nilpotent), delta1 = (1, 0) and delta2 = 0."""
    one, z = R.one(ring), R.zero(ring)
    return S.SComplex(ring, [S.Generator("a", 1), S.Generator("b", 3)],
                      L.Matrix.zeros(ring, 2, 2),
                      L.Matrix(ring, [[z, one], [one, z]]),
                      L.Matrix(ring, [[one, z]]), L.Matrix.zeros(ring, 2, 1))


def test_h_bound_over_a_field_when_v_is_not_nilpotent():
    # a witnesses level 1, b level 2 (delta1 v b = delta1 a = 1), and
    # [d; delta1; delta1 v] has no kernel, so no level 3 witness
    C = _swap_complex(R.Q)
    assert S.validate(C).ok
    assert E.nilpotency_index(C) is None
    assert E.h_invariant(C) == 2
    # over Q[T^+-1] the search has no bound and is refused
    with pytest.raises(E.UnsupportedRingError):
        E.h_invariant(_swap_complex(R.QT))


# ---------------------------------------------------------------------------
# ideal sequences


def test_j_ideals_trefoil_over_zt():
    J = E.j_ideals(trefoil("zt"), -1, 2)
    t = R.var(R.ZT, "T")
    assert J[2] == []
    assert J[1] == [R.normalize_associate(t ** 2 - t ** -2)]
    assert J[0] == [R.one(R.ZT)]
    assert J[-1] == [R.one(R.ZT)]


def test_j_ideals_trefoil_over_f2t():
    J = E.j_ideals(trefoil("f2t"), 0, 2)
    t = R.var(R.F2T, "T")
    assert J[1] == [R.normalize_associate(t ** 2 + t ** -2)]
    assert J[2] == [] and J[0] == [R.one(R.F2T)]


def test_j_ideals_trivial():
    J = E.j_ideals(S.SComplex.trivial(R.F2T), -2, 2)
    for i, gens in J.items():
        if i <= 0:
            assert gens == [R.one(R.F2T)]
        else:
            assert gens == []


def test_j_ideals_zt_refuses_nonzero_d():
    ring = R.ZT
    one, z = R.one(ring), R.zero(ring)
    gens = [S.Generator("a", 1), S.Generator("b", 0)]
    d = L.Matrix(ring, [[z, z], [one, z]])
    C = S.SComplex(ring, gens, d, L.Matrix.zeros(ring, 2, 2),
                   L.Matrix.zeros(ring, 1, 2), L.Matrix.zeros(ring, 2, 1))
    with pytest.raises(E.UnsupportedRingError):
        E.j_ideals(C, 0, 1)


def test_j_nesting_and_tensor_membership():
    A = trefoil("f2t")
    T = S.tensor(A, A)
    assert E.h_invariant(T) == 2
    J = E.j_ideals(T, -1, 3)
    t = R.var(R.F2T, "T")
    w = t ** 2 + t ** -2
    assert J[3] == []
    # (T^2 - T^-2)^2 lies in J_2 of the tensor square
    assert J[2] and R.divide(w * w, J[2][0]) is not None
    # nesting: each J_{i+1} generator divisible by the J_i generator
    for i in (-1, 0, 1, 2):
        hi, lo = J[i + 1], J[i]
        if hi:
            assert lo and R.divide(hi[0], lo[0]) is not None


def _assert_j_nesting(C):
    """Each J_(i+1) lies in J_i, and the top nonzero index is h."""
    h = E.h_invariant(C)
    J = E.j_ideals(C)
    idx = sorted(J)
    assert max(i for i in idx if J[i]) == h
    for i in idx[:-1]:
        hi, lo = J[i + 1], J[i]
        if hi:
            assert lo and R.divide(hi[0], lo[0]) is not None


def test_j_nesting_randomized():
    rng = random.Random(1313)
    for _ in range(25):
        _assert_j_nesting(helpers.random_scomplex(rng, R.F2T, max_gens=10,
                                                  v_chains=True))


@pytest.mark.parametrize("ring", [R.QT, R.Z], ids=lambda r: r.tag)
def test_j_nesting_randomized_over_qt_and_z(ring):
    rng = random.Random(1717)
    for _ in range(25):
        _assert_j_nesting(helpers.random_scomplex(rng, ring, max_gens=10,
                                                  v_chains=True))


@pytest.mark.parametrize("ring", [R.Z, R.F2T, R.QT], ids=lambda r: r.tag)
def test_level_systems_nest(ring):
    # h reads every level from one row profile and one column profile,
    # and J_i reads one sweep of a stacked system, because they nest
    rng = random.Random(2929)
    for _ in range(20):
        C = helpers.random_scomplex(rng, ring, max_gens=10, v_chains=True)
        blocks = E._blocks(C, E.v_powers(C, C.n), 5, -4)
        W = {k: E._level_system(C, blocks, k) for k in range(-4, 6)}
        A = {k: helpers.split_level_system(M)[0] for k, M in W.items()}
        for k in range(-3, 5):
            if k >= 1:
                assert W[k] == W[k + 1].rows_selected(range(W[k].rows)), k
            else:
                assert A[k] == A[k - 1].columns_selected(
                    range(C.n + 1 - k)), k
                assert L.rank(W[k]) == 1 + L.rank(A[k + 1]), k


# ranges from below 0, from 1 and from above 1, and single levels
_J_RANGES = [(-3, 3), (-1, -1), (0, 0), (1, 4), (1, 1), (2, 5), (3, 3)]


@pytest.mark.parametrize("ring", [R.Z, R.Q, R.F2, R.F4, R.F2T, R.F4T, R.QT],
                         ids=lambda r: r.tag)
def test_j_ideals_match_one_smith_form_per_level_on_random_complexes(ring):
    rng = random.Random(2323)
    for _ in range(30):
        C = helpers.random_scomplex(rng, ring, max_gens=10, v_chains=True)
        for lo, hi in _J_RANGES:
            assert E.j_ideals(C, lo, hi) == helpers.reference_j_ideals(
                C, lo, hi)


@pytest.mark.parametrize("ring, p", [(R.Z, "2"), (R.QT, "T + 1"),
                                     (R.F2T, "T + 1")],
                         ids=lambda v: getattr(v, "tag", None))
def test_j_ideals_match_one_smith_form_per_level_where_cuts_matter(ring, p):
    p = R.parse(ring, p)
    C = helpers.v_chain(ring, p)
    M = S.tensor(C, S.dual(helpers.v_chain(ring, R.one(ring))))
    assert S.validate(C).ok and S.validate(M).ok
    p2 = [R.normalize_associate(p * p)]
    assert E.j_ideals(C, 3, 3) == {3: p2}
    assert E.j_ideals(M, -3, 0)[0] == p2
    for D in (C, S.dual(C), M):
        _assert_j_nesting(D)
        for lo, hi in _J_RANGES:
            assert E.j_ideals(D, lo, hi) == helpers.reference_j_ideals(
                D, lo, hi)


@pytest.mark.parametrize("k, ring", [(3, R.QT), (3, R.F2T), (4, R.QT),
                                     (4, R.F2T), (5, R.QT), (5, R.F2T)],
                         ids=lambda v: getattr(v, "tag", None))
def test_j_ideals_match_one_smith_form_per_level_on_trefoil_powers(k, ring):
    C = _trefoil_power(k)
    C = S.base_change_complex(
        C, S.standard_assignment(C.ring, ring, U="1"), ring)
    for lo, hi in [(-1, 5)] if k == 5 else [(-3, 6), (1, 5), (2, 2)]:
        assert E.j_ideals(C, lo, hi) == helpers.reference_j_ideals(C, lo, hi)


# ---------------------------------------------------------------------------
# Gamma


def test_gamma_trefoil_table():
    C = trefoil()
    vals = E.gamma(C, range(-2, 4))
    assert vals == {-2: Fraction(0), -1: Fraction(0), 0: Fraction(0),
                    1: Fraction(1, 3), 2: E.INFINITY, 3: E.INFINITY}
    assert all(type(v) is Fraction for v in list(vals.values())[:4])


def test_gamma_tensor_square_monotone():
    C = trefoil()
    T = S.tensor(C, C)
    vals = list(E.gamma(T, range(-1, 3)).values())
    assert vals == [Fraction(0), Fraction(0), Fraction(1, 3),
                    Fraction(2, 3)]
    assert E.gamma(T, [3]) == {3: E.INFINITY}
    assert E.gamma(T, []) == {}
    # non-decreasing and positive for positive k
    finite = [v for v in vals if v is not E.INFINITY]
    assert finite == sorted(finite)
    assert all(v > 0 for v in vals[2:])


def test_gamma_finite_iff_k_below_h():
    C = trefoil()
    h = E.h_invariant(C)
    for k, val in E.gamma(C, range(-2, h + 3)).items():
        assert (val is not E.INFINITY) == (k <= h)


def _law_factor(name):
    """T1, T2: the trefoil and its square; K(p,q): the two-bridge knot."""
    if name.startswith("T"):
        C = trefoil()
        return C if name == "T1" else S.tensor(C, C)
    p, q = map(int, name[2:-1].split(","))
    return knots.two_bridge_complex(p, q)


# the factors over universal(3), then those over universal(5): products
# are taken within each group only
_LAW_GROUPS = (("K(3,1)", "K(3,2)", "T1", "T2"), ("K(5,2)", "K(5,3)"))
# the left-handed trefoil K(3,1) against a right-handed one: h = 0 or 1,
# yet Gamma(h) comes out infinite
_GAMMA_AUDIT = pytest.mark.xfail(strict=True, reason=(
    "Gamma audit: Gamma(h) is infinity on a product of the left- and the "
    "right-handed trefoil; the aligned-representative basis is suspect"))
_MIXED = {("K(3,1)", b) for b in ("K(3,2)", "T1", "T2")}


def _law_cases():
    for group in _LAW_GROUPS:
        yield from (pytest.param((a,), id=a) for a in group)
        for a in group:
            for b in group:
                mixed = (a, b) in _MIXED or (b, a) in _MIXED
                yield pytest.param((a, b), id=f"{a}x{b}",
                                   marks=[_GAMMA_AUDIT] if mixed else [])


@pytest.mark.parametrize("factors", _law_cases())
def test_gamma_finite_up_to_h_and_non_decreasing(factors):
    C = _law_factor(factors[0])
    for f in factors[1:]:
        C = S.tensor(C, _law_factor(f))
    h = E.h_invariant(C)
    ks = range(h - 2, h + 3)
    vals = list(E.gamma(C, ks).values())
    assert [v is not E.INFINITY for v in vals] == [k <= h for k in ks]
    finite = [v for v in vals if v is not E.INFINITY]
    assert finite == sorted(finite)


def _gamma_by_kernels(C, k):
    """Gamma(k) level by level: the least level t at which a fraction-field
    kernel vector of A_k on the unknowns at levels <= t is not killed by
    T_k (for k <= 0, only from level 0 on)."""
    unknowns = [(i, shift, g.deg_I + shift) for i, g in enumerate(C.gens)
                if (shift := Fraction(2 * k - 1 - g.gr_mod4, 4)).denominator
                == 1]
    unknowns += [(C.n + i, Fraction(k + i, 2), Fraction(0))
                 for i in range(k % 2, 1 - k, 2)]
    A, T = (helpers.reference_u_split(M, unknowns)
            for M in helpers.split_level_system(
                E._level_system(C, E._blocks(C, E.v_powers(C, C.n), k, k),
                                k)))
    for t in sorted({level for *_, level in unknowns}):
        if t < 0 and k <= 0:
            continue
        cols = [c for c, u in enumerate(unknowns) if u[2] <= t]
        K = L.kernel_fraction_field(A.columns_selected(cols))
        if not (T.columns_selected(cols) * K).is_zero():
            return t
    return E.INFINITY


def _gamma_oracle_cases():
    yield from ("T1", "T2", "T3", "T4", "T4xT1")
    for group in _LAW_GROUPS:
        yield from group
        yield from (f"{a}x{b}" for a in group for b in group)


@pytest.mark.parametrize("name", _gamma_oracle_cases())
def test_gamma_matches_the_kernel_oracle(name):
    # the mixed trefoil products are included: gamma must keep their
    # (audited) values until the bigrading is settled
    C = reduce(S.tensor, [_trefoil_power(int(f[1])) if f[0] == "T"
                          else _law_factor(f) for f in name.split("x")])
    _assert_gamma_matches_the_kernel_oracle(C, name)


def _assert_gamma_matches_the_kernel_oracle(C, name):
    """Gamma on k = -3..6, one level per call and in one range call,
    against the kernel oracle."""
    want = {k: _gamma_by_kernels(C, k) for k in range(-3, 7)}
    assert {k: E.gamma(C, [k])[k] for k in want} == want, name
    assert E.gamma(C, range(-3, 7)) == want, name


def test_gamma_matches_the_kernel_oracle_on_two_bridge_complexes():
    from math import gcd
    checked = 0
    for p in range(3, 40, 2):
        for q in range(1 - p, p):
            if not q or gcd(p, q) != 1:
                continue
            try:
                C = knots.two_bridge_complex(p, q)
            except knots.InconsistentComplexError:
                continue
            if C.v_trusted:
                checked += 1
                _assert_gamma_matches_the_kernel_oracle(C, (p, q))
    assert checked >= 8


def test_gamma_needs_instanton_grading():
    C = trefoil("f2t")
    with pytest.raises(E.UnsupportedRingError):
        E.gamma(C, [1])


# ---------------------------------------------------------------------------
# presentations


def test_hat_presentation_trefoil():
    pres = E.hat_presentation(trefoil("f2t"))
    assert pres.generators == ["xi1", "e0"]
    rx = pres.ring
    x = R.var(rx, "x")
    t = R.var(rx, "T")
    assert pres.relations.cols == 1
    assert pres.relations[0, 0] == x
    assert pres.relations[1, 0] == t ** 2 + t ** -2


def test_hat_presentation_trivial_is_free():
    pres = E.hat_presentation(S.SComplex.trivial(R.F2T))
    assert pres.generators == ["e0"]
    assert pres.relations.cols == 0


def test_hat_presentation_refuses_untrusted():
    with pytest.raises(E.UntrustedVError):
        E.hat_presentation(knots.two_bridge_complex(5, -1, "f2t"))


def test_hat_presentation_refuses_nonzero_differential():
    ring = R.F2T
    one, z = R.one(ring), R.zero(ring)
    gens = [S.Generator("a", 1), S.Generator("b", 0)]
    d = L.Matrix(ring, [[z, z], [one, z]])
    C = S.SComplex(ring, gens, d, L.Matrix.zeros(ring, 2, 2),
                   L.Matrix.zeros(ring, 1, 2), L.Matrix.zeros(ring, 2, 1))
    with pytest.raises(E.EquivariantError):
        E.hat_presentation(C)


def test_bn_presentation_trefoil():
    pres = E.bn_presentation(E.hat_presentation(trefoil("f2t")))
    assert pres.ring == R.S_BN
    P = E.bn_p_element(R.S_BN)
    t1 = R.var(R.S_BN, "T1")
    assert pres.relations.cols == 1
    assert pres.relations[0, 0] == P
    assert pres.relations[1, 0] == t1 ** 2 + t1 ** -2
    assert len(P.sorted_terms()) == 4


def test_bn_presentation_trivial():
    pres = E.bn_presentation(
        E.hat_presentation(S.SComplex.trivial(R.F2T)))
    assert pres.generators == ["e0"] and pres.relations.cols == 0


def test_bn_presentation_sharp_variant():
    pres = E.bn_presentation(E.hat_presentation(trefoil("f2t")),
                             target="sharp")
    assert pres.ring == R.R_SHARP
    t0 = R.var(R.R_SHARP, "T0")
    assert pres.relations[1, 0] == t0 ** 2 + t0 ** -2
    assert len(pres.relations[0, 0].sorted_terms()) == 4


# ---------------------------------------------------------------------------
# small triangle exactness (homology level, truncated)


def _column_space_ranks(*mats):
    pieces, cols = [], 0
    for M in mats:
        pieces.append((0, cols, M))
        cols += M.cols
    return L.rank(L.assemble(mats[0].ring, mats[0].rows, cols, pieces))


def test_small_triangle_chain_identities_and_exactness():
    rng = random.Random(1414)
    for _ in range(12):
        C = helpers.random_scomplex(rng, R.F2T, max_gens=6)
        depth = C.n + 2
        mats = E.small_triangle_matrices(C, depth)
        d_hat, d_chk = mats["d_hat"], mats["d_check"]
        i_m, j_m, p_m = mats["i"], mats["j"], mats["p"]
        assert (d_hat * d_hat).is_zero()
        assert (d_chk * d_chk).is_zero()
        # i and p are chain maps to/from the zero-differential bar module
        assert (i_m * d_hat).is_zero()
        assert (d_chk * p_m).is_zero()
        # j is a chain map from check to hat
        assert (j_m * d_chk - d_hat * j_m).is_zero()
        # exactness at the hat spot: ker(i_*) = im(j_*)
        Z = L.kernel_basis(d_hat)
        B = d_hat  # columns span the boundaries
        ker_i = L.kernel_basis(L.assemble(
            C.ring, d_hat.rows + i_m.rows, d_hat.cols,
            [(0, 0, d_hat), (d_hat.rows, 0, i_m)]))
        Z_chk = L.kernel_basis(d_chk)
        j_cycles = j_m * Z_chk
        lhs = _column_space_ranks(ker_i, B)
        rhs = _column_space_ranks(j_cycles, B)
        both = _column_space_ranks(ker_i, j_cycles, B)
        assert lhs == rhs == both
