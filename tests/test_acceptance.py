"""Acceptance gate: one test per criterion, exact tolerances, stated time
budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass lines."""

import random
import time
from fractions import Fraction
from math import gcd

from scx import equivariant as E
from scx import knots as K
from scx import linalg as L
from scx import rings as R
from scx import scomplex as S

import helpers


def _report(num, budget, elapsed, detail):
    line = (f"[criterion {num:>2}] PASS in {elapsed:6.2f}s"
            f" (budget {budget}s): {detail}")
    print(line)


def _coprime_pairs(limit):
    return [(p, q) for p in range(3, limit + 1, 2)
            for q in range(1, p) if gcd(p, q) == 1]


def test_criterion_01_trefoil_golden():
    t0 = time.monotonic()
    C = K.two_bridge_complex(3, -1)
    assert C.n == 1
    g = C.gens[0]
    assert g.gr_mod4 == 1
    assert g.deg_I == Fraction(1, 3)
    want = R.parse(C.ring, "U^{1/3}*T^2 - U^{1/3}*T^-2")
    assert C.delta1[0, 0] in (want, -want)
    assert C.d.is_zero() and C.v.is_zero() and C.delta2.is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, 1, elapsed, "trefoil generator, grading, level and delta1")


def test_criterion_02_h_invariants():
    t0 = time.monotonic()
    assert E.h_invariant(K.two_bridge_complex(3, -1, "f2t")) == 1
    assert E.h_invariant(K.two_bridge_complex(3, -1, "qt")) == 1
    for p, q in _coprime_pairs(35):
        assert E.h_invariant(K.two_bridge_complex(p, q, "z")) == 0, (p, q)
    for name in ("t34", "t35"):
        C = K.fixture(name)
        CQ = S.base_change_complex(C, S.standard_assignment(R.Z, R.Q), R.Q)
        assert E.h_invariant(CQ) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, 10, elapsed,
            "h = 1 twisted trefoil, 0 untwisted two-bridge, 1 torus fixtures")


def test_criterion_03_ideal_sequence():
    t0 = time.monotonic()
    C = K.two_bridge_complex(3, -1, "zt")
    J = E.j_ideals(C, -1, 2)
    t = R.var(R.ZT, "T")
    assert J[1] == [R.normalize_associate(t ** 2 - t ** -2)]
    assert J[2] == []
    assert J[0] == [R.one(R.ZT)]
    elapsed = time.monotonic() - t0
    _report(3, "-", elapsed, "J1 = (T^2 - T^-2), J2 = 0, J0 = ring")


def test_criterion_04_gamma_table():
    t0 = time.monotonic()
    C = K.two_bridge_complex(3, -1)
    vals = E.gamma(C, [-3, -1, 0, 1, 2, 3, 4])
    for k in (-3, -1, 0):
        assert vals[k] == Fraction(0)
    assert vals[1] == Fraction(1, 3)
    for k in (2, 3, 4):
        assert vals[k] is E.INFINITY
    elapsed = time.monotonic() - t0
    _report(4, "-", elapsed, "Gamma = 0 | 1/3 | infinity")


def test_criterion_05_sasahira_vanishing():
    t0 = time.monotonic()
    assert sum(K.lens_sasahira(9, 2).values()) == 0
    assert sum(K.lens_sasahira(17, 2).values()) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(5, 5, elapsed, "lens (9,2) and (17,2) total rank 0")


def _graded_f4_ranks(C):
    out = {}
    for g in range(4):
        cols = [i for i in range(C.n) if C.gens[i].gr_mod4 % 4 == g]
        up = [i for i in range(C.n) if C.gens[i].gr_mod4 % 4 == (g + 1) % 4]
        out[g] = (len(cols) - L.rank(C.d.columns_selected(cols))
                  - L.rank(C.d.columns_selected(up).rows_selected(cols)))
    return out


def test_criterion_06_sasahira_comparison():
    t0 = time.monotonic()
    for p, q in _coprime_pairs(35):
        C = K.two_bridge_complex(p, q, "f4")
        assert _graded_f4_ranks(C) == K.lens_sasahira(p, -q), (p, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, 60, elapsed,
            "graded F4 ranks match the lens homology for all p <= 35")


def test_criterion_07_euler_vs_signature():
    t0 = time.monotonic()
    for p, q in _coprime_pairs(35):
        C = K.two_bridge_complex(p, q, "f2t")
        assert 2 * S.euler_characteristic(C) == \
            K.two_bridge_signature_oracle(p, q), (p, q)
    elapsed = time.monotonic() - t0
    _report(7, "-", elapsed,
            "2*chi equals the continued-fraction signature for all p <= 35")


def test_criterion_08_torus_tables():
    t0 = time.monotonic()
    assert K.torus_signature(3, 5) == -8
    assert K.torus_alexander(3, 5)[1] == 7
    assert K.torus_signature(3, 4) == -6
    assert K.torus_alexander(3, 4)[1] == 5
    # closed forms vs lattice counting for every applicable pair (the
    # assertions live inside the two functions)
    for p in range(3, 16, 2):
        for q in range(2, 61):
            if gcd(p, q) == 1:
                K.torus_signature(p, q)
                K.torus_alexander(p, q)
    # vanishing on the two families within range
    families = []
    for p in range(3, 16, 2):
        for k in range(1, 61):
            q = 2 * p * k + 2
            if q <= 60:
                families.append((p, q))
            if p % 4 == 1:
                q = 2 * p * k + 2 - p
                if 2 <= q <= 60:
                    families.append((p, q))
            if p % 4 == 3:
                q = 2 * p * k - 2 + p
                if 2 <= q <= 60:
                    families.append((p, q))
    assert families
    for p, q in families:
        assert gcd(p, q) == 1 and K.vanishing_check(p, q), (p, q)
    assert not K.vanishing_check(3, 5)
    assert not K.vanishing_check(3, 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(8, 30, elapsed,
            f"signatures, Alexander norms, {len(families)} vanishing pairs")


def test_criterion_09_fixture_ranks():
    t0 = time.monotonic()
    assert L.homology(K.fixture("t35").dtilde()[1]).free_rank == 7
    assert L.homology(K.fixture("t34").dtilde()[1]).free_rank == 5
    elapsed = time.monotonic() - t0
    _report(9, "-", elapsed, "rank 7 for t35 and 5 for t34")


def test_criterion_10_unreduced_theory():
    t0 = time.monotonic()
    tref = K.two_bridge_complex(3, -1)
    qt = S.base_change_complex(
        tref, S.standard_assignment(tref.ring, R.QT, U="1"), R.QT)
    gens, D = S.sharp_complex(qt, twisted=True)
    assert len(gens) - 2 * L.rank_fraction_field(D) == 2
    # untwisted over F2: double the reduced rank
    for C in (K.two_bridge_complex(3, -1, "f2"),
              K.two_bridge_complex(3, -1, "f2t"),
              K.two_bridge_complex(7, 3, "f2t")):
        _names, dt = C.dtilde()
        reduced = L.homology(dt).free_rank
        assert L.homology(S.sharp_complex(C)[1]).free_rank == 2 * reduced
    elapsed = time.monotonic() - t0
    _report(10, "-", elapsed,
            "twisted cone rank 2; untwisted F2 cone splits doubly")


def test_criterion_11_bn_presentation():
    t0 = time.monotonic()
    pres = E.bn_presentation(
        E.hat_presentation(K.two_bridge_complex(3, -1, "f2t")))
    P = E.bn_p_element(R.S_BN)
    t1 = R.var(R.S_BN, "T1")
    assert pres.relations.cols == 1
    assert pres.relations.rows == 2
    assert pres.relations[0, 0] == P
    assert pres.relations[1, 0] == t1 ** 2 + t1 ** -2
    elapsed = time.monotonic() - t0
    _report(11, "-", elapsed, "cokernel of 1 -> (P, T^2 + T^-2)")


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    # (a) validate on tensors and duals: 200 cases
    rng = random.Random(2024)
    for case in range(100):
        ring = (R.ZT, R.F2T, R.QT)[case % 3]
        A = helpers.random_scomplex(rng, ring, max_gens=8)
        B = helpers.random_scomplex(rng, ring, max_gens=4,
                                    allow_dual=False)
        if 2 * A.n * B.n + A.n + B.n <= 22:
            assert S.validate(S.tensor(A, B)).ok
        assert S.validate(S.dual(A)).ok

    # (b) h additivity and dual negation: 100 cases over F2[T-Laurent]
    rng = random.Random(2025)
    for case in range(100):
        A = helpers.random_scomplex(rng, R.F2T, max_gens=6)
        B = helpers.random_scomplex(rng, R.F2T, max_gens=3,
                                    allow_dual=False)
        hA = E.h_invariant(A)
        assert E.h_invariant(S.dual(A)) == -hA
        if 2 * A.n * B.n + A.n + B.n <= 16:
            assert E.h_invariant(S.tensor(A, B)) == hA + E.h_invariant(B)

    # (c) model equivalence at truncation 5: 100 cases
    rng = random.Random(2026)
    for case in range(100):
        ring = (R.ZT, R.F2T)[case % 2]
        C = helpers.random_scomplex(rng, ring, max_gens=6)
        assert E.verify_model_equivalence(C, 5).ok

    # (d) Smith certificates: 500 cases over Z and F2[T-Laurent]
    rng = random.Random(2027)
    for case in range(500):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if case % 2 == 0:
            M = helpers.int_matrix(
                R.Z, [[rng.randint(-9, 9) for _ in range(n)]
                      for _ in range(m)])
        else:
            M = L.Matrix(R.F2T,
                         [[helpers.random_poly(rng, R.F2T, allow_zero=True)
                           for _ in range(n)] for _ in range(m)])
        s = L.smith_normal_form(M)
        assert s.U * M * s.V == s.D
        diag = s.invariant_factors()
        for a, b in zip(diag, diag[1:]):
            assert R.divide(b, a) is not None

    # (e) J nesting and tensor sub-multiplicativity: 50 cases
    rng = random.Random(2028)
    for case in range(50):
        A = helpers.random_scomplex(rng, R.F2T, max_gens=5)
        B = helpers.random_scomplex(rng, R.F2T, max_gens=3,
                                    allow_dual=False)
        JA = E.j_ideals(A)
        idx = sorted(JA)
        for i in idx[:-1]:
            hi, lo = JA[i + 1], JA[i]
            if hi:
                assert lo and R.divide(hi[0], lo[0]) is not None
        if 2 * A.n * B.n + A.n + B.n > 14:
            continue
        T = S.tensor(A, B)
        JB = E.j_ideals(B)
        JT = E.j_ideals(T, min(idx) + min(sorted(JB)),
                        max(idx) + max(sorted(JB)))
        for i in idx:
            for j in sorted(JB):
                if JA[i] and JB[j] and (i + j) in JT:
                    prod = JA[i][0] * JB[j][0]
                    assert JT[i + j] and \
                        R.divide(prod, JT[i + j][0]) is not None, \
                        (case, i, j)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(12, 120, elapsed,
            "tensor/dual validation, h additivity, model equivalence, "
            "Smith certificates, ideal nesting")
