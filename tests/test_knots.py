"""Two-bridge generation, lens-space homology, torus formulas and the
signature oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from scx import equivariant as E
from scx import knots as K
from scx import linalg as L
from scx import rings as R
from scx import scomplex as S

import helpers


# ---------------------------------------------------------------------------
# congruence counting and certificates


def test_count_examples_frozen_from_enumeration():
    # expected pairs computed with the naive double-loop oracle
    assert K.count_N1N2(1, 1, 3, -1) == (1, 0)
    assert K.count_N1N2(2, 2, 5, -1) == (3, 0)
    assert K.count_N1N2(1, 4, 5, -1) == (1, 2)


def test_count_matches_naive_oracle_randomized():
    rng = random.Random(11)
    for _ in range(120):
        p = rng.choice([3, 5, 7, 9, 11, 13])
        q = rng.choice([q for q in range(-p + 1, p) if gcd(p, q) == 1])
        k1, k2 = rng.randint(1, 12), rng.randint(1, 12)
        assert K.count_N1N2(k1, k2, p, q) == \
            helpers.naive_counts(k1, k2, p, q)


def test_capped_counts_match_naive_oracle_randomized():
    # the certificate sweep's caps N1 <= 1, N2 <= 2 give the exact counts
    # or None; boxes are drawn as the sweep visits them, k1 k2 <= 4p
    rng = random.Random(29)
    outcomes = set()
    for _ in range(600):
        p = rng.randrange(3, 42, 2)
        q = rng.choice([q for q in range(-p + 1, p) if gcd(p, q) == 1])
        k1 = rng.randint(1, 4 * p)
        k2 = rng.randint(1, 4 * p // k1)
        counts = helpers.naive_counts(k1, k2, p, q)
        capped = K._box_counts(k1, k2, p, q, pow(q, -1, p), caps=(1, 2))
        if counts[0] <= 1 and counts[1] <= 2:
            assert capped == counts, (k1, k2, p, q)
        else:
            assert capped is None, (k1, k2, p, q)
        outcomes.add(counts if capped else None)
    assert {None, (1, 0), (1, 2)} <= outcomes


def test_solve_k1k2_trefoil():
    cert = K.solve_k1k2(3, -1, 1, 0)
    assert (cert.k1, cert.k2) == (1, 1)
    assert (cert.N1, cert.N2) == (1, 0)


def test_solve_k1k2_matches_naive_search():
    for (p, q, i, j) in [(5, -1, 1, 0), (5, -1, 2, 0), (7, 2, 1, 0),
                         (7, 2, 2, 1), (9, 2, 3, 0), (11, 3, 2, 4)]:
        got = K.solve_k1k2(p, q % p, i, j)
        want = helpers.naive_cert_search(p, q % p, i, j)
        if want is None:
            assert got is None, (p, q, i, j, got)
        else:
            assert got is not None and got.k1 * got.k2 == want[0] * want[1]


def test_solve_k1k2_none_case():
    assert K.solve_k1k2(5, -1, 2, 1) is None


@pytest.mark.parametrize("i, j, boundary", [
    (1, 1, 0), (1, 0, 1), (0, 1, 4), (3, 0, 0), (0, 3, 2), (-1, 0, 0)])
def test_solve_k1k2_refusals(i, j, boundary):
    # K(5, q) has indices 0..2; boundary counts other than 0 and 2 have
    # no table
    with pytest.raises(K.KnotError):
        K.solve_k1k2(5, -1, i, j, boundary)


def test_certificate_tables_match_the_naive_search():
    # each box of the one sweep is credited to the one pair whose
    # congruences it solves; the first box per pair and boundary count
    # is the exhaustive search's
    def box(cert):
        return None if cert is None else (cert.k1, cert.k2)

    for p in range(1, 14, 2):
        m = (p - 1) // 2
        for q in range(p):
            if gcd(p, q) != 1:
                continue
            tables = K._certificate_table(p, q)
            assert sorted(tables) == [0, 2]
            for boundary, table in tables.items():
                assert list(table) == [(i, j) for i in range(m + 1)
                                       for j in range(m + 1) if i != j]
                for (i, j), cert in table.items():
                    want = helpers.naive_cert_search(p, q, i, j,
                                                     boundary=boundary)
                    assert box(cert) == want, (p, q, i, j, boundary)
                    if cert is not None:
                        assert (cert.i, cert.j, cert.N1, cert.N2) == \
                            (i, j, 1, boundary)


def test_certificate_action_bound():
    # accepted certificates stay below action 2p across a sweep
    for p in range(3, 22, 2):
        for q in range(1, p):
            if gcd(p, q) == 1:
                for (i, j), cert in K._certificate_table(p, q)[0].items():
                    if cert is not None:
                        assert cert.k1 * cert.k2 < 2 * p


def test_certificate_existence_mirror_symmetric():
    # flows are orientation-asymmetric: reversing a pair corresponds to
    # reversing orientation, i.e. passing from q to -q, with equal action;
    # this holds for the moduli points and the one-dimensional moduli
    for p in range(3, 22, 2):
        for q in range(1, p):
            if gcd(p, q) == 1:
                tables = K._certificate_table(p, q)
                mirrors = K._certificate_table(p, (-q) % p)
                for boundary in (0, 2):
                    mirror = mirrors[boundary]
                    for (i, j), cert in tables[boundary].items():
                        other = mirror[(j, i)]
                        assert (cert is None) == (other is None), \
                            (p, q, i, j, boundary)
                        if cert is not None:
                            assert cert.k1 * cert.k2 == other.k1 * other.k2


def test_grading_well_defined_across_solution_choices():
    # gr = N1 + N2/2 (mod 4) must not depend on the congruence solution
    for (p, q) in [(3, 2), (5, 4), (7, 3), (9, 2), (11, 7)]:
        qinv = pow(q, -1, p)
        for i in range(1, (p - 1) // 2 + 1):
            values = set()
            for e1 in (1, -1):
                base_k1 = (e1 * i) % p or p
                base_k2 = (-qinv * e1 * i) % p or p
                for a in range(3):
                    for b in range(3):
                        n1, n2 = K.count_N1N2(base_k1 + a * p,
                                              base_k2 + b * p, p, q)
                        assert n1 % 2 == 1 and n2 % 2 == 0
                        values.add((n1 + n2 // 2) % 4)
            assert len(values) == 1, (p, q, i, values)


# ---------------------------------------------------------------------------
# the generated complexes


def test_trefoil_full_structure():
    C = K.two_bridge_complex(3, -1)
    assert C.ring == R.universal(3)
    assert len(C.gens) == 1
    g = C.gens[0]
    assert g.gr_mod4 == 1 and g.deg_I == Fraction(1, 3)
    assert C.delta1[0, 0].to_str() == "U^{1/3}*T^2 - U^{1/3}*T^-2"
    assert C.d.is_zero() and C.v.is_zero() and C.delta2.is_zero()
    assert C.v_trusted
    assert S.validate(C).ok


def test_k5_structure_from_certificates():
    C = K.two_bridge_complex(5, -1)
    assert [g.gr_mod4 for g in C.gens] == [1, 3]
    assert [g.deg_I for g in C.gens] == [Fraction(1, 5), Fraction(4, 5)]
    assert C.delta1[0, 0].to_str() == "U^{1/5}*T^2 - U^{1/5}*T^-2"
    assert C.delta1[0, 1].is_zero()
    assert C.d.is_zero() and C.delta2.is_zero()
    assert not C.v_trusted
    assert S.validate(C).ok


def test_untwisted_complex_is_zero():
    C = K.two_bridge_complex(3, -1, "z")
    assert C.d.is_zero() and C.delta1.is_zero() and C.delta2.is_zero()
    assert C.v_trusted


def test_two_bridge_rejects_bad_parameters():
    with pytest.raises(K.KnotError):
        K.two_bridge_complex(4, 1)
    with pytest.raises(K.KnotError):
        K.two_bridge_complex(9, 3)


def test_sign_colliding_knot_refused_over_z_available_over_f2():
    # K(17,5) has colliding broken flow lines: the signed integer lift is
    # not determined, the characteristic-two complex is
    with pytest.raises(K.InconsistentComplexError):
        K.two_bridge_complex(17, 5)
    C = K.two_bridge_complex(17, 5, "f2t")
    assert (C.d * C.d).is_zero()
    assert (C.d * C.delta2).is_zero()
    assert (C.delta1 * C.d).is_zero()


def test_directed_cycle_of_entries_is_refused(monkeypatch):
    # a 2-cycle (1, 2), (2, 1) of surviving (odd k1*k2) moduli entries
    # leaves the +1 sign normalization unjustified
    table = K._certificate_table

    def with_cycle(p, q):
        tables = table(p, q)
        moduli = dict(tables[0])
        moduli[(1, 2)] = K.ModuliCertificate(1, 2, 1, 1, 1, 0)
        moduli[(2, 1)] = K.ModuliCertificate(2, 1, 1, 3, 1, 0)
        return {**tables, 0: moduli}

    monkeypatch.setattr(K, "_certificate_table", with_cycle)
    K._two_bridge_data.cache_clear()
    try:
        with pytest.raises(K.InconsistentComplexError, match="directed cycle"):
            K.two_bridge_complex(7, 2)
    finally:
        K._two_bridge_data.cache_clear()


def test_q_normalization_recorded():
    rep = K.two_bridge_report(3, -1, K.two_bridge_complex(3, -1))
    assert any("normalized" in n for n in rep.notes)
    C1 = K.two_bridge_complex(3, -1)
    C2 = K.two_bridge_complex(3, 2)
    assert C1.delta1[0, 0] == C2.delta1[0, 0]


# ---------------------------------------------------------------------------
# Sasahira lens homology


def test_lens_single_generator():
    ranks = K.lens_sasahira(3, 1)
    assert sum(ranks.values()) == 1


def test_lens_vanishing_families():
    assert sum(K.lens_sasahira(9, 2).values()) == 0
    assert sum(K.lens_sasahira(17, 2).values()) == 0


def test_lens_graded_comparison_sweep():
    # graded F4 ranks of the specialized two-bridge complex match the
    # lens-space homology of the mirror parameter
    for p in range(3, 16, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            C = K.two_bridge_complex(p, q, "f4")
            ranks = {}
            for g in range(4):
                cols = [i for i in range(C.n)
                        if C.gens[i].gr_mod4 % 4 == g]
                up = [i for i in range(C.n)
                      if C.gens[i].gr_mod4 % 4 == (g + 1) % 4]
                ranks[g] = (len(cols)
                            - L.rank(C.d.columns_selected(cols))
                            - L.rank(C.d.columns_selected(up)
                                     .rows_selected(cols)))
            assert ranks == K.lens_sasahira(p, -q), (p, q)


# ---------------------------------------------------------------------------
# torus knots


def test_torus_signatures():
    assert K.torus_signature(3, 5) == -8
    assert K.torus_signature(3, 4) == -6
    assert K.torus_signature(2, 3) == -2  # handled by swapping to (3, 2)


def test_torus_alexander():
    delta, total = K.torus_alexander(3, 5)
    assert total == 7
    assert K.torus_alexander(3, 4)[1] == 5
    d23, t23 = K.torus_alexander(2, 3)
    assert d23.to_str() == "T - 1 + T^-1" and t23 == 3


def test_torus_closed_forms_agree_with_counting():
    # the closed-form branches assert agreement internally; sweep them
    for p in range(3, 16, 2):
        for q in range(2, 61):
            if gcd(p, q) == 1:
                K.torus_signature(p, q)
                K.torus_alexander(p, q)


def test_torus_alexander_semigroup_matches_division():
    pairs = [(p, q) for p in range(2, 16) for q in range(p + 1, 61)
             if gcd(p, q) == 1] + [(3, 599), (7, 199), (13, 97)]
    for p, q in pairs:
        assert K.torus_alexander(p, q)[0] == \
            helpers.torus_alexander_by_division(p, q), (p, q)


def test_torus_two_q_is_two_bridge_q_minus_one():
    # T(2, q) is the two-bridge knot K(q, -1); K(q, 1) is its mirror,
    # whose signature has the other sign
    for q in range(3, 152, 2):
        sigma = K.torus_signature(2, q)
        assert sigma == K.two_bridge_signature_oracle(q, -1) == -(q - 1)
        assert K.two_bridge_signature_oracle(q, 1) == q - 1


def test_vanishing_families():
    assert K.vanishing_check(3, 8) is True      # q = 2pk + 2, k = 1
    assert K.vanishing_check(5, 7) is True      # q = 2pk - (2 - p), k = 1
    assert K.vanishing_check(3, 5) is False
    assert K.vanishing_check(3, 4) is False


# ---------------------------------------------------------------------------
# signature oracle


def test_signature_oracle_known_values():
    assert K.two_bridge_signature_oracle(3, -1) == -2   # right trefoil
    assert K.two_bridge_signature_oracle(3, 1) == 2     # left trefoil
    assert K.two_bridge_signature_oracle(5, -1) == -4   # T(2,5)
    assert K.two_bridge_signature_oracle(5, 2) == 0     # figure eight
    assert K.two_bridge_signature_oracle(7, -1) == -6   # T(2,7)


def test_signature_oracle_matches_the_sign_sum():
    # the signs of the continued-fraction pivots against an independent
    # count: sigma(K(p, q)) is the sum over 0 < i < p of
    # (-1)^floor(i q' / p), q' = q mod p made odd; p = 1 is the unknot
    for p in range(1, 152, 2):
        for q in range(1 - p, p):
            if gcd(p, q) != 1:
                continue
            odd = q % p if q % p % 2 else q % p - p
            assert K.two_bridge_signature_oracle(p, q) == sum(
                (-1) ** (i * odd // p) for i in range(1, p)), (p, q)


def test_euler_equals_half_signature_sweep():
    for p in range(3, 20, 2):
        for q in range(1, p):
            if gcd(p, q) == 1:
                C = K.two_bridge_complex(p, q, "f2t")
                assert 2 * S.euler_characteristic(C) == \
                    K.two_bridge_signature_oracle(p, q), (p, q)


# ---------------------------------------------------------------------------
# fixtures and reports


def test_fixture_homology_ranks():
    assert L.homology(K.fixture("t35").dtilde()[1]).free_rank == 7
    assert L.homology(K.fixture("t34").dtilde()[1]).free_rank == 5


def test_fixture_h_over_q():
    for name in ("t34", "t35"):
        C = K.fixture(name)
        CQ = S.base_change_complex(C, S.standard_assignment(R.Z, R.Q), R.Q)
        assert E.h_invariant(CQ) == 1


def test_fixture_unknown_name():
    with pytest.raises(K.KnotError):
        K.fixture("nope")


def test_report_contents():
    rep = K.two_bridge_report(3, -1, K.two_bridge_complex(3, -1))
    assert rep.invariants["h"] == 1
    assert rep.invariants["euler_characteristic"] == -1
    assert rep.invariants["signature_oracle"] == -2
    rep5 = K.two_bridge_report(5, -1, K.two_bridge_complex(5, -1))
    assert "h" not in rep5.invariants
    assert rep5.warnings
    # monopole parity metadata of would-be v entries is recorded
    assert any("parities" in n for n in rep5.notes)
