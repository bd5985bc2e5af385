"""S-complex validation, tensors, duals, morphisms, base change, the
mapping-cone model and the JSON wire format."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from scx import knots, linalg as L, rings as R, scomplex as S

import helpers


def trefoil():
    return knots.fixture("trefoil")


def test_validate_trefoil_passes():
    assert S.validate(trefoil()).ok


def test_generator_grading_is_reduced_mod_4():
    assert S.Generator("a", 5).gr_mod4 == 1
    assert S.Generator("a", -1).gr_mod4 == 3
    assert S.Generator("a", 7, Fraction(1, 3)) == S.Generator("a", 3,
                                                              Fraction(1, 3))


def test_validation_report_is_ok_until_a_failure_is_added():
    rep = S.ValidationReport()
    assert rep.ok and rep and rep.failures == []
    rep.add("d*d != 0")
    assert not rep.ok and not rep and rep.failures == ["d*d != 0"]


def test_validate_flags_bad_grading():
    bad = S.SComplex(R.Z, [S.Generator("a", 0)],
                     L.Matrix(R.Z, [[R.one(R.Z)]]),
                     L.Matrix.zeros(R.Z, 1, 1), L.Matrix.zeros(R.Z, 1, 1),
                     L.Matrix.zeros(R.Z, 1, 1))
    rep = S.validate(bad)
    assert not rep.ok
    assert any("grading" in f for f in rep.failures)


def test_validate_k5_with_zero_v_passes():
    C = knots.two_bridge_complex(5, -1)
    assert C.d.is_zero() and C.delta2.is_zero() and not C.v_trusted
    assert S.validate(C).ok


def test_validate_reports_broken_relation():
    ring = R.Z
    one = R.one(ring)
    z = R.zero(ring)
    # d^2 != 0 on a three-step chain within consistent gradings
    gens = [S.Generator("a", 2), S.Generator("b", 1), S.Generator("c", 0)]
    d = L.Matrix(ring, [[z, z, z], [one, z, z], [z, one, z]])
    C = S.SComplex(ring, gens, d, L.Matrix.zeros(ring, 3, 3),
                   L.Matrix.zeros(ring, 1, 3), L.Matrix.zeros(ring, 3, 1))
    rep = S.validate(C)
    assert not rep.ok and any(f.startswith("d*d") for f in rep.failures)


def _trefoil_at_level(deg_I):
    doc = S.to_dict(trefoil())
    doc["generators"][0]["deg_I"] = deg_I
    return S.from_dict(doc)


def test_level_failures_are_reported_once_per_u_exponent():
    # delta1 = U^{1/3}(T^2 - T^-2) has two terms with one U-exponent;
    # each failing (entry, U-exponent) is one line
    assert S.validate(_trefoil_at_level("1/7")).failures == [
        "delta1[0,0]: U^1/3 incompatible with levels 1/7 -> 0"]
    assert S.validate(_trefoil_at_level("-2/3")).failures == [
        "delta1[0,0]: monomial U^1/3 lands at level 1, not below -2/3"]
    assert S.validate(_trefoil_at_level("1/3")).ok


def _leveled(levels, grs, entries, ring=R.universal(3)):
    """A complex over ``ring`` with the given levels and gradings and the
    entries {(map, row, col): polynomial string}, all else zero."""
    n = len(levels)
    gens = [S.Generator(f"g{k}", gr, Fraction(level))
            for k, (gr, level) in enumerate(zip(grs, levels))]
    shapes = {"d": (n, n), "v": (n, n), "delta1": (1, n), "delta2": (n, 1)}
    maps = {name: L.Matrix.from_entries(
        ring, *shape, [(i, j, R.parse(ring, s)) for (m, i, j), s
                       in entries.items() if m == name])
        for name, shape in shapes.items()}
    return S.SComplex(ring, gens, maps["d"], maps["v"], maps["delta1"],
                      maps["delta2"])


@pytest.mark.parametrize("levels, grs, entries, failures", [
    # fractional defects, two U-exponents of one entry in term order
    (["1/3", "0", "0"], [1, 0, 2],
     {("d", 1, 0): "U^{2/3}*T + U^{1/3} - U^{-1}"},
     ["d[1,0]: U^2/3 incompatible with levels 1/3 -> 0",
      "d[1,0]: U^-1 incompatible with levels 1/3 -> 0"]),
    # above the source level in v, and at it, which v allows
    (["0", "0", "1"], [0, 2, 2],
     {("v", 1, 0): "U^2 + U", ("v", 0, 1): "U^{1/3}*T",
      ("v", 0, 2): "U^2 + U^3*T"},
     ["v[0,1]: U^1/3 incompatible with levels 0 -> 0",
      "v[0,2]: monomial U^3 lands at level 2, not below 1",
      "v[1,0]: monomial U^2 lands at level 2, not below 0",
      "v[1,0]: monomial U^1 lands at level 1, not below 0"]),
    # at the source level under strict: d, delta1 and delta2
    (["1", "0"], [1, 0],
     {("d", 1, 0): "U^2 - U", ("delta1", 0, 0): "U^{2}*T - U^{1/3}",
      ("delta2", 1, 0): "U^{1/3} + U^{-2}"},
     ["d*v - v*d - delta2*delta1 != 0",
      "delta2[1] lands in grading 0, not 2",
      "d[1,0]: monomial U^2 lands at level 1, not below 1",
      "delta1[0,0]: monomial U^2 lands at level 1, not below 1",
      "delta1[0,0]: U^1/3 incompatible with levels 1 -> 0",
      "delta2[1,0]: U^1/3 incompatible with levels 0 -> 0"]),
])
def test_level_failures_table(levels, grs, entries, failures):
    assert S.validate(_leveled(levels, grs, entries)).failures == failures


def test_level_failures_follow_the_term_order_with_x():
    # the x-degree leads the term order, so U-exponents come unsorted
    C = _leveled(["0", "0"], [1, 0],
                 {("d", 1, 0): "U^{1/3}*x + U^2 + U*x^2 + U^{1/3}"},
                 R.poly_x(R.universal(3)))
    assert S.validate(C).failures == [
        "d[1,0]: monomial U^1 lands at level 1, not below 0",
        "d[1,0]: U^1/3 incompatible with levels 0 -> 0",
        "d[1,0]: monomial U^2 lands at level 2, not below 0"]


def test_tensor_unit_and_rank_count():
    C = trefoil()
    triv = S.SComplex.trivial(C.ring)
    T = S.tensor(C, triv)
    assert T.n == C.n
    assert S.validate(T).ok
    T2 = S.tensor(C, C)
    assert T2.n == 2 * C.n * C.n + C.n + C.n
    assert S.validate(T2).ok


def test_tensor_ring_mismatch():
    with pytest.raises(R.RingMismatchError):
        S.tensor(trefoil(), S.SComplex.trivial(R.ZT))


def test_tensor_dual_validate_randomized():
    rng = random.Random(909)
    for ring in (R.ZT, R.F2T, R.QT):
        for _ in range(30):
            A = helpers.random_scomplex(rng, ring, max_gens=10)
            B = helpers.random_scomplex(rng, ring, max_gens=4,
                                        allow_dual=False)
            if 2 * A.n * B.n + A.n + B.n <= 24:
                assert S.validate(S.tensor(A, B)).ok
            assert S.validate(S.dual(A)).ok


# sha256 over json.dumps(to_dict(.)) of tensor(A, B), dual(A) and the
# negated dual of A for 30 seeded pairs per ring, recorded when tensor
# and dual were written out entry by entry
_TENSOR_DUAL_DIGESTS = {
    "Z": "446ec3b85d6de183e80e158fb56a31138755b0c15d331cf7e974855dd2f02a33",
    "ZT": "43605a3b8835a7d2b04f783423e272529c573def149376b5e424e76c7ef8f00f",
    "F2T": "69d07ded8d6834a5a6aa79caaa1c97762f17b65627fa5a862c66eafc5fce287f",
    "QT": "1b46844e23294fed4596b8e7feae62c82a962ce68385d22baeb48296f8f748e0",
    "F4T": "ede67e1353f6fcb0f63b0f5f7c26789228c6f921c3f92f27025e52a635a397f1",
    "UNIV": "4460614a1bc97294d35bcf84d8f5e72b12f12ef8a808aea0b8878d160d6a3d37",
}


def _negated_dual(A):
    """dual(A) with each grading i negated to -i instead of reversed to
    3-i: a second convention that the recorded digests include."""
    D = S.dual(A)
    gens = [S.Generator(g.name + "*", (-g.gr_mod4) % 4) for g in A.gens]
    return S.SComplex(D.ring, gens, D.d, D.v, D.delta1, D.delta2,
                      D.v_trusted)


def _tensor_dual_digest(pairs):
    h = hashlib.sha256()
    for A, B in pairs:
        for C in (S.tensor(A, B), S.dual(A), _negated_dual(A)):
            h.update(json.dumps(S.to_dict(C)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("ring", [R.Z, R.ZT, R.F2T, R.QT, R.F4T],
                         ids=lambda r: r.tag)
def test_tensor_and_dual_outputs_pinned(ring):
    rng = random.Random(2026)
    pairs = [(helpers.random_scomplex(rng, ring, max_gens=8),
              helpers.random_scomplex(rng, ring, max_gens=8))
             for _ in range(30)]
    assert _tensor_dual_digest(pairs) == _TENSOR_DUAL_DIGESTS[ring.tag]


def test_tensor_and_dual_outputs_pinned_universal():
    tre = knots.fixture("trefoil")
    k51 = knots.two_bridge_complex(5, 1, "universal")
    k52 = knots.two_bridge_complex(5, 2, "universal")
    pairs = [(tre, tre), (S.tensor(tre, tre), S.dual(tre)), (k51, k52),
             (k52, S.dual(k51))]
    assert _tensor_dual_digest(pairs) == _TENSOR_DUAL_DIGESTS["UNIV"]


def test_dual_of_trivial():
    triv = S.SComplex.trivial(R.Z)
    assert S.dual(triv).n == 0


def test_double_dual_is_isomorphic_via_minus_identity():
    rng = random.Random(111)
    for _ in range(25):
        C = helpers.random_scomplex(rng, R.ZT, max_gens=8)
        DD = S.dual(S.dual(C))
        assert [g.gr_mod4 for g in DD.gens] == [g.gr_mod4 for g in C.gens]
        assert DD.d == C.d and DD.v == C.v
        assert DD.delta1 == -C.delta1 and DD.delta2 == -C.delta2
        # lambda = -id, mu = 0 is an explicit S-isomorphism C -> dual(dual(C))
        n = C.n
        iso = S.SMorphism(C, DD, -L.Matrix.identity(C.ring, n),
                          L.Matrix.zeros(C.ring, n, n),
                          L.Matrix.zeros(C.ring, 1, n),
                          L.Matrix.zeros(C.ring, n, 1))
        assert S.check_morphism(iso).ok


def test_identity_morphism_passes():
    assert S.check_morphism(S.SMorphism.identity(trefoil())).ok


def test_h_zero_witness_morphism():
    # a morphism out of the trivial complex exists iff d alpha = delta2'
    ring = R.QT
    one = R.one(ring)
    z = R.zero(ring)
    gens = [S.Generator("top", 3), S.Generator("bot", 2)]
    d = L.Matrix(ring, [[z, z], [one, z]])
    delta2 = L.Matrix(ring, [[z], [one]])
    C = S.SComplex(ring, gens, d, L.Matrix.zeros(ring, 2, 2),
                   L.Matrix.zeros(ring, 1, 2), delta2)
    assert S.validate(C).ok
    triv = S.SComplex.trivial(ring)
    # Delta2(1) = top satisfies d(top) = delta2'(1) = bot: a valid witness
    good = S.SMorphism(triv, C, L.Matrix.zeros(ring, 2, 0),
                       L.Matrix.zeros(ring, 2, 0),
                       L.Matrix.zeros(ring, 1, 0),
                       L.Matrix(ring, [[one], [z]]))
    assert S.check_morphism(good).ok
    # Delta2(1) = bot has d(bot) = 0 != delta2'(1): the relation fails
    bad = S.SMorphism(triv, C, L.Matrix.zeros(ring, 2, 0),
                      L.Matrix.zeros(ring, 2, 0),
                      L.Matrix.zeros(ring, 1, 0),
                      L.Matrix(ring, [[z], [one]]))
    assert not S.check_morphism(bad).ok


def test_check_morphism_names_each_failing_relation():
    # the identity of the trefoil pair with 1 added to one entry of lam,
    # Delta1 or mu; on the trefoil itself d = v = 0, so bumps of Delta1
    # and mu break nothing there
    lam_d = "lambda*d - d'*lambda != 0"
    delta1 = "Delta1*d + delta1 - delta1'*lambda != 0"
    chain = ("mu*d + lambda*v + Delta2*delta1 - v'*lambda + d'*mu "
             "- delta2'*Delta1 != 0")
    C = S.tensor(trefoil(), trefoil())
    ident = S.SMorphism.identity(C)
    for name, i, j, failures in (("lam", 0, 0, [lam_d]),
                                 ("lam", 2, 3, [lam_d, delta1, chain]),
                                 ("Delta1", 0, 2, [delta1]),
                                 ("mu", 0, 0, [chain])):
        M = getattr(ident, name)
        bump = L.Matrix.from_entries(C.ring, M.rows, M.cols,
                                     [(i, j, R.one(C.ring))])
        m = ident._replace(**{name: M + bump})
        assert S.check_morphism(m).failures == failures, (name, i, j)
    across = ident._replace(target=knots.two_bridge_complex(3, -1, "zt"))
    assert S.check_morphism(across).failures == [
        "source and target over different rings"]


def test_random_matrices_fail_morphism():
    # every lam is a chain map of a complex whose maps are all zero, so
    # the draw is repeated until some structure map is nonzero
    rng = random.Random(222)
    C = helpers.random_scomplex(rng, R.ZT, max_gens=6)
    while not C.n or all(M.is_zero() for M in (C.d, C.v, C.delta1,
                                               C.delta2)):
        C = helpers.random_scomplex(rng, R.ZT, max_gens=6)
    n = C.n
    lam = L.Matrix(R.ZT, [[helpers.random_poly(rng, R.ZT, allow_zero=True)
                           for _ in range(n)] for _ in range(n)])
    m = S.SMorphism(C, C, lam, L.Matrix.zeros(R.ZT, n, n),
                    L.Matrix.zeros(R.ZT, 1, n), L.Matrix.zeros(R.ZT, n, 1))
    relations = ["lambda*d - d'*lambda != 0",
                 "Delta1*d + delta1 - delta1'*lambda != 0",
                 "d'*Delta2 - delta2' + lambda*delta2 != 0",
                 "mu*d + lambda*v + Delta2*delta1 - v'*lambda + d'*mu "
                 "- delta2'*Delta1 != 0"]
    failures = S.check_morphism(m).failures
    assert failures and all(f in relations for f in failures), failures


def test_euler_characteristics():
    assert S.euler_characteristic(trefoil()) == -1
    assert S.euler_characteristic(knots.two_bridge_complex(5, -1)) == -2
    assert S.euler_characteristic(S.SComplex.trivial(R.Z)) == 0
    # cross-validated against the signature oracle
    assert 2 * S.euler_characteristic(trefoil()) == \
        knots.two_bridge_signature_oracle(3, -1)
    assert 2 * S.euler_characteristic(knots.two_bridge_complex(5, -1)) == \
        knots.two_bridge_signature_oracle(5, -1)


def test_euler_additive_under_tensor_randomized():
    # the shifted copy cancels the irreducible one, so every total
    # complex has Euler characteristic 1, and on the irreducible parts
    # tensoring adds (half the signature is additive under connect sum)
    rng = random.Random(333)

    def chi_total(C):
        names, _dt = C.dtilde()
        return sum(1 if gr % 2 == 0 else -1 for _n, gr in names)

    for _ in range(25):
        A = helpers.random_scomplex(rng, R.F2T, max_gens=6)
        B = helpers.random_scomplex(rng, R.F2T, max_gens=4,
                                    allow_dual=False)
        assert chi_total(A) == 1
        if 2 * A.n * B.n + A.n + B.n > 30:
            continue
        T = S.tensor(A, B)
        assert chi_total(T) == chi_total(A) * chi_total(B) == 1
        assert S.euler_characteristic(T) == \
            S.euler_characteristic(A) + S.euler_characteristic(B)


def test_base_change_examples():
    C = trefoil()
    to_z = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.Z, U="1", T="1"), R.Z)
    assert to_z.d.is_zero() and to_z.delta1.is_zero() \
        and to_z.delta2.is_zero()
    to_f4 = S.base_change_complex(
        C, {"U": R.one(R.F4), "T": R.var(R.F4, "x")}, R.F4)
    assert to_f4.delta1[0, 0].is_one()
    to_zt = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.ZT, U="1"), R.ZT)
    t = R.var(R.ZT, "T")
    assert to_zt.delta1[0, 0] == t ** 2 - t ** -2


def test_sharp_untwisted_trefoil_over_q():
    C = trefoil()
    to_q = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.Q, U="1", T="1"), R.Q)
    gens, D = S.sharp_complex(to_q)
    assert len(gens) == 6
    H = L.homology(D)
    assert H.free_rank == 4


def test_sharp_cone_matches_hand_built_matrix():
    # independent oracle: write the 6x6 integer cone differential by hand
    # (the only map is 2*chi from the first copy to the shifted copy) and
    # reduce it with the transform-free integer Smith oracle
    rows = [[0] * 6 for _ in range(6)]
    rows[4][0] = 2  # 2*chi: generator -> shifted generator of copy two
    diag = helpers.naive_integer_diagonal(rows)
    assert diag == [2]
    # homology rank = 6 - 2*rank, torsion [2]
    C = trefoil()
    to_z = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.Z, U="1", T="1"), R.Z)
    H = L.homology(S.sharp_complex(to_z)[1])
    assert H.free_rank == 6 - 2 * len(diag)
    assert [str(t) for t in H.torsion] == ["2"]


def test_sharp_twisted_trefoil_rank_two():
    C = trefoil()
    to_qt = S.base_change_complex(
        C, S.standard_assignment(C.ring, R.QT, U="1"), R.QT)
    gens, D = S.sharp_complex(to_qt, twisted=True)
    assert len(gens) - 2 * L.rank_fraction_field(D) == 2


def test_sharp_trivial_rank_two():
    triv = S.SComplex.trivial(R.Q)
    assert L.homology(S.sharp_complex(triv)[1]).free_rank == 2


def test_sharp_untwisted_splits_over_f2():
    # in characteristic 2, 2 * chi and the twist vanish: the cone is
    # dtilde twice over, so its homology is that of dtilde twice (each
    # invariant factor twice, in order) and its rank twice that of dtilde
    rng = random.Random(444)
    torsion, mixed = 0, 0
    for ring in (R.F2T, R.F4T):
        for _ in range(15):
            C = helpers.random_scomplex(rng, ring, max_gens=10)
            _names, dt = C.dtilde()
            H = L.homology(dt)
            HD = L.homology(S.sharp_complex(C)[1])
            assert HD.free_rank == 2 * H.free_rank
            assert HD.torsion == [t for t in H.torsion for _ in range(2)]
            torsion += len(H.torsion)
            mixed += len({t.to_str() for t in H.torsion}) > 1
            _gens, D = S.sharp_complex(C, twisted=True)
            assert L.rank(D) == 2 * L.rank(dt)
    assert torsion >= 10 and mixed


def test_sharp_twisted_needs_t():
    with pytest.raises(S.SComplexError):
        S.sharp_complex(S.SComplex.trivial(R.Z), twisted=True)


def _bumped(rng, C):
    """C with one entry of one of its structure maps raised by 1."""
    maps = {"d": C.d, "v": C.v, "delta1": C.delta1, "delta2": C.delta2}
    label = rng.choice(sorted(maps))
    M = maps[label]
    maps[label] = M + L.Matrix.from_entries(C.ring, M.rows, M.cols, [
        (rng.randrange(M.rows), rng.randrange(M.cols), R.one(C.ring))])
    return S.SComplex(C.ring, C.gens, v_trusted=C.v_trusted, **maps)


def _cone_square(C, twisted):
    """D * D for the whole cone differential D, assembled here."""
    _names, dt = C.dtilde()
    chi, ring, size = C.chi_matrix(), C.ring, dt.rows
    pieces = [(0, 0, dt), (size, 0, chi * R.from_int(ring, 2)),
              (size, size, dt)]
    if twisted:
        t = R.var(ring, "T")
        pieces.append((0, size, chi * (2 * t ** 2 + 2 * t ** -2
                                       - R.from_int(ring, 4))))
    D = L.assemble(ring, 2 * size, 2 * size, pieces)
    return D * D


def test_sharp_refuses_exactly_when_dtilde_does_not_square_to_zero():
    # the cone squares to dt * dt on its diagonal blocks, twisted or not
    rng = random.Random(1919)
    refused = 0
    for ring in (R.ZT, R.F2T, R.QT):
        for k in range(20):
            C = helpers.random_scomplex(rng, ring, max_gens=8)
            if k % 2:
                C = _bumped(rng, C)
            _names, dt = C.dtilde()
            broken = not (dt * dt).is_zero()
            for twisted in (False, True):
                assert broken == (not _cone_square(C, twisted).is_zero())
                if not broken:
                    S.sharp_complex(C, twisted)
                    continue
                refused += 1
                with pytest.raises(S.SComplexError, match="^cone differential"
                                   " does not square to zero"):
                    S.sharp_complex(C, twisted)
    assert refused >= 10


def test_serialize_round_trip_and_determinism():
    C = trefoil()
    doc = S.to_dict(C)
    text = json.dumps(doc, indent=2)
    C2 = S.from_dict(json.loads(text))
    assert S.to_dict(C2) == doc
    assert json.dumps(S.to_dict(C2), indent=2) == text
    assert C2.gens == C.gens and C2.d == C.d and C2.delta1 == C.delta1
    assert C2.v_trusted == C.v_trusted


def test_q_coefficients_on_the_wire():
    # an integral value is the int, parsed, printed and in JSON, whatever
    # form it was written in
    cases = [("3", 3, "3*T"), ("-1", -1, "-T"),
             ("1/2", Fraction(1, 2), "1/2*T"),
             ("-3/2", Fraction(-3, 2), "-3/2*T"), ("4/2", 2, "2*T")]
    gens = [S.Generator("a", 1), S.Generator("b", 0)]
    zeros = L.Matrix.zeros(R.QT, 2, 2)
    for text, value, wire in cases:
        p = R.parse(R.QT, f"{text}*T")
        (c,) = p.terms_dict().values()
        assert c == value and type(c) is type(value)
        assert p.to_str() == wire
        C = S.SComplex(R.QT, gens, L.Matrix.from_entries(
            R.QT, 2, 2, [(1, 0, p)]), zeros, L.Matrix.zeros(R.QT, 1, 2),
            L.Matrix.zeros(R.QT, 2, 1))
        doc = json.loads(json.dumps(S.to_dict(C)))
        assert doc["d"] == [["0", "0"], [wire, "0"]]
        back = S.from_dict(doc).d[1, 0]
        assert back == p and back.to_str() == wire
        assert type(back.sorted_terms()[0][1]) is type(value)


def test_serialize_round_trip_randomized():
    rng = random.Random(555)
    for ring in (R.ZT, R.F2T, R.universal(4)):
        for _ in range(15):
            C = helpers.random_scomplex(rng, ring, max_gens=8)
            C2 = S.from_dict(json.loads(json.dumps(S.to_dict(C))))
            assert C2.d == C.d and C2.v == C.v
            assert C2.delta1 == C.delta1 and C2.delta2 == C.delta2
            assert C2.gens == C.gens


def test_schema_duplicate_names_rejected():
    doc = S.to_dict(trefoil())
    doc["generators"].append(dict(doc["generators"][0]))
    doc["d"] = [["0", "0"], ["0", "0"]]
    doc["v"] = [["0", "0"], ["0", "0"]]
    doc["delta1"] = ["0", "0"]
    doc["delta2"] = ["0", "0"]
    with pytest.raises(S.SchemaError) as err:
        S.from_dict(doc)
    assert "duplicate" in str(err.value)


def test_schema_error_paths():
    doc = S.to_dict(trefoil())
    doc["delta1"] = ["T^"]
    with pytest.raises(S.SchemaError) as err:
        S.from_dict(doc)
    assert "delta1[0]" in str(err.value)


def _trefoil_fourth_power():
    T2 = S.tensor(trefoil(), trefoil())
    return S.tensor(T2, T2)


def _wire_cells(doc):
    """(path, (map, row, col), cell string) of every cell of the four
    maps of ``doc``, in document order."""
    for key in ("d", "v"):
        for i, row in enumerate(doc[key]):
            for j, cell in enumerate(row):
                yield f"{key}[{i}][{j}]", (key, i, j), cell
    yield from ((f"delta1[{j}]", ("delta1", 0, j), cell)
                for j, cell in enumerate(doc["delta1"]))
    yield from ((f"delta2[{i}]", ("delta2", i, 0), cell)
                for i, cell in enumerate(doc["delta2"]))


def test_from_dict_parses_each_distinct_cell_once(monkeypatch):
    doc = S.to_dict(_trefoil_fourth_power())
    nonzero = [cell for _p, _at, cell in _wire_cells(doc) if cell != "0"]
    assert len(nonzero) == 82 and len(set(nonzero)) == 2
    calls = []
    parse = R.parse

    def counting_parse(ring, s):
        calls.append(s)
        return parse(ring, s)

    monkeypatch.setattr(R, "parse", counting_parse)
    C = S.from_dict(doc)
    assert sorted(calls) == sorted(set(nonzero))
    # equal cells share one polynomial
    entries = [e for M in (C.d, C.v, C.delta1, C.delta2)
               for _i, _j, e in M.nonzero_entries()]
    assert len(entries) == 82 and len({id(e) for e in entries}) == 2


def test_repeated_bad_cell_is_reported_at_its_first_path():
    doc = S.to_dict(S.tensor(trefoil(), trefoil()))
    doc["v"][2][1] = doc["d"][1][0] = "T^{1/2}"
    with pytest.raises(S.SchemaError) as err:
        S.from_dict(doc)
    assert str(err.value) == "d[1][0]: T-exponent 1/2 is not an integer"


def test_every_loaded_entry_equals_a_fresh_parse_of_its_cell():
    rng = random.Random(1818)
    complexes = [_trefoil_fourth_power(),
                 knots.two_bridge_complex(151, 3, "universal"),
                 knots.two_bridge_complex(13, 5, "f2t")]
    complexes += [helpers.random_scomplex(rng, ring, max_gens=10)
                  for ring in (R.ZT, R.QT, R.F4T, R.universal(3))]
    for C in complexes:
        doc = S.to_dict(C)
        loaded = S.from_dict(doc)
        for path, (key, i, j), cell in _wire_cells(doc):
            assert getattr(loaded, key)[i, j] \
                == R.parse(loaded.ring, cell), path


def test_wire_cell_that_parses_to_zero_loads_as_zero():
    C = S.tensor(trefoil(), trefoil())
    doc = S.to_dict(C)
    zeros = 0
    for key in ("d", "v", "delta1", "delta2"):
        rows = doc[key] if key in ("d", "v") else [doc[key]]
        for row in rows:
            for j, cell in enumerate(row):
                if cell == "0":
                    row[j], zeros = "T - T", zeros + 1
    assert zeros > 0
    C2 = S.from_dict(doc)
    for key in ("d", "v", "delta1", "delta2"):
        M, M2 = getattr(C, key), getattr(C2, key)
        assert M2 == M
        assert list(M2.nonzero_entries()) == list(M.nonzero_entries())


def test_broken_complex_loads_but_fails_validation():
    # parsing and semantic validation are separate stages
    doc = S.to_dict(trefoil())
    doc["d"] = [["1"]]
    C = S.from_dict(doc)
    assert not S.validate(C).ok


def test_wire_format_round_trips_byte_identically():
    rng = random.Random(1616)
    for ring in (R.Z, R.ZT, R.F2T, R.universal(3)):
        for _ in range(10):
            A = helpers.random_scomplex(rng, ring, max_gens=6)
            B = helpers.random_scomplex(rng, ring, max_gens=4)
            for C in (S.tensor(A, B), S.dual(A), _negated_dual(A)):
                text = json.dumps(S.to_dict(C), indent=2)
                C2 = S.from_dict(json.loads(text))
                assert json.dumps(S.to_dict(C2), indent=2) == text
                assert (C2.d, C2.v, C2.delta1, C2.delta2) == (
                    C.d, C.v, C.delta1, C.delta2)
                # the sparse maps print "0" for every entry not stored
                assert sum(e != "0" for row in S.to_dict(C)["v"]
                           for e in row) == len(list(C.v.nonzero_entries()))
