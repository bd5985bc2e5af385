"""Exact ring arithmetic, base change, division and the textual format."""

import functools
import random
from fractions import Fraction

import pytest

from scx import rings as R

import helpers


def test_laurent_square_expansion():
    t = R.var(R.ZT, "T")
    p = t ** 2 - t ** -2
    assert str(p * p) == "T^4 - 2 + T^-4"


def test_f4_field_relation():
    x = R.var(R.F4, "x")
    assert x * x == x + R.one(R.F4)
    assert (x * x * x).is_one()


def test_u_exponent_addition():
    U = R.universal(3)
    assert R.var(U, "U", Fraction(1, 3)) * R.var(U, "U", Fraction(2, 3)) \
        == R.var(U, "U")


def test_u_denominator_enforced():
    U = R.universal(3)
    with pytest.raises(R.RingError):
        R.var(U, "U", Fraction(1, 2))


def test_ring_mismatch_raises():
    with pytest.raises(R.RingMismatchError):
        R.var(R.ZT, "T") + R.var(R.QT, "T")


def test_equal_rings_need_not_be_one_object():
    ring, other = R.universal(3), R.universal(3)
    assert other == ring and other is not ring
    a, b = R.var(ring, "T"), R.var(other, "T")
    assert a == b and b == a
    assert a + b == R.from_int(ring, 2) * a
    with pytest.raises(R.RingMismatchError):
        R.var(R.ZT, "T") + R.var(R.F2T, "T")


def test_base_change_t_to_x_in_f4():
    t = R.var(R.ZT, "T")
    img = R.base_change(t ** 2 - t ** -2, {"T": R.var(R.F4, "x")}, R.F4)
    assert img == R.one(R.F4)


def test_base_change_kills_weight_at_t_one():
    U3 = R.universal(3)
    p = R.parse(U3, "U^{1/3}*T^2 - U^{1/3}*T^-2")
    img = R.base_change(p, {"U": R.one(R.Z), "T": R.one(R.Z)}, R.Z)
    assert img.is_zero()


def test_base_change_x_to_p_expands_to_four_terms():
    rx = R.poly_x(R.F2T)
    x = R.var(rx, "x")
    from scx.equivariant import bn_p_element
    target = R.S_BN
    img = R.base_change(x, {"T": R.var(target, "T1"),
                            "x": bn_p_element(target)}, target)
    assert img == bn_p_element(target)
    assert len(img.sorted_terms()) == 4


def test_base_change_missing_variable():
    U3 = R.universal(3)
    p = R.var(U3, "U", Fraction(1, 3))
    with pytest.raises(R.RingError):
        R.base_change(p, {"T": R.one(R.Z)}, R.Z)


def test_base_change_fractional_power_needs_clean_image():
    U3 = R.universal(3)
    p = R.var(U3, "U", Fraction(1, 3))
    t = R.var(R.ZT, "T")
    with pytest.raises(R.RingError):
        R.base_change(p, {"T": t, "U": t}, R.ZT)
    # U -> 1 and U -> a cube both work
    assert R.base_change(p, {"T": t, "U": R.one(R.ZT)}, R.ZT).is_one()
    assert R.base_change(p, {"T": t, "U": t ** 3}, R.ZT) == t


def test_divide_square_factorization():
    t = R.var(R.QT, "T")
    p = t ** 2 - t ** -2
    assert R.divide(p * p, p) == p


def test_monomials_are_units():
    t = R.var(R.ZT, "T")
    assert (R.from_int(R.ZT, -1) * t ** 3).is_unit()
    assert not (t + R.one(R.ZT)).is_unit()
    assert not R.from_int(R.ZT, 2).is_unit()


def test_divide_by_unit_and_failure():
    t = R.var(R.F2T, "T")
    one = R.one(R.F2T)
    # T is a unit of the Laurent ring, so T+1 is divisible by it
    assert R.divide(t + one, t) == one + t ** -1
    # dividing by the non-unit T+1 fails where it should
    assert R.divide(t, t + one) is None
    assert R.divide(t ** 2 + one, t + one) == t + one
    # over Z a constant divides when its integer quotient is exact
    z = functools.partial(R.from_int, R.Z)
    assert R.divide(z(12), z(4)) == z(3)
    assert R.divide(z(12), z(5)) is None
    assert R.divide(z(-12), z(4)) == z(-3)
    assert R.divide(z(12), z(-5)) is None
    assert R.divide(z(7), z(-1)) == z(-7)


def test_divide_finds_quotients_longer_than_its_operands():
    # the quotient has 1000 terms, far more than both operands together
    for ring in (R.ZT, R.F2T):
        t, one = R.var(ring, "T"), R.one(ring)
        q = R.divide(t ** 1000 - one, t - one)
        assert len(q.terms_dict()) == 1000
        assert q == sum((t ** k for k in range(1, 1000)), one)
        assert R.divide(t ** 1000 + t ** 500 - one, t - one) is None


def test_inverses_over_q_are_exact_fractions():
    # the public constructor keeps int coefficients over Q and QT as given
    q = R.divide(R.one(R.QT), R.LaurentPoly(R.QT, {(0, 0, (1,)): 3}))
    assert q.terms_dict() == {(0, 0, (-1,)): Fraction(1, 3)}
    assert str(q) == "1/3*T^-1"
    two = R.LaurentPoly(R.Q, {(0, 0, ()): 2})
    for half in (two.unit_inverse(), R.divide(R.one(R.Q), two)):
        assert half.const_value() == Fraction(1, 2)
        assert type(half.const_value()) is Fraction and str(half) == "1/2"


def test_integral_q_values_are_ints():
    # one representation: an int when the value is integral
    assert R._cinv("Q", 1) == 1 and type(R._cinv("Q", 1)) is int
    assert R._cinv("Q", 3) == Fraction(1, 3)
    assert type(R._cinv("Q", 3)) is Fraction
    assert type(R._cinv("Q", Fraction(1, 3))) is int
    assert type(R._cfrom_int("Q", 5)) is int
    for p in (R.parse(R.Q, "4/2"), R.monomial(R.Q, Fraction(4, 2)),
              R.LaurentPoly(R.Q, {(0, 0, ()): Fraction(6, 3)})):
        assert p.const_value() == 2 and type(p.const_value()) is int
    with pytest.raises(R.RingError, match="not rational"):
        R.LaurentPoly(R.QT, {(0, 0, (1,)): 0.5})


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        R.divide(R.one(R.ZT), R.zero(R.ZT))


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for ring in (R.ZT, R.F2T, R.QT, R.universal(2), R.S_BN):
        for _ in range(40):
            a = helpers.random_poly(rng, ring, allow_zero=True)
            b = helpers.random_poly(rng, ring, allow_zero=True)
            c = helpers.random_poly(rng, ring, allow_zero=True)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * R.one(ring) == a
            assert a + R.zero(ring) == a
            assert a - a == R.zero(ring)


def test_base_change_is_ring_hom_randomized():
    rng = random.Random(202)
    t_img = R.var(R.F4, "x")
    for _ in range(60):
        a = helpers.random_poly(rng, R.ZT, allow_zero=True)
        b = helpers.random_poly(rng, R.ZT, allow_zero=True)
        f = lambda p: R.base_change(p, {"T": t_img}, R.F4)
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)


def _random_terms(rng, ring, max_terms=5):
    """A polynomial of ``ring`` with random fractional U-exponents,
    T-exponents of both signs, x-powers and coefficients (even ones among
    them, which vanish mod 2)."""
    N = ring.udenom
    coeffs = {"Z": (1, -1, 2, -2, 3, -4), "F2": (1,), "F4": (1, 2, 3),
              "Q": (Fraction(1), Fraction(-1), Fraction(2, 3),
                    Fraction(-3, 2))}[ring.base]
    return R.LaurentPoly(ring, {
        (rng.randint(0, 2) if ring.has_x else 0,
         Fraction(rng.randint(-2 * N, 2 * N), N) if N else 0,
         tuple(rng.randint(-3, 3) for _ in ring.tvars)): rng.choice(coeffs)
        for _ in range(rng.randint(0, max_terms))})


def _specializations():
    """(name, source, target, assignment, refusals expected)."""
    from scx.equivariant import bn_p_element
    U3, U2, t = R.universal(3), R.universal(2), R.var(R.ZT, "T")
    return [
        ("ZT->F4, T->x", R.ZT, R.F4, {"T": R.var(R.F4, "x")}, False),
        ("UNIV(3)->ZT, U->1", U3, R.ZT, {"U": R.one(R.ZT), "T": t}, False),
        ("UNIV(3)->ZT, U->T^3", U3, R.ZT, {"U": t ** 3, "T": t}, False),
        ("UNIV(3)->ZT, U->T", U3, R.ZT, {"U": t, "T": t}, True),
        ("UNIV(3)->ZT, U->2", U3, R.ZT,
         {"U": R.from_int(R.ZT, 2), "T": t}, True),
        # even coefficients vanish in F2T, yet their monomials are refused
        ("UNIV(3)->F2T, U->T", U3, R.F2T,
         {"U": R.var(R.F2T, "T"), "T": R.var(R.F2T, "T")}, True),
        ("UNIV(2)->QT", U2, R.QT,
         {"U": R.one(R.QT), "T": R.var(R.QT, "T")}, False),
        ("Z->Q", R.Z, R.Q, {}, False),
        ("F2T->F2", R.F2T, R.F2, {"T": R.one(R.F2)}, False),
        ("POLY_X(F2T)->S_BN, x->P", R.poly_x(R.F2T), R.S_BN,
         {"T": R.var(R.S_BN, "T1"), "x": bn_p_element(R.S_BN)}, False),
        ("Q->Z", R.Q, R.Z, {}, True),
    ]


def _outcome(f, *args):
    """f(*args), with a polynomial as its terms in stored order, or the
    type and text of the RingError it raises."""
    try:
        y = f(*args)
    except R.RingError as e:
        return type(e), str(e)
    if isinstance(y, R.LaurentPoly):
        return y.ring, list(y._terms.items())
    return y


def test_homomorphism_agrees_with_per_term_base_change():
    # one map per assignment against the old per-term loop: equal values
    # (terms in the same order) or the same refusal, on polynomials and
    # on matrices, whether each call builds its map or one map serves all
    from scx import linalg as L
    rng = random.Random(1919)
    for name, src, target, assignment, refusing in _specializations():
        hom = R.homomorphism(src, assignment, target)

        def oracle(p):
            return helpers.reference_base_change(p, assignment, target)

        refused = 0
        for _ in range(80):
            p = _random_terms(rng, src)
            want = _outcome(oracle, p)
            assert _outcome(R.base_change, p, assignment, target) == want, \
                (name, p)
            assert _outcome(hom, p) == want, (name, p)
            refused += isinstance(want[0], type)
        assert bool(refused) == refusing, name
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = L.Matrix.from_entries(src, m, n, [
                (i, j, _random_terms(rng, src, 3))
                for i in range(m) for j in range(n) if rng.random() < 0.6])
            assert _outcome(M.map_entries, hom, target) == \
                _outcome(M.map_entries, oracle, target), name
    # an assignment that misses a variable or lands elsewhere is refused
    # alike
    for src, assignment, target in (
            (R.universal(3), {"T": R.one(R.ZT)}, R.ZT),
            (R.ZT, {"T": R.var(R.QT, "T")}, R.ZT)):
        assert _outcome(R.base_change, R.one(src), assignment, target) == \
            _outcome(helpers.reference_base_change, R.one(src), assignment,
                     target)
    # Q -> Z maps zero and refuses the rest
    q_to_z = R.homomorphism(R.Q, {}, R.Z)
    assert q_to_z(R.zero(R.Q)) == R.zero(R.Z)
    with pytest.raises(R.RingError, match="no coefficient map Q -> Z"):
        q_to_z(R.one(R.Q))


def test_one_homomorphism_serves_many_polynomials():
    # the entries of a matrix share one map's memoized monomial images:
    # results equal those of fresh maps, including terms whose
    # coefficient vanishes in the target, and an earlier result never
    # changes when the map is applied again
    U3 = R.universal(3)
    rng = random.Random(2020)
    keys = [(0, Fraction(k, 3), (t,)) for k in (-1, 0, 1, 2)
            for t in (-2, 0, 2)]
    polys = [R.LaurentPoly(U3, {key: rng.choice((1, -1, 2, 3, -2))
                                for key in rng.sample(keys, rng.randint(1, 4))})
             for _ in range(60)]
    polys += [R.from_int(U3, 2) * p for p in polys[:5]] + polys[:5]
    for target in (R.ZT, R.F2T):
        assignment = {"U": R.one(target), "T": R.var(target, "T")}
        hom = R.homomorphism(U3, assignment, target)
        results = [hom(p) for p in polys]
        kept = [dict(y._terms) for y in results]
        for p, y in zip(polys, results):
            assert hom(p) == y == R.homomorphism(U3, assignment, target)(p)
        assert [dict(y._terms) for y in results] == kept
        assert any(not y for y in results[60:65]) == target.char_two


def test_normalization_idempotent():
    rng = random.Random(303)
    for ring in (R.ZT, R.F2T, R.QT):
        for _ in range(40):
            p = helpers.random_poly(rng, ring)
            # rebuilding from the term dictionary is the identity
            assert R.LaurentPoly(ring, p.terms_dict()) == p
            n = R.normalize_associate(p)
            assert R.normalize_associate(n) == n


def test_parse_print_round_trip():
    U3 = R.universal(3)
    s = "U^{1/3}*T^2 - U^{1/3}*T^-2"
    assert R.parse(U3, s).to_str() == s
    for ring, text in [
        (R.ZT, "T^4 - 2 + T^-4"),
        (R.ZT, "-3*T + 1"),
        (R.QT, "1/2*T - 1/3"),
        (R.F2T, "T^2 + T^-2"),
        (R.S_BN, "T1*T2*T3 + T1^-1*T2^-1*T3"),
        (R.F4, "x+1"),
        (R.F4T, "(x+1)*T + x"),
    ]:
        assert R.parse(ring, text).to_str() == text


def test_parse_rejects_garbage():
    for bad in ("T^", "2*", "U^{1/3", "(T", "T T", ""):
        with pytest.raises(R.ParseError):
            R.parse(R.universal(3), bad)


def test_parse_rejects_fractional_exponents_zero_denominators_deep_nesting():
    for ring, bad in ((R.ZT, "T^{1/2}"), (R.poly_x(R.ZT), "x^{1/2}"),
                      (R.F4, "x^{1/2}"), (R.universal(3), "U^{1/0}"),
                      (R.Q, "1/0")):
        with pytest.raises(R.ParseError):
            R.parse(ring, bad)
    with pytest.raises(R.ParseError, match="nested too deeply"):
        R.parse(R.ZT, "(" * 3000 + "T" + ")" * 3000)
    assert R.parse(R.ZT, "(" * 50 + "T" + ")" * 50) == R.var(R.ZT, "T")
    # integral fractions are plain integers
    assert R.parse(R.ZT, "T^{4/2}") == R.var(R.ZT, "T", 2)
    assert R.parse(R.poly_x(R.ZT), "x^{2/1}").to_str() == "x^2"


def test_parse_error_messages():
    # the texts that var and the constructors give, since the parser
    # builds no term keys of its own; the first bad factor is the one named
    for ring, text, message in [
        (R.ZT, "T^{1/2}", "T-exponent 1/2 is not an integer"),
        (R.ZT, "U", "Ring(ZT) has no U variable"),
        (R.ZT, "Q", "Ring(ZT) has no variable 'Q'"),
        (R.ZT, "T^{1/2}*Q", "T-exponent 1/2 is not an integer"),
        (R.ZT, "T^{1/2}*T^{1/2}", "T-exponent 1/2 is not an integer"),
        (R.poly_x(R.ZT), "x^-1", "x-exponents must be nonnegative"),
        (R.universal(2), "U^{1/3}", "U-exponent 1/3 not a multiple of 1/2"),
        (R.Q, "3/0", "zero denominator in 3/0"),
    ]:
        with pytest.raises(R.ParseError) as info:
            R.parse(ring, text)
        assert str(info.value) == message, (ring, text)


def test_parse_products_of_numbers_and_variables():
    u6 = R.universal(6)
    assert R.parse(u6, "U^{1/6}*2*U^{1/3}*T*3*T^-3") \
        == R.monomial(u6, 6, u=Fraction(1, 2), t=-2)
    assert R.parse(u6, "U^{1/2}*U^{1/2}").to_str() == "U"
    assert R.parse(R.Q, "2/3*3/4") == R.monomial(R.Q, Fraction(1, 2))
    assert R.parse(R.F2T, "2*T").is_zero()
    assert R.parse(R.ZT, "0*T^3") == R.zero(R.ZT)
    # parenthesised factors and F4's generator stay polynomials
    assert R.parse(R.F4T, "x*T*x").to_str() == "(x+1)*T"
    assert R.parse(R.ZT, "2*(T + 1)*T").to_str() == "2*T^2 + 2*T"


def test_laurent_poly_exponents_are_integers():
    assert R.LaurentPoly(R.ZT, {(0, 0, (Fraction(4, 2),)): 1}) \
        == R.var(R.ZT, "T", 2)
    with pytest.raises(R.RingError):
        R.LaurentPoly(R.ZT, {(0, 0, (Fraction(1, 2),)): 1})
    with pytest.raises(R.RingError):
        R.LaurentPoly(R.poly_x(R.ZT), {(Fraction(1, 3), 0, (0,)): 1})


def test_poly_x_refused_over_f4():
    with pytest.raises(R.RingError):
        R.poly_x(R.F4T)


def test_gcd_euclidean():
    t = R.var(R.QT, "T")
    one = R.one(R.QT)
    g = R.gcd((t ** 2 - t ** -2) * (t + one), (t ** 2 - t ** -2) * (t - one))
    assert R.divide(g, R.normalize_associate(t ** 2 - t ** -2)) is not None \
        or g == R.normalize_associate(t ** 2 - t ** -2)


def test_equal_polynomials_hash_alike():
    # a U-exponent written as a fraction and an int coefficient against
    # a Fraction one: equal values, one hash, one member of a set
    U3 = R.universal(3)
    pairs = [(R.parse(U3, "U^{3/3}"), R.var(U3, "U"))]
    for ring in (R.Q, R.ZT, R.F2T):
        nt = len(ring.tvars)
        for n in (2, 3):
            pairs.append((R.LaurentPoly(ring, {(0, 0, (0,) * nt): n}),
                          R.from_int(ring, n)))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_ring_descriptor_round_trip():
    import json
    # every ring that takes an x, and poly_x of each: ring_to_dict reads
    # the inner ring of poly_x(R) back off its tag
    takes_x = (R.Z, R.Q, R.F2, R.ZT, R.QT, R.F2T, R.S_BN, R.R_SHARP,
               R.universal(1), R.universal(3), R.universal(5), R.universal(6))
    for ring in (*takes_x, R.F4, R.F4T, *map(R.poly_x, takes_x)):
        doc = json.loads(json.dumps(R.ring_to_dict(ring)))
        assert R.ring_from_dict(doc) == ring


def test_ring_descriptors_are_plain_values():
    # equal parameters give equal, hash-equal rings; the repr names the tag
    assert R.universal(3) == R.universal(3)
    assert hash(R.universal(3)) == hash(R.universal(3))
    assert R.universal(3) != R.universal(6)
    assert repr(R.ZT) == "Ring(ZT)"
    assert str(R.poly_x(R.QT)) == "Ring(POLY_X(QT))"
    assert R.universal(3).variables() == ["U", "T"]
    assert R.F2T.char_two and R.Q.is_field and not R.QT.is_field


# ---------------------------------------------------------------------------
# the multiply-accumulate kernel against a term-by-term reference

KERNEL_RINGS = (R.Z, R.Q, R.F2, R.F4, R.ZT, R.F2T, R.F4T, R.QT, R.S_BN,
                R.R_SHARP, R.universal(6), R.poly_x(R.universal(2)),
                R.poly_x(R.QT))


def _naive_cmul(base, a, b):
    if base == "F2":
        return a * b % 2
    if base == "F4":
        # carry-less product of the bit polynomials, reduced by x^2+x+1
        p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return p ^ 0b111 if p & 4 else p
    return a * b


def _naive_sum_of_products(ring, pairs):
    """sum a*b over ``pairs``, one pair of terms at a time, in value
    units, built through the checked constructor."""
    out = {}
    for a, b in pairs:
        for (x1, u1, t1), c1 in a.terms_dict().items():
            for (x2, u2, t2), c2 in b.terms_dict().items():
                k = (x1 + x2, Fraction(u1) + u2,
                     tuple(p + q for p, q in zip(t1, t2)))
                c = _naive_cmul(ring.base, c1, c2)
                s = out.get(k, 0)
                out[k] = s ^ c if ring.char_two else s + c
    return R.LaurentPoly(ring, out)


def _kernel_poly(rng, ring, terms=4, coeffs=None):
    coeffs = coeffs or {
        "Z": [-3, -2, -1, 1, 2, 3], "F2": [1], "F4": [1, 2, 3],
        "Q": [Fraction(n, d) for n in (-2, -1, 1, 3) for d in (1, 2, 3)],
    }[ring.base]
    out = {}
    for _ in range(rng.randint(1, terms)):
        u = Fraction(rng.randint(-4, 4), ring.udenom) if ring.udenom else 0
        key = (rng.randint(0, 2) if ring.has_x else 0, u,
               tuple(rng.randint(-2, 2) for _ in ring.tvars))
        out[key] = rng.choice(coeffs)
    return R.LaurentPoly(ring, out)


def _accumulated(ring, pairs, acc=None):
    acc = {} if acc is None else acc
    mac = R.kernel(ring)
    for a, b in pairs:
        mac(acc, a, b)
    assert all(acc.values()), "a zero coefficient is stored"
    return R.LaurentPoly._trusted(ring, acc)


def test_kernel_is_the_term_by_term_sum_of_products():
    rng = random.Random(35)
    for ring in KERNEL_RINGS:
        for _ in range(30):
            pairs = [(_kernel_poly(rng, ring), _kernel_poly(rng, ring))
                     for _ in range(rng.randint(1, 3))]
            assert _accumulated(ring, pairs) == _naive_sum_of_products(
                ring, pairs), ring
            a, b = pairs[0]
            assert a * b == _naive_sum_of_products(ring, [(a, b)])
            # an accumulator may start as a copy of a sum's terms
            acc = dict(a.slot_terms())
            assert _accumulated(ring, [(a, b)], acc) == a + a * b


def test_kernel_drops_what_cancels():
    rng = random.Random(36)
    for ring in KERNEL_RINGS:
        a, b = _kernel_poly(rng, ring), _kernel_poly(rng, ring)
        c = _kernel_poly(rng, ring)
        # a*b + (-a)*b is zero, and a*b + c*b - a*b leaves c*b alone
        assert _accumulated(ring, [(a, b), (-a, b)]) == R.zero(ring)
        assert _accumulated(ring, [(a, b), (c, b), (-a, b)]) == c * b
        t = R.var(ring, ring.tvars[0]) if ring.tvars else R.one(ring)
        one = R.one(ring)
        # (t + 1)(t - 1) = t^2 - 1: the cross terms cancel inside one product
        assert _accumulated(ring, [(t + one, t - one)]) == t * t - one


def test_kernel_products_by_one_and_by_units():
    rng = random.Random(37)
    for ring in KERNEL_RINGS:
        one = R.one(ring)
        units = [one, -one]
        if ring.tvars:
            units.append(-R.var(ring, ring.tvars[-1], -3))
        if ring.udenom:
            units.append(R.var(ring, "U", Fraction(1, ring.udenom)))
        if ring.base == "Q":
            units.append(R.monomial(ring, Fraction(-2, 3)))
        if ring.base == "F4":
            units.append(R.var(ring, "x"))
        for _ in range(10):
            a = _kernel_poly(rng, ring)
            for u in units:
                naive = _naive_sum_of_products(ring, [(a, u)])
                assert _accumulated(ring, [(a, u)]) == naive
                assert _accumulated(ring, [(u, a)]) == naive
                # onto a nonempty accumulator, and back by the inverse
                assert _accumulated(ring, [(a, one), (a, u)]) == a + naive
                assert _accumulated(ring, [(naive, u.unit_inverse())]) == a


def test_kernel_keeps_integral_q_coefficients_ints():
    rng = random.Random(38)
    for ring in (R.Q, R.QT, R.poly_x(R.QT)):
        for _ in range(20):
            a, b = (_kernel_poly(rng, ring, coeffs=[-3, -1, 2, 5])
                    for _ in range(2))
            p = _accumulated(ring, [(a, b), (b, a), (a, a)])
            assert p == _naive_sum_of_products(ring, [(a, b), (b, a), (a, a)])
            assert {type(c) for c in p.terms_dict().values()} <= {int}


class _Unlooped(dict):
    """Terms whose pairs the kernel's term loop would read."""

    def items(self):
        raise AssertionError("the term loop ran on a product by 1")


def test_a_product_by_one_runs_no_term_loop(monkeypatch):
    # a factor 1 returns the other operand as it is: the kernel is not
    # run; and the kernel copies the other factor into an empty sum
    for ring in (R.ZT, R.QT, R.F2T, R.F4, R.universal(3), R.S_BN):
        key = (ring.base, len(ring.tvars))
        p = R.var(ring, ring.tvars[0]) + R.one(ring) if ring.tvars \
            else R.var(ring, "x")
        terms = dict(p.slot_terms())
        watched = R.LaurentPoly._trusted(ring, _Unlooped(terms))
        for a, b in ((watched, R.one(ring)), (R.one(ring), watched)):
            acc = {}
            R.kernel(ring)(acc, a, b)
            assert acc == terms

        def refused(acc, a, b):
            raise AssertionError("the kernel ran on a product by 1")

        monkeypatch.setitem(R._KERNELS, key, refused)
        assert p * R.one(ring) is p and R.one(ring) * p is p
        monkeypatch.undo()


def test_term_keys_are_read_by_two_helpers():
    # the readers of the stored (x, n, ts) keys that linalg and
    # equivariant use: a monomial's value at one point of F_p, and the
    # U-homogeneous parts of the entries of a matrix over a universal ring
    p = 2 ** 61 - 1
    for m, value in (
            (R.monomial(R.poly_x(R.universal(3)), 4, u=Fraction(2, 3), t=-2,
                        x=3), 7 ** 3 * 5 ** 2 * pow(3, -2, p) % p),
            (R.monomial(R.R_SHARP, 1, t=(1, 2, 0, -1)), 9),
            (R.one(R.QT), 1)):
        (key, _c), = m.slot_terms()
        assert R.key_at_point(key, p) == value
    U = R.universal(3)
    f = R.parse(U, "2*U^{1/3}*T - T^-1 + 3*U^{1/3} + U")
    g = R.parse(U, "U^{2/3}*T^2")
    # entry j is multiplied by U^s for (_, s) = slots[j]
    parts = R.u_split(3, [(0, 0, f), (0, 1, g), (1, 1, f)],
                      [(0, 0), (1, Fraction(-1, 3))])
    assert {key: {j: R.LaurentPoly._trusted(R.ZT, terms)
                  for j, terms in row.items()}
            for key, row in parts.items()} == {
        (0, 1): {0: R.parse(R.ZT, "2*T + 3"), 1: R.parse(R.ZT, "T^2")},
        (0, 0): {0: R.parse(R.ZT, "-T^-1")}, (0, 3): {0: R.one(R.ZT)},
        (1, 0): {1: R.parse(R.ZT, "2*T + 3")},
        (1, -1): {1: R.parse(R.ZT, "-T^-1")}, (1, 2): {1: R.one(R.ZT)}}
    assert R.u_split(3, [], []) == {}
