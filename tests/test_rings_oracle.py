"""The exact ring core against independent oracles: its algebraic laws as
hypothesis properties, and products and quotients over ZZ[T, 1/T] and
GF(2)[T, 1/T] against sympy."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scx import rings as R  # noqa: E402

U3 = R.universal(3)
RINGS = (R.ZT, R.F2T, R.QT, U3)
ORACLE_RINGS = (R.ZT, R.F2T)
SYMBOL = sympy.Symbol("T")

# deterministic, and no example database left in the working directory
PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    derandomize=True)


def _coefficients(ring):
    if ring.base == "Q":
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if ring.base == "F2":
        return st.just(1)
    return st.integers(-3, 3)


def _keys(ring):
    # U-exponents n/3 are integral for every third n, so both kinds occur
    u = (st.integers(-6, 6).map(lambda n: Fraction(n, ring.udenom))
         if ring.udenom else st.just(0))
    ts = st.tuples(*[st.integers(-4, 4)] * len(ring.tvars))
    return st.tuples(st.just(0), u, ts)


def polys(ring, max_terms=5):
    return st.dictionaries(_keys(ring), _coefficients(ring),
                           max_size=max_terms).map(
        lambda terms: R.LaurentPoly(ring, terms))


def pairs(rings):
    return st.sampled_from(rings).flatmap(
        lambda ring: st.tuples(polys(ring), polys(ring)))


def canonical_keys(p):
    """Integral U-exponents are ints; only fractional ones are Fractions."""
    return all(type(u) is int or (type(u) is Fraction and u.denominator != 1)
               for _x, u, _ts in p.terms_dict())


@PROPERTY
@given(pairs(RINGS))
def test_product_divided_by_a_factor_is_the_other_factor(ab):
    a, b = ab
    assume(b)
    product = a * b
    assert canonical_keys(product)
    q = R.divide(product, b)
    assert q == a and canonical_keys(q)


@PROPERTY
@given(pairs(RINGS), polys(U3, max_terms=1))
def test_divide_returns_an_exact_quotient_or_none(ab, shift):
    a, b = ab
    assume(b)
    if a.ring is U3:
        a = a + shift
    q = R.divide(a, b)
    if q is not None:
        assert q * b == a and canonical_keys(q)


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(polys))
def test_parse_print_round_trip(p):
    assert canonical_keys(p)
    text = p.to_str()
    back = R.parse(p.ring, text)
    assert back == p and back.to_str() == text and canonical_keys(back)


def _rational_polys(ring):
    # int coefficients, which the public constructor keeps as given, and
    # Fractions
    coefficients = st.one_of(st.integers(-3, 3), _coefficients(ring))
    return st.dictionaries(_keys(ring), coefficients, max_size=4).map(
        lambda terms: R.LaurentPoly(ring, terms))


@PROPERTY
@given(st.sampled_from((R.Q, R.QT)).flatmap(
    lambda ring: st.tuples(_rational_polys(ring), _rational_polys(ring))))
def test_no_coefficient_over_q_is_a_float(ab):
    a, b = ab
    results = [a * b, a + b, -a, R.normalize_associate(a)]
    if b:
        results += [R.divide(a * b, b), R.divide(a, b), R.gcd(a, b),
                    *R.divmod_euclid(a, b)]
        if b.is_unit():
            results.append(b.unit_inverse())
    assert not [c for p in results if p is not None
                for c in p.terms_dict().values() if isinstance(c, float)]


def _homomorphisms():
    zt_t, u3_t, u3_u = R.var(R.ZT, "T"), R.var(U3, "T"), R.var(U3, "U")
    third = R.var(U3, "U", Fraction(1, 3))
    return [
        (R.ZT, R.F2T, {"T": R.var(R.F2T, "T")}),
        (R.ZT, R.ZT, {"T": -(zt_t ** -2)}),
        (R.QT, R.QT, {"T": R.var(R.QT, "T") ** 3}),
        (R.F2T, R.F4, {"T": R.var(R.F4, "x")}),
        (U3, R.ZT, {"U": R.one(R.ZT), "T": zt_t ** -1}),
        (U3, U3, {"U": u3_u ** 2, "T": third * u3_t}),
    ]


@PROPERTY
@given(st.sampled_from(range(6)).flatmap(
    lambda i: st.tuples(st.just(i), polys(_homomorphisms()[i][0]),
                        polys(_homomorphisms()[i][0]))))
def test_base_change_is_a_ring_homomorphism(case):
    i, a, b = case
    src, target, assignment = _homomorphisms()[i]

    def f(p):
        return R.base_change(p, assignment, target)

    assert f(R.one(src)) == R.one(target)
    assert f(a + b) == f(a) + f(b)
    assert f(a * b) == f(a) * f(b)
    assert canonical_keys(f(a * b))


def _sympy_poly(p, shift):
    """p * T^shift as a sympy polynomial over ZZ or GF(2)."""
    expr = sum((c * SYMBOL ** (ts[0] + shift)
                for (_x, _u, ts), c in p.terms_dict().items()),
               sympy.Integer(0))
    if p.ring.base == "F2":
        return sympy.Poly(expr, SYMBOL, modulus=2)
    return sympy.Poly(expr, SYMBOL, domain=sympy.ZZ)


@PROPERTY
@given(pairs(ORACLE_RINGS))
def test_products_agree_with_sympy(ab):
    a, b = ab
    assert _sympy_poly(a * b, 8) == _sympy_poly(a, 4) * _sympy_poly(b, 4)


@PROPERTY
@given(pairs(ORACLE_RINGS), pairs(ORACLE_RINGS))
def test_quotients_agree_with_sympy(ab, cd):
    a, b = ab
    c, _ = cd
    assume(b and c.ring is a.ring)
    # half the draws are multiples of b, so both answers are exercised
    for num in (a, (a + c) * b):
        # T is a unit, so b | num in the Laurent ring exactly when the
        # polynomial b*T^4 divides num*T^24 in ZZ[T] (resp. GF(2)[T])
        q, r = _sympy_poly(num, 24).div(_sympy_poly(b, 4))
        exact = r.is_zero
        if exact and num.ring.base == "Z":
            try:
                q = q.to_ring()
            except sympy.polys.polyerrors.CoercionFailed:
                exact = False
        ours = R.divide(num, b)
        assert (ours is not None) == exact
        if exact:
            assert _sympy_poly(ours, 20) == q


U1 = R.universal(1)


def _stored_u_slots_are_ints(p):
    return all(type(n) is int for _x, n, _ts in p._terms)


@PROPERTY
@given(polys(U3), polys(U3), st.integers(-6, 6), st.integers(-4, 4),
       st.sampled_from((1, -1)))
def test_stored_u_slots_stay_ints(a, b, n, t, sign):
    # a key stores N*u: ints after every operation, never a Fraction
    unit = R.monomial(U3, sign, u=Fraction(n, 3), t=t)
    results = [a * b, a + b, a - b, -a, a * unit, unit.unit_inverse(),
               unit ** -2, R.normalize_associate(a),
               R.normalizing_unit(a + unit)]
    if b:
        results += [q for q in (R.divide(a * b, b), R.divide(a, b))
                    if q is not None]
    for _src, target, assignment in _homomorphisms()[4:]:
        results.append(R.base_change(a, assignment, target))
    for p in results:
        assert _stored_u_slots_are_ints(p), p


def _int_polys(ring):
    return st.dictionaries(_keys(ring), st.integers(-3, 3),
                           max_size=4).map(
        lambda terms: R.LaurentPoly(ring, terms))


def _ints(p):
    return all(type(c) is int for c in p.terms_dict().values())


def _rationals(p):
    """Every integral coefficient is an int; only the others are
    Fractions."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms_dict().values())


@PROPERTY
@given(st.sampled_from((R.Q, R.QT)).flatmap(
    lambda ring: st.tuples(_int_polys(ring), _int_polys(ring))),
    polys(R.ZT), st.integers(0, 3), st.integers(-3, 3),
    st.sampled_from((1, -1)))
def test_integral_q_coefficients_are_ints(ab, z, n, k, sign):
    # values that stay in Z are ints after every operation, and every
    # integral coefficient of a quotient over Q is an int
    a, b = ab
    ring = a.ring
    nt = len(ring.tvars)
    unit = R.monomial(ring, sign, t=(k,) * nt)
    to_ring = {"T": R.var(ring, "T") ** -1} if nt else {"T": R.one(ring)}
    ints = [a + b, a - b, -a, a * b, a ** n, unit ** -2, a * unit,
            R.base_change(z, to_ring, ring)]
    if k:
        ints.append(a.scale(k))
    rationals = [R.normalize_associate(a), R.normalize_associate(a * unit)]
    if b:
        ints.append(R.divide(a * b, b))
        rationals += [q for q in (R.divide(a, b), R.gcd(a, b)) if q]
        rationals += R.divmod_euclid(a, b)
        if b.is_unit():
            rationals.append(b.unit_inverse())
    for p in ints:
        assert _ints(p), p
    for p in rationals:
        assert _rationals(p), p


def _all_fractions(p):
    """p with every coefficient a Fraction, integral ones included."""
    return R.LaurentPoly._trusted(p.ring, {k: Fraction(c)
                                           for k, c in p._terms.items()})


@PROPERTY
@given(st.sampled_from((R.Q, R.QT)).flatmap(
    lambda ring: st.tuples(polys(ring), polys(ring))))
def test_q_values_do_not_depend_on_the_coefficient_type(ab):
    # against an oracle that keeps every coefficient a Fraction: equal
    # values, one hash, the same text and the same terms.  A sum or
    # product of Fractions may be an integral Fraction; a quotient makes
    # every integral coefficient an int.
    a, b = ab
    fa, fb = _all_fractions(a), _all_fractions(b)
    pairs = [(a, fa), (a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
    quotients = [(R.normalize_associate(a), R.normalize_associate(fa))]
    if b:
        quotients += [(R.divide(a * b, b), R.divide(fa * fb, fb)),
                      *zip(R.divmod_euclid(a, b), R.divmod_euclid(fa, fb))]
    for p, oracle in pairs + quotients:
        assert p == oracle and hash(p) == hash(oracle)
        assert p.to_str() == oracle.to_str()
        assert p.sorted_terms() == oracle.sorted_terms()
    for p, oracle in quotients:
        assert _rationals(p) and _rationals(oracle)


def _to_u1(p):
    """The isomorphism universal(3) -> universal(1), U^(1/3) -> U."""
    return R.base_change(p, {"U": R.var(U1, "U", 3), "T": R.var(U1, "T")},
                         U1)


@PROPERTY
@given(polys(U3), polys(U3), polys(U3, max_terms=2))
def test_relabelling_u_thirds_commutes_with_arithmetic(a, b, c):
    # stored key n -> n, so universal(1) is a second route for the sums,
    # products, quotients and associates of universal(3)
    for p in (a, b, c):
        assert _to_u1(p)._terms == p._terms
    assert _to_u1(a + b) == _to_u1(a) + _to_u1(b)
    assert _to_u1(a * b) == _to_u1(a) * _to_u1(b)
    assert _to_u1(R.normalize_associate(a)) \
        == R.normalize_associate(_to_u1(a))
    assume(b)
    for num in (a, a * b, (a + c) * b):
        q = R.divide(num, b)
        q1 = R.divide(_to_u1(num), _to_u1(b))
        assert (q is None) == (q1 is None)
        if q is not None:
            assert _to_u1(q) == q1


def test_integral_u_exponents_are_int_keys():
    third = R.var(U3, "U", Fraction(1, 3))
    two_thirds = R.var(U3, "U", Fraction(2, 3))
    t = R.var(U3, "T")
    cases = [
        third * two_thirds,
        R.parse(U3, "U^{3/3}*T - U^{-6/3}"),
        R.LaurentPoly(U3, {(0, Fraction(2), (1,)): 1}),
        R.divide((third + t) * (two_thirds + t), two_thirds + t),
        (third + t) ** 3,
        R.normalize_associate(third * t + two_thirds),
    ]
    for p in cases:
        assert canonical_keys(p), p
    assert [type(u) for _x, u, _ts in cases[0].terms_dict()] == [int]
    assert {type(u) for _x, u, _ts in (third + t).terms_dict()} \
        == {Fraction, int}
    for _x, u, _ts in (R.var(R.ZT, "T") * R.var(R.ZT, "T")).terms_dict():
        assert type(u) is int


UNIT_RINGS = (R.Z, R.ZT, R.F2T, R.QT, R.Q, R.F4, U3)


@PROPERTY
@given(st.sampled_from(UNIT_RINGS).flatmap(polys))
def test_a_factor_one_returns_the_other_factor(p):
    one = R.one(p.ring)
    assert one.is_one()
    assert p * one == p and one * p == p
    assert canonical_keys(p * one)
    assert (p * one).is_one() == p.is_one() == (p == one)


def test_a_one_from_another_ring_is_refused():
    p = R.var(R.QT, "T") + R.one(R.QT)
    for other in (R.ZT, R.F2T, R.Q, U3):
        with pytest.raises(R.RingMismatchError):
            p * R.one(other)
        with pytest.raises(R.RingMismatchError):
            R.one(other) * p


def test_is_one_only_on_the_constant_one():
    for ring in (R.Z, R.ZT, R.QT, R.Q, U3):
        assert not R.from_int(ring, -1).is_one()
        assert not R.from_int(ring, 2).is_one()
        assert not R.zero(ring).is_one()
    for ring in (R.ZT, R.F2T, R.QT, U3):
        assert not R.var(ring, "T").is_one()
        assert not (R.var(ring, "T") + R.one(ring)).is_one()
    assert not R.var(U3, "U", Fraction(1, 3)).is_one()
    assert not R.from_int(R.F4, 2).is_one()     # the F4 generator x
    # -1 is 1 in characteristic 2
    assert R.from_int(R.F2T, -1).is_one()


def _with_units(ring):
    one = R.one(ring)
    return st.one_of(polys(ring), st.sampled_from((one, -one)))


@PROPERTY
@given(st.sampled_from(ORACLE_RINGS).flatmap(
    lambda ring: st.tuples(_with_units(ring), _with_units(ring))))
def test_products_with_unit_factors_agree_with_sympy(ab):
    a, b = ab
    assert _sympy_poly(a * b, 8) == _sympy_poly(a, 4) * _sympy_poly(b, 4)
