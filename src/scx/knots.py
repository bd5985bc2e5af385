"""Concrete complexes and classical invariants for two-bridge and torus
knots.

The two-bridge generator counts lattice solutions of a + q b = 0 (mod p)
in boxes: a pair of positive integers (k1, k2) solving the congruence
system with interior count 1 and boundary count 0 certifies a
zero-dimensional instanton moduli point between flat connections, its
action is k1 k2 / p, and the parity of k1 k2 decides whether the matrix
entry survives with monopole weight T^2 - T^-2 or cancels.  One box
counter serves the exact counts of the gradings and, with caps N1 <= 1
and N2 <= 2 that stop it early, one sweep that counts each box once, in
ascending (k1 k2, k1) order; a box solves the congruences of at most one
ordered pair (i, j), whose certificate is its first box with boundary
count 0, or 2 for the report's one-dimensional moduli.  Everything else
here is elementary number theory: torus-knot signatures by lattice
counting, Alexander polynomials from the semigroup <p, q>, and an
independent Goeritz-style signature oracle: the signs of the
continued-fraction pivots of the plumbing's Seifert form.
"""

from __future__ import annotations

import functools
import graphlib
from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import equivariant, linalg, rings, scomplex
from .linalg import Matrix
from .scomplex import Generator, SComplex


class KnotError(Exception):
    pass


class InconsistentComplexError(KnotError):
    """The generated matrices violate the structural relations; the
    assumed-zero v map cannot be correct."""


class CheckFailedError(KnotError):
    """An internal cross-check disagreed with the computation, so its
    result is refused."""


# certificate search bound: accepted certificates provably have
# k1 k2 < 2p (the interior count grows linearly in k1 k2 / p), and the
# enumeration sweeps k1 k2 <= SEARCH_MARGIN * p as a safety margin.
SEARCH_MARGIN = 4


def _two_bridge_q(p, q):
    """q mod p, once (p, q) is checked to name a two-bridge knot K(p, q):
    p odd and positive, q coprime to it."""
    if p < 1 or p % 2 == 0:
        raise KnotError("p must be an odd positive integer")
    if gcd(p, q) != 1:
        raise KnotError(f"p={p}, q={q} are not coprime")
    return q % p


def _check_torus(p, q):
    """Check that (p, q) names a torus knot T(p, q): both at least 2 and
    coprime."""
    if p < 2 or q < 2:
        raise KnotError("torus knot parameters must be at least 2")
    if gcd(p, q) != 1:
        raise KnotError(f"p={p}, q={q} are not coprime")


class ModuliCertificate(namedtuple("ModuliCertificate", "i j k1 k2 N1 N2")):
    """The box (k1, k2) certifying the moduli of the pair (i, j), with its
    interior count N1 and boundary count N2."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# congruence counting


def _box_counts(k1, k2, p, q, qinv, caps=(None, None)):
    """Interior and boundary counts (N1, N2) of a + q b = 0 (mod p) on the
    open box |a| < k1, |b| < k2 and on its edges, ``qinv`` the inverse of
    q mod p; None as soon as a running count passes its cap in ``caps``.
    The interior runs over the lines of the shorter side, and the edges
    are counted only once the interior is within its cap."""
    counts = []
    for cap in caps:
        if counts:
            lines = ((-k2, k2), q, k1 - 1), ((-k1, k1), qinv, k2 - 1)
        elif k1 >= k2:
            lines = (range(1 - k2, k2), q, k1 - 1),
        else:
            lines = (range(1 - k1, k1), qinv, k2 - 1),
        n = 0
        # on the line x fixed, the free coordinate y = -mult x (mod p) has
        # this many values in [-m, m]
        for fixed, mult, m in lines:
            for x in fixed:
                c = -mult * x % p
                n += (m - c) // p + (m + c) // p + 1
                if cap is not None and n > cap:
                    return None
        counts.append(n)
    return tuple(counts)


def count_N1N2(k1, k2, p, q):
    """Exact interior and boundary counts of a + q b = 0 (mod p) on the
    open box |a| < k1, |b| < k2 and its edges."""
    if k1 < 1 or k2 < 1:
        raise KnotError("box sides must be positive")
    return _box_counts(k1, k2, p, q, pow(q % p, -1, p))


@functools.lru_cache(maxsize=None)
def _certificate_table(p, q):
    """First certificates of the ordered pairs (i, j), i-major, None where
    no box fits: ``{0: moduli points, 2: one-dimensional moduli}``.  A box
    solves the congruences k1 = +-i +- j, q k2 = -+i +- j (mod p) of the
    one pair i = +-(k1 - q k2)/2, j = +-(k1 + q k2)/2 reduced into 0..m.
    """
    _two_bridge_q(p, q)
    m = (p - 1) // 2
    pairs = [(i, j) for i in range(m + 1) for j in range(m + 1) if i != j]
    tables = {0: dict.fromkeys(pairs), 2: dict.fromkeys(pairs)}
    half = (p + 1) // 2  # the inverse of 2 mod odd p
    qinv = pow(q, -1, p)
    bound = SEARCH_MARGIN * p
    boxes = sorted((k1 * k2, k1, k2) for k1 in range(1, bound + 1)
                   for k2 in range(1, bound // k1 + 1))
    for action, k1, k2 in boxes:
        i, j = (k1 - q * k2) * half % p, (k1 + q * k2) * half % p
        i, j = min(i, p - i), min(j, p - j)
        pair = (i, j)
        if i == j or (tables[0][pair] is not None
                      and tables[2][pair] is not None):
            continue
        # N2 is even: (a, b) -> (-a, -b) fixes no edge point
        n1, n2 = _box_counts(k1, k2, p, q, qinv, caps=(1, 2)) or (0, 0)
        if n1 != 1 or tables[n2][pair] is not None:
            continue
        if n2 == 0 and action >= 2 * p:
            raise CheckFailedError(
                "accepted certificate exceeds the proven action bound")
        tables[n2][pair] = ModuliCertificate(i, j, k1, k2, 1, n2)
    return tables


def solve_k1k2(p, q, i, j, boundary=0):
    """First certificate (ascending action) for the pair (i, j), or None,
    looked up in the sweep's tables.

    ``boundary=0`` asks for a moduli point (interior count 1, boundary
    0); ``boundary=2`` asks for the one-dimensional case instead.
    """
    m = (p - 1) // 2
    if i == j:
        raise KnotError("indices must differ")
    if boundary not in (0, 2):
        raise KnotError("the boundary count must be 0 or 2")
    if not (0 <= i <= m and 0 <= j <= m):
        raise KnotError(f"indices must lie in 0..{m}")
    return _certificate_table(p, q % p)[boundary][(i, j)]


# ---------------------------------------------------------------------------
# the two-bridge complex


@functools.lru_cache(maxsize=None)
def _two_bridge_data(p, q):
    """Gradings, Chern-Simons levels and local-coefficient entries of the
    two-bridge complex, over the universal ring with denominator p."""
    qn = _two_bridge_q(p, q)
    m = (p - 1) // 2
    ring = rings.universal(p)
    qinv = pow(qn, -1, p)

    grs = {}
    degs = {0: Fraction(0)}
    for i in range(1, m + 1):
        k1 = i
        k2 = (-qinv * i) % p or p
        n1, n2 = count_N1N2(k1, k2, p, qn)
        if n1 % 2 != 1 or n2 % 2 != 0:
            raise InconsistentComplexError(
                f"count parities broken at generator {i} of K({p},{q})")
        grs[i] = (n1 + n2 // 2) % 4
        # representative of the Chern-Simons level in (0, 1]: composite p
        # can place an irreducible at an integral level
        r = (-qinv * i * i) % p
        degs[i] = Fraction(r, p) if r else Fraction(1)

    certs = _certificate_table(p, qn)[0]
    tt = rings.var(ring, "T")
    weight = tt ** 2 - tt ** -2
    entries = {}
    for (i, j), cert in certs.items():
        if cert is None or (cert.k1 * cert.k2) % 2 == 0:
            continue
        u = 2 * (degs[i] - degs[j]) - Fraction(cert.k1 * cert.k2, p)
        entries[(i, j)] = rings.var(ring, "U", u) * weight

    # sign normalization (+1 everywhere) is valid only without directed
    # cycles among the nonzero entries
    order = graphlib.TopologicalSorter()
    for i, j in entries:
        order.add(j, i)
    try:
        order.prepare()
    except graphlib.CycleError:
        raise InconsistentComplexError(
            f"directed cycle among moduli entries of K({p},{q}); "
            "sign normalization is not justified") from None
    return ring, m, grs, degs, entries


def _room_for_v(m, grs):
    return any(grs[i] % 4 == (grs[j] - 2) % 4
               for i in range(1, m + 1) for j in range(1, m + 1))


def two_bridge_complex(p, q, ring="universal"):
    """The S-complex of the two-bridge knot K(p, q).

    ``ring`` is a ring name: "universal", the canonical
    Z[U^(1/p)-Laurent, T-Laurent], or a name of ``rings.RING_NAMES``,
    reached by the standard specializations (U -> 1, and T -> 1 for the
    constant rings, T -> x for F4).  The v map is stored as zero;
    it is trusted when the gradings leave no room for v entries or the
    target ring kills T, untrusted otherwise, in which case the v
    relation may fail on the stored placeholder and v-dependent
    operations refuse the complex.

    Over rings with signs (integer or rational coefficients and a live T
    variable) the uniform +1 normalization of the moduli entries is valid
    only when no two broken flow lines collide; colliding knots are
    refused there, since the combinatorial data does not determine the
    signed lift.  Over characteristic-two targets the collisions cancel
    and every K(p, q) is available.
    """
    uring, m, grs, degs, entries = _two_bridge_data(p, q)
    try:
        target = rings.named(ring, universal=uring)
    except KeyError:
        raise KnotError(f"unknown ring name {ring!r}")
    gens = [Generator(f"xi{i}", grs[i], degs[i]) for i in range(1, m + 1)]
    # entry (i, j) runs from generator i to j; 0 is the reducible
    cells = entries.items()
    d = Matrix.from_entries(uring, m, m, [(j - 1, i - 1, e)
                                          for (i, j), e in cells if i and j])
    delta1 = Matrix.from_entries(uring, 1, m, [(0, i - 1, e)
                                               for (i, j), e in cells if not j])
    delta2 = Matrix.from_entries(uring, m, 1, [(j - 1, 0, e)
                                               for (i, j), e in cells if not i])
    # where the specialization sends T to 1 the geometric v map vanishes
    t_killed = "T" not in target.tvars and target.tag != "F4"
    C = SComplex(uring, gens, d, Matrix.zeros(uring, m, m), delta1, delta2,
                 v_trusted=t_killed or not _room_for_v(m, grs))
    if target != uring:
        assignment = scomplex.standard_assignment(
            uring, target, **({"T": "x"} if target.tag == "F4" else {}))
        C = scomplex.base_change_complex(C, assignment, target, check=False)
    report = scomplex.validate(C)
    # With v stored as zero the only tolerable failure is the v relation,
    # and only when the gradings leave room for true v entries.
    hard = [f for f in report.failures if not f.startswith("d*v")]
    if hard:
        if not target.char_two:
            raise InconsistentComplexError(
                f"K({p},{q}) has colliding broken flow lines; its signed "
                f"lift over {target.tag} is not determined by the "
                "congruence data (use a characteristic-two ring)")
        raise InconsistentComplexError(
            f"generated K({p},{q}) complex is invalid: {hard}")
    if not report.ok and C.v_trusted:
        raise InconsistentComplexError(
            f"delta2*delta1 != 0 for K({p},{q}) but the gradings leave no "
            "room for any v map")
    return C


# ---------------------------------------------------------------------------
# Sasahira homology of lens spaces


def lens_sasahira(p, q):
    """Graded F2 ranks of the lens-space instanton homology of L(p, q),
    built from the mirror two-bridge data with unit weights."""
    _ring, m, grs, _degs, entries = _two_bridge_data(p, -q)
    o = rings.one(rings.F2)
    M = Matrix.from_entries(rings.F2, m, m, [(j - 1, i - 1, o)
                                             for i, j in entries if i and j])
    if not (M * M).is_zero():
        raise InconsistentComplexError(
            f"Sasahira differential does not square to zero for L({p},{q})")
    ranks = {}
    for g in range(4):
        cols = [i for i in range(m) if grs[i + 1] % 4 == g]
        cols_up = [i for i in range(m) if grs[i + 1] % 4 == (g + 1) % 4]
        d_out = M.columns_selected(cols)
        d_in = M.columns_selected(cols_up).rows_selected(cols)
        ranks[g] = len(cols) - linalg.rank(d_out) - linalg.rank(d_in)
    return ranks


# ---------------------------------------------------------------------------
# torus knots


@functools.cache
def torus_signature(p, q):
    """Signature of the (p, q) torus knot by exact lattice counting; the
    closed forms for q = 2kp +- 2 and q = (2k+1)p +- 2 are checked
    against the count whenever they apply."""
    _check_torus(p, q)
    if p % 2 == 0:
        p, q = q, p
    count = 0
    for m in range(1, (p - 1) // 2 + 1):
        for n in range(1, q):
            if 2 * (m * q + n * p) >= p * q:
                count += 1
    sigma = (p - 1) * (q - 1) - 4 * count

    for sign in (1, -1):
        r = q - sign * 2
        if r > 0 and r % (2 * p) == 0 and (r // (2 * p)) >= 1:
            k = r // (2 * p)
            closed = -(p - 1) * (k * p + k + sign)
            _check_closed_form("signature", p, q, sigma, closed)
        if r > 0 and r % p == 0 and (r // p) % 2 == 1:
            kk = (r // p - 1) // 2
            closed = (-(p - 1) * ((2 * kk + 1) * (p + 1) // 2 + 2 * sign)
                      + sign * 4 * (p // 4))
            _check_closed_form("signature", p, q, sigma, closed)
    return sigma


@functools.cache
def torus_alexander(p, q):
    """Symmetrized Alexander polynomial of the (p, q) torus knot and the
    sum of the absolute values of its coefficients.

    With S the semigroup generated by p and q and 2g = (p-1)(q-1), the
    coefficient of t^n in t^g Delta(t) is [n in S] - [n-1 in S] for
    0 <= n <= 2g.  An n >= 0 lies in S exactly when b q <= n for the b
    in [0, p) with b q = n (mod p)."""
    _check_torus(p, q)
    half = (p - 1) * (q - 1) // 2
    qinv = pow(q, -1, p)
    terms, below = {}, False
    for n in range(2 * half + 1):
        inside = n * qinv % p * q <= n
        if inside != below:
            terms[(0, 0, (n - half,))] = inside - below
            below = inside
    # int keys and coefficients +-1: canonical, so stored unchecked
    delta = rings.LaurentPoly._trusted(rings.ZT, terms)
    total = len(terms)

    for sign in (1, -1):
        r = q - sign * 2
        if r > 0 and r % p == 0:
            ell = r // p
            closed = (p - 1) // 2 * ((p + 1) * ell + 2 * sign) + sign
            _check_closed_form("Alexander norm", p, q, total, closed)
    return delta, total


def _check_closed_form(what, p, q, counted, closed):
    if closed != counted:
        raise CheckFailedError(
            f"the closed form gives {what} {closed} for T({p},{q}), "
            f"the computation {counted}")


def vanishing_check(p, q):
    """True exactly when 1 + |sigma| = |Delta|, which forces h = 0."""
    sigma = torus_signature(p, q)
    _delta, total = torus_alexander(p, q)
    return 1 + abs(sigma) == total


# ---------------------------------------------------------------------------
# signature oracle for two-bridge knots


def _even_continued_fraction_tails(p, qpp):
    """The tails x_1 = p/q'', x_(k+1) = 1/(2b_k - x_k) of the continued
    fraction p/q'' = 2b1 - 1/(2b2 - 1/(...)) with all quotients 2b_k
    even.  The last tail equals its quotient, so no tail is zero."""
    x = Fraction(p, qpp)
    tails = []
    while True:
        lo = 2 * (x / 2).__floor__()
        e = lo if abs(x - lo) < 1 else lo + 2
        if abs(x - e) >= 1:
            raise CheckFailedError("no even quotient within distance one")
        tails.append(x)
        rem = e - x
        if rem == 0:
            return tails
        x = 1 / rem


def two_bridge_signature_oracle(p, q):
    """Knot signature of K(p, q) via the even continued fraction of the
    mirror parameter: the plumbing of bands along [2b1, ..., 2bm] has
    symmetrized Seifert form tridiag(2b_i; 1), whose pivots from the
    bottom up are the tails x_k, so by Sylvester's law of inertia the
    signature is the sum of their signs."""
    _two_bridge_q(p, q)
    if p == 1:
        return 0  # the unknot: the empty plumbing
    r = (-q) % p
    qpp = r if r % 2 == 0 else r - p
    return sum(1 if x > 0 else -1
               for x in _even_continued_fraction_tails(p, qpp))


# ---------------------------------------------------------------------------
# fixtures


def fixture(name):
    """Small complexes taken as fixed inputs: the trivial complex, the
    right-handed trefoil, and the (3,4)/(3,5) torus knot complexes."""
    if name == "trivial":
        return SComplex.trivial(rings.Z)
    if name == "trefoil":
        return two_bridge_complex(3, -1)
    if name in ("t34", "t35"):
        ring, one = rings.Z, rings.one(rings.Z)
        grs = [1, 1, 3] if name == "t34" else [1, 1, 3, 3]
        n = len(grs)
        gens = [Generator(f"a{k+1}", g) for k, g in enumerate(grs)]
        C = SComplex(ring, gens, Matrix.zeros(ring, n, n),
                     Matrix.zeros(ring, n, n),
                     Matrix.from_entries(ring, 1, n, [(0, 0, one),
                                                      (0, 1, -one)]),
                     Matrix.zeros(ring, n, 1), v_trusted=True)
        rep = scomplex.validate(C)
        if not rep.ok:
            raise InconsistentComplexError(
                f"fixture {name} fails validation: {rep.failures}")
        return C
    raise KnotError(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# reports


class KnotInvariantReport(namedtuple(
        "KnotInvariantReport",
        "knot ring generators maps invariants warnings notes")):
    """The two-bridge report: the knot and ring names, then the lists and
    dicts :func:`two_bridge_report` fills, in the order the CLI prints
    them."""

    __slots__ = ()


def _map_summary(M, label):
    cells = [(i, j, e.to_str()) for i, j, e in M.nonzero_entries()]
    return {"label": label, "nonzero": len(cells), "entries": cells}


def two_bridge_report(p, q, C):
    """The report of K(p, q) from its complex ``C``, as built by
    :func:`two_bridge_complex`."""
    qn = _two_bridge_q(p, q)
    rep = KnotInvariantReport(f"K({p},{q})", C.ring.tag, [], {}, {}, [], [])
    if qn != q:
        rep.notes.append(f"q normalized to {qn} (mod {p})")
    rep.notes.append("signs normalized: all moduli entries taken with +1")
    for g in C.gens:
        rep.generators.append({
            "name": g.name, "gr_mod4": g.gr_mod4,
            "deg_I": None if g.deg_I is None else str(g.deg_I)})
    for label, M in (("d", C.d), ("v", C.v), ("delta1", C.delta1),
                     ("delta2", C.delta2)):
        rep.maps[label] = _map_summary(M, label)
    rep.invariants["euler_characteristic"] = scomplex.euler_characteristic(C)
    rep.invariants["signature_oracle"] = two_bridge_signature_oracle(p, q)
    rep.invariants["v_trusted"] = C.v_trusted
    if C.v_trusted:
        rep.invariants["h"] = equivariant.h_invariant(C)
    else:
        rep.warnings.append(
            "v map is assumed zero but the gradings leave room for v "
            "entries; h, ideal and Gamma computations are refused")
        parities = {f"{i}->{j}": "T^2,T^-2" if (c.k1 * c.k2) % 2 else "T^0"
                    for (i, j), c in
                    _certificate_table(p, qn)[2].items()
                    if c is not None}
        if parities:
            rep.notes.append(
                f"one-dimensional moduli monopole parities: {parities}")
    return rep
