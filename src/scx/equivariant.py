"""Equivariant models and the invariants extracted from them.

From an S-complex (C, d, v, delta1, delta2) over R one forms the large
equivariant complex (the total complex tensored with R[x], differential
-d~ + x*chi) and two small models:

    hat:    C[1] + R[x],      d(a, f) = (d a - sum_i v^i delta2(f_i), 0)
    check:  C + x^-1 R[[x^-1]], d(a, g) = (d a, sum_i delta1 v^(-i-1)(a) x^i)

with x acting by (a, f) |-> (v a, delta1(a) + x f) on the hat side.  The
image of the hat homology inside R[[x^-1, x]] is a finitely supported
R[x]-submodule when v is nilpotent; its top degree is minus the Froyshov
invariant h, and its degree-(-i) leading coefficients form the nested
ideal sequence J_i.  The Gamma function refines h by the minimal
Chern-Simons level of a witnessing cycle.

At each level k the three invariants read one matrix W_k = [A_k;
T_k], T_k its last row, built by ``_level_system``.  For k >= 1, A_k =
[d; delta1; delta1 v; ...; delta1 v^(k-2)] and T_k = delta1 v^(k-1), so
W_k = A_(k+1).  For k <= 0, A_k = [d | -delta2 | -v delta2 | ... |
-v^(-k) delta2] (its kernel holds the solutions of d(alpha) = sum_i v^i
delta2(a_i)) and T_k is the unit row reading a_(-k).  A witness at
level k is a kernel vector of A_k that T_k does not kill, and one exists
exactly when rank W_k > rank A_k over the fraction field: h is the
largest k with one, Gamma(k) the least Chern-Simons level of one over
the universal ring, and J_k is generated by the entries of T_k K for a
kernel basis K of A_k.  The systems nest (W_k leads W_(k+1) for k >= 1,
A_k leads A_(k-1) for k <= 0), so h reads which rows of one system and
which columns of another raise the rank (``linalg.pivot_columns``), and
J_k cuts one kernel basis, of the lowest A_k, by the row T_k K.  Gamma
reads one U-split S of W_k, whose rows born of T_k sort last: its value
is the level of the first unknown, in level order, at which S outranks
its head, the split of A_k (``linalg.raising_column``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import lcm

from . import linalg, rings, scomplex
from .linalg import Matrix, assemble
from .scomplex import ValidationReport


class EquivariantError(Exception):
    pass


class UntrustedVError(EquivariantError):
    """The requested invariant depends on a v map that is only assumed."""


class UnsupportedRingError(EquivariantError):
    pass


class _Infinity:
    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()


def _require_trusted(C, what):
    if not C.v_trusted:
        raise UntrustedVError(
            f"{what} needs the v map, but this complex only assumes v; "
            "the generator could not certify it")


def v_powers(C, k):
    """The list [I, v, ..., v^k], v itself C.v; once a power vanishes, the
    later entries reuse it instead of multiplying again."""
    vp = [Matrix.identity(C.ring, C.n), C.v][:k + 1]
    for _ in range(k - 1):
        last = vp[-1]
        vp.append(last if last.is_zero() else C.v * last)
    return vp


def nilpotency_index(C, vp=None):
    """Least m <= n with v^m = 0, or None when v is not nilpotent.

    ``vp`` is an optional list from :func:`v_powers` reaching v^n."""
    if vp is None:
        vp = v_powers(C, C.n)
    return next((m for m in range(C.n + 1) if vp[m].is_zero()), None)


# ---------------------------------------------------------------------------
# truncated matrices of the small triangle and the model equivalence


def small_triangle_matrices(C, depth):
    """Matrices of the small-model differentials and the triangle maps
    i, j, p on truncated bases.

    hat basis: n shifted generators then x^0..x^depth;
    check basis: n generators then x^-1..x^-depth;
    bar basis: x^-depth..x^depth.

    ``x_hat`` is x on the hat basis, (beta, f) |-> (v beta, delta1 beta +
    x f), with x^depth sent to 0: x^(depth + 1) lies outside the basis.
    """
    ring, n = C.ring, C.n
    hat_dim, chk_dim, bar_dim = n + depth + 1, n + depth, 2 * depth + 1
    one = Matrix.identity(ring, 1)
    vp, d1v, vd2 = _triangle_powers(C, depth)
    d_hat, x_hat = _hat_maps(C, depth, vd2)
    # row or column depth + i of the bar basis holds x^i
    return {
        "d_hat": d_hat,
        "d_check": assemble(ring, chk_dim, chk_dim, [(0, 0, C.d)] + [
            (n + j, 0, P) for j, P in enumerate(d1v)]),
        "i": assemble(ring, bar_dim, hat_dim, [
            (depth, n, Matrix.identity(ring, depth + 1))] + [
            (depth - j - 1, 0, P) for j, P in enumerate(d1v)]),
        "j": assemble(ring, hat_dim, chk_dim, [
            (0, 0, -Matrix.identity(ring, n))]),
        "p": assemble(ring, chk_dim, bar_dim, [
            (0, depth + i, P) for i, P in enumerate(vd2)] + [
            (n + j, depth - j - 1, one) for j in range(depth)]),
        "x_hat": x_hat,
    }


def _triangle_powers(C, depth):
    """v^i for i <= depth, delta1 v^i for i < depth, v^i delta2 for
    i <= depth."""
    vp = v_powers(C, depth)
    return vp, [C.delta1 * P for P in vp[:depth]], [P * C.delta2 for P in vp]


def _hat_maps(C, depth, vd2):
    """d_hat and x_hat of :func:`small_triangle_matrices`, from the list
    ``vd2`` of v^i delta2."""
    ring, n = C.ring, C.n
    size = n + depth + 1
    return (assemble(ring, size, size, [(0, 0, C.d)] + [
                (0, n + i, -P) for i, P in enumerate(vd2)]),
            assemble(ring, size, size, [
                (0, 0, C.v), (n, 0, C.delta1),
                (n + 1, n, Matrix.identity(ring, depth))]))


def _sum_of_products(pairs):
    """sum_i A_i B_i as one product [A_1 | A_2 | ...] [B_1; B_2; ...]."""
    lefts, rights = zip(*pairs)
    return reduce(Matrix.hstack, lefts) * reduce(Matrix.vstack, rights)


def _bad_columns(lhs, rhs):
    """The column indices where two matrices of one shape differ."""
    if lhs == rhs:
        return set()
    return {j for _i, j, _e in (lhs - rhs).nonzero_entries()}


def verify_model_equivalence(C, depth):
    """Check, on x-degrees up to ``depth``, that the displayed maps Phi
    and Psi between the large and small hat models are chain maps with
    Phi Psi = id and Psi Phi homotopic to the identity via K.

    Each identity is checked one x-degree at a time.  A degree of the
    large model has the basis of ``C.dtilde()`` (n generators, n shifted
    ones, e0) and D sends it by -dtilde to itself and by chi one degree
    up; the small model has the hat basis of
    :func:`small_triangle_matrices` (n generators, then x^0..x^depth).
    Every failed identity on a basis element becomes one report item.
    """
    if depth < 1:
        raise EquivariantError("truncation must be at least 1")
    report = ValidationReport()
    ring, n = C.ring, C.n
    one = Matrix.identity(ring, 1)
    size, small = 2 * n + 1, n + depth + 1
    # no x-degree below exceeds depth, so v^depth is the highest power used
    vp, d1v, vd2 = _triangle_powers(C, depth)
    minus_dt, chi = -C.dtilde()[1], C.chi_matrix()
    # x_small sends x^depth to 0, a degree no image of phis[k], k < depth,
    # reaches
    d_small, x_small = _hat_maps(C, depth, vd2)
    # Phi_k: beta x^k |-> (v^k beta, sum_j delta1 v^j beta x^(k-j-1)),
    # e0 x^k |-> x^k, alpha |-> 0
    phis = [assemble(ring, small, size,
                     [(0, n, vp[k]), (n + k, 2 * n, one)]
                     + [(n + k - j - 1, n, d1v[j]) for j in range(k)])
            for k in range(depth + 1)]
    # Psi_m, the degree-m part of Psi: beta |-> beta x^0, and x^i |->
    # e0 x^i + sum_j v^j delta2 x^(i-j-1) in the alpha slot
    psis = [assemble(ring, size, small,
                     [(2 * n, n + m, one)]
                     + [(0, n + m + j + 1, vd2[j]) for j in range(depth - m)]
                     + ([(n, 0, Matrix.identity(ring, n))] if m == 0 else []))
            for m in range(depth + 1)]
    # K_j, from degree k to degree k - j - 1: beta |-> -v^j beta as alpha
    homotopies = [assemble(ring, size, size, [(0, n, -vp[j])])
                  for j in range(depth)]

    def d_block(m, k):
        return minus_dt if m == k else chi if m == k + 1 else None

    def k_block(m, k):
        return homotopies[k - m - 1] if 0 <= m < k else None

    ident = Matrix.identity(ring, size)
    for k in range(depth):
        chain = _bad_columns(
            _sum_of_products([(phis[k], minus_dt), (phis[k + 1], chi)]),
            d_small * phis[k])
        x_equivariant = _bad_columns(phis[k + 1], x_small * phis[k])
        # Psi Phi - id = D K + K D, one output degree m <= k at a time
        homotopic = set()
        for m in range(k + 1):
            pairs = [(d_block(m, i), k_block(i, k)) for i in (m - 1, m)]
            pairs += [(k_block(m, i), d_block(i, k)) for i in (k, k + 1)]
            pairs += [(ident, ident)] if m == k else []
            homotopic |= _bad_columns(
                psis[m] * phis[k],
                _sum_of_products([p for p in pairs if None not in p]))
        for c in range(size):
            key = [(c // n, c % n, k) if c < 2 * n else (2, 0, k)]
            if c in chain:
                report.add(f"Phi fails the chain property on {key}")
            if c in x_equivariant:
                report.add(f"Phi fails x-equivariance on {key}")
            if c in homotopic:
                report.add(f"Psi Phi - id != dK + Kd on {key}")

    # Psi lands in degrees <= depth, so D Psi in degrees <= depth + 1
    no_psi = Matrix.zeros(ring, size, small)
    padded = [no_psi] + psis + [no_psi]
    psi_chain = set().union(*(
        _bad_columns(_sum_of_products([(minus_dt, here), (chi, below)]),
                     here * d_small)
        for below, here in zip(padded, padded[1:])))
    # Phi reads no alpha coordinate, so only the other rows of Psi meet it
    rest = range(n, size)
    inverse = _bad_columns(
        _sum_of_products([(P.columns_selected(rest), Q.rows_selected(rest))
                          for P, Q in zip(phis, psis)]),
        Matrix.identity(ring, small))
    for c in range(small):
        f = {c - n: rings.one(ring)} if c >= n else {}
        if c in psi_chain:
            report.add("Psi fails the chain property on a small basis "
                       f"element {f or 'generator'}")
        if c in inverse:
            report.add(f"Phi Psi != id on a small basis element {f}")
    return report


# ---------------------------------------------------------------------------
# the level systems and the Froyshov invariant


def _level_system(C, vp, k):
    """W_k of the module docstring.  ``vp`` is a list from
    :func:`v_powers`; powers past its end are its last entry, which is
    right once that entry is zero."""
    def vpow(j):
        return vp[min(j, len(vp) - 1)]

    if k >= 1:
        return reduce(Matrix.vstack, [C.delta1 * vpow(j) for j in range(k)],
                      C.d)
    A = reduce(Matrix.hstack, [-(vpow(j) * C.delta2) for j in range(1 - k)],
               C.d)
    return A.vstack(assemble(C.ring, 1, A.cols,
                             [(0, A.cols - 1, Matrix.identity(C.ring, 1))]))


def _search_bound(C, vp):
    m = nilpotency_index(C, vp)
    if m is not None:
        return m
    if C.ring.is_field or not rings.is_euclidean(C.ring):
        # over a field (or after passing to the fraction field) the spans
        # of delta1 v^i stabilize within n steps, which bounds |h|
        return C.n + 1
    raise UnsupportedRingError(
        f"v is not nilpotent and {C.ring} is not a field")


def h_invariant(C):
    """The Froyshov invariant of a complex with a trusted v map, from the
    pivot rows of W_b = A_(b + 1) and, when no k >= 1 has a witness, the
    pivot columns of A_(-b - 1), the first n rows of W_(-b - 1), b the
    search bound (module docstring).  The tests check it against the top
    nonzero index of :func:`j_ideals`."""
    _require_trusted(C, "the h invariant")
    # the bound is at most n + 1 and the searches reach v^(bound + 1)
    vp = v_powers(C, C.n + 2)
    bound = _search_bound(C, vp)
    # for k >= 1, A_k is the first n + k - 1 rows of W_b, and row n + k - 1
    # (T_k) raises its rank exactly when level k has a witness; once
    # delta1 v^(k-1) dies on ker A_k it stays dead: v^(m-k) maps later
    # witnesses back to level k
    rows = linalg.pivot_columns(_level_system(C, vp, bound).transpose())
    h = next((k for k in range(bound) if C.n + k not in rows), bound)
    if h > 0:
        return h
    # for k <= 0, A_k is the first n + 1 - k columns of A_(-b - 1), and
    # level k has a witness exactly when its last column, n - k, does not
    # raise the rank
    cols = linalg.pivot_columns(
        _level_system(C, vp, -bound - 1).rows_selected(range(C.n)))
    for k in range(0, -(bound + 2), -1):
        if C.n - k not in cols:
            return k
    raise EquivariantError("h search failed to terminate within its bound")


# ---------------------------------------------------------------------------
# ideal sequences


def _reduce_generators(ring, gens):
    """Collapse a generator list: gcd over the Euclidean rings, otherwise
    normalized associates with divisors removed."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    if rings.is_euclidean(ring):
        g = gens[0]
        for other in gens[1:]:
            g = rings.gcd(g, other)
        g = rings.normalize_associate(g)
        return [rings.one(ring)] if g.is_unit() else [g]
    normed = []
    for g in gens:
        g = rings.normalize_associate(g)
        if g not in normed:
            normed.append(g)
    out = [g for g in normed
           if not any(h != g and rings.divide(g, h) is not None
                      for h in normed)]
    return [rings.one(ring)] if any(g.is_unit() for g in out) else out


def j_ideals(C, i_min=None, i_max=None):
    """The nested ideal sequence J_i as generator lists, read off the
    level systems (module docstring).

    Over Z and the field Laurent rings J_i is the gcd of the entries of
    T_i K, K a kernel basis of A_i that the level below cuts by one row.
    Over Z[T-Laurent] the module theory is out of reach in general; the
    computation is honest only when d = 0 and v = 0 (which covers the
    generated two-bridge complexes with trusted v) and is refused
    otherwise.

    Returned dict maps i to [] (the zero ideal), [1] (the whole ring) or
    a list of normalized generators.
    """
    _require_trusted(C, "the ideal sequence")
    ring = C.ring
    if ring.tag == "ZT":
        return _j_ideals_zt(C, i_min, i_max)
    if not rings.is_euclidean(ring):
        raise UnsupportedRingError(
            f"ideal sequences over {ring} are not computable here")
    vp = v_powers(C, C.n)
    m = nilpotency_index(C, vp)
    if m is None:
        raise UnsupportedRingError(
            "the ideal sequence needs a nilpotent v map")
    if i_min is None:
        i_min = -(m + 1)
    if i_max is None:
        i_max = m
    # K K' is a kernel basis of A_(i+1) for a kernel basis K of A_i and
    # K' of the row T_i K, and the ideal of that row's entries does not
    # depend on K.  K keeps the unknowns of A_(i_min): rows past the first
    # n are the a_j, which the cuts below level 1 have set to zero.  T_i
    # for i >= 1 is row n + i - 1 of W_(i_max).
    cut = _level_system(C, vp, i_min)
    cut = cut.rows_selected(range(cut.rows - 1))
    stack = _level_system(C, vp, max(i_max, 1))
    K = Matrix.identity(ring, cut.cols)
    out = {}
    for i in range(i_min, i_max + 1):
        K = K * linalg.kernel_basis(cut)
        if i >= 1:
            cut = (stack.rows_selected([C.n + i - 1])
                   * K.rows_selected(range(C.n)))
        else:
            cut = K.rows_selected([C.n - i])
        out[i] = _reduce_generators(ring, [e for *_, e in
                                           cut.nonzero_entries()])
    return out


def _j_ideals_zt(C, i_min, i_max):
    if not (C.d.is_zero() and C.v.is_zero()):
        raise UnsupportedRingError(
            "over Z[T-Laurent] the ideal sequence is computed only for "
            "complexes with d = 0 and v = 0")
    ring = C.ring
    if i_min is None:
        i_min = -2
    if i_max is None:
        i_max = 2
    out = {}
    for i in range(i_min, i_max + 1):
        if i >= 2:
            out[i] = []
        elif i == 1:
            out[i] = _reduce_generators(
                ring, [C.delta1[0, j] for j in range(C.n)])
        elif i == 0:
            out[i] = [rings.one(ring)] if C.delta2.is_zero() else []
        else:
            out[i] = [rings.one(ring)]
    return out


# ---------------------------------------------------------------------------
# the Gamma function


def _u_split(M, slots):
    """M over the universal ring on the columns of ``slots``, a list of
    (column, U-shift), the j-th read as U^shift times an unknown over
    Z[T-Laurent] for an integral shift, split into U-homogeneous
    equations: the matrix over Z[T-Laurent] with one row per (row of M,
    stored U-slot of the product), rows in that order, and the number of
    its rows born of the rows of M before the last."""
    N = M.ring.udenom
    rows = {}
    M = M.columns_selected([j for j, _s in slots])
    for i, j, e in M.nonzero_entries():
        shift = slots[j][1] * N
        for (_x, n, ts), c in e.slot_terms():
            rows.setdefault((i, n + shift), {}).setdefault(j, {})[
                (0, 0, ts)] = c
    keys = sorted(rows)
    head = sum(i < M.rows - 1 for i, _n in keys)
    zt = rings.ZT
    return Matrix.from_entries(zt, len(keys), M.cols, (
        (r, j, rings.LaurentPoly._trusted(zt, terms))
        for r, key in enumerate(keys)
        for j, terms in rows[key].items())), head


def gamma(C, ks):
    """{k: Gamma(k)} for the levels ``ks``: the Chern-Simons level of the
    cheapest witness for h >= k, that is the level of the first unknown,
    in level order, at which rank W_k > rank A_k (module docstring) on
    the unknowns so far: the first column at which one U-split of W_k
    outranks its rows not born of T_k.  The refusals are checked and the
    powers of v built once for all levels.

    Defined for I-graded level-0 complexes over the universal ring with a
    trusted nilpotent v.  Each stored pair (gr_mod4, deg_I) is read as
    the aligned representative of a generator's bigrading orbit; the
    integer grading of any U-translate is gr_mod4 + 4a at level
    deg_I + a.  Each value is a Fraction (0 included) or INFINITY; finite
    exactly for k <= h, except on the products of the left- and the
    right-handed trefoil (K(3,1) with K(3,2), T1 or T2, in either
    order), where Gamma(h) comes out infinite: the six strict xfails of
    the Gamma law test, a known defect of that reading.
    """
    if C.ring.tag != "UNIV":
        raise UnsupportedRingError("Gamma needs the universal ring")
    if not C.is_I_graded():
        raise EquivariantError("Gamma needs the instanton grading")
    _require_trusted(C, "Gamma")
    vp = v_powers(C, C.n)
    if nilpotency_index(C, vp) is None:
        raise UnsupportedRingError("Gamma needs a nilpotent v map")

    # levels as ints in units of 1/D, D a common denominator of the deg_I
    D = lcm(*(Fraction(g.deg_I).denominator for g in C.gens))
    levels = [int(g.deg_I * D) for g in C.gens]
    out = {}
    for k in ks:
        # the unknowns (column, U-shift, level): the aligned translates,
        # then for k <= 0 the a_i with i = k mod 2 at level 0, a_(-k)
        # among them
        unknowns = []
        for i, g in enumerate(C.gens):
            shift, off = divmod(2 * k - 1 - g.gr_mod4, 4)
            if not off:
                unknowns.append((i, shift, levels[i] + shift * D))
        unknowns += [(C.n + i, (k + i) // 2, 0)
                     for i in range(k % 2, 1 - k, 2)]
        unknowns.sort(key=lambda u: u[2])
        # the first prefix of the unknowns on which W_k outranks A_k: a
        # witness on a prefix is one on every longer prefix (T_k is zero
        # below level 0 for k <= 0); the rows of T_k sort last
        S, head = _u_split(_level_system(C, vp, k),
                           [u[:2] for u in unknowns])
        c = linalg.raising_column(S, head)
        out[k] = INFINITY if c is None else Fraction(unknowns[c][2], D)
    return out


# ---------------------------------------------------------------------------
# module presentations


class ModulePresentation(namedtuple("ModulePresentation",
                                     "ring generators relations")):
    """Cokernel presentation: generators and a relation matrix whose
    columns are relations."""

    __slots__ = ()

    def to_dict(self):
        return {
            "ring": rings.ring_to_dict(self.ring),
            "generators": list(self.generators),
            "relations": scomplex.matrix_strings(self.relations),
        }


def hat_presentation(C):
    """Presentation of the small hat homology as a module over ring[x].

    Only valid when the small differential vanishes (d = 0 and delta2 =
    0), so that homology equals the chain module; each generator g yields
    the relation x*g - (v g) - delta1(g)*e0.
    """
    _require_trusted(C, "the hat presentation")
    if not (C.d.is_zero() and C.delta2.is_zero()):
        raise EquivariantError(
            "small-model differential is nonzero; the chain module is not "
            "the homology, presentation refused")
    rx = rings.poly_x(C.ring)
    lift = rings.homomorphism(C.ring, scomplex.standard_assignment(C.ring, rx),
                              rx)
    v, delta1 = C.v.map_entries(lift, rx), C.delta1.map_entries(lift, rx)
    n = C.n
    x_minus_v = Matrix.identity(rx, n) * rings.var(rx, "x") - v
    rel = assemble(rx, n + 1, n, [(0, 0, x_minus_v), (n, 0, -delta1)])
    return ModulePresentation(rx, [g.name for g in C.gens] + ["e0"], rel)


def bn_p_element(target):
    """The distinguished 4-term image of x under the theta base change."""
    t1 = rings.var(target, "T1")
    t2 = rings.var(target, "T2")
    t3 = rings.var(target, "T3")
    return (t1 * t2 * t3 + t1 ** -1 * t2 ** -1 * t3
            + t1 ** -1 * t2 * t3 ** -1 + t1 * t2 ** -1 * t3 ** -1)


def bn_presentation(pres, target="bn"):
    """Base-change a hat presentation along T -> T1 (or T0) and x -> P.

    ``target="bn"`` lands in the three-variable ring and presents the
    reduced theta-web module; ``target="sharp"`` lands in the
    four-variable ring and presents one summand of the unreduced one.
    """
    if target == "bn":
        tring = rings.S_BN
        t_image = rings.var(tring, "T1")
    elif target == "sharp":
        tring = rings.R_SHARP
        t_image = rings.var(tring, "T0")
    else:
        raise ValueError("target must be 'bn' or 'sharp'")
    src = pres.ring
    if src.base != "F2" or not src.has_x or src.tvars != ("T",):
        raise UnsupportedRingError(
            "the theta base change starts from F2[T-Laurent][x]")
    hom = rings.homomorphism(src, {"T": t_image, "x": bn_p_element(tring)},
                             tring)
    return ModulePresentation(tring, list(pres.generators),
                              pres.relations.map_entries(hom, tring))
