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
T_k], T_k its last row, which ``_level_system`` places from the blocks
delta1 v^j and v^j delta2 that ``_blocks`` builds once per call, up to
the first zero power of v; the small models read the same blocks.
For k >= 1, A_k = [d; delta1; delta1 v; ...; delta1 v^(k-2)] and T_k =
delta1 v^(k-1), so W_k = A_(k+1).  For k <= 0, A_k = [d | -delta2 |
-v delta2 | ... | -v^(-k) delta2] (its kernel holds the solutions of
d(alpha) = sum_i v^i delta2(a_i)) and T_k is the unit row reading
a_(-k).  A witness at level k is a kernel vector of A_k that T_k does
not kill, and one exists exactly when rank W_k > rank A_k over the
fraction field: h is the largest k with one, Gamma(k) the least
Chern-Simons level of one over the universal ring, and J_k is generated
by the entries of T_k K for a kernel basis K of A_k.  The systems nest
(W_k leads W_(k+1) for k >= 1, A_k leads A_(k-1) for k <= 0), so h
reads which rows of one system and which columns of another raise the
rank (``linalg.pivot_columns``), and every J_k is one pivot of a
Euclidean sweep of the lowest A_k stacked with the rows T_k
(``linalg.kernel_gcds``).  Gamma reads one U-split S of W_k, whose
rows born of T_k sort last: its value is the level of the first
unknown, in level order, at which S outranks its head, the split of A_k
(``linalg.raising_column``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import takewhile
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
    d1v, vd2 = _blocks(C, v_powers(C, depth), depth, -depth)
    # row or column depth + i of the bar basis holds x^i
    return {
        "d_hat": _d_hat(C, depth, vd2),
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
        "x_hat": assemble(ring, hat_dim, hat_dim, [
            (0, 0, C.v), (n, 0, C.delta1),
            (n + 1, n, Matrix.identity(ring, depth))]),
    }


def _d_hat(C, depth, vd2):
    """d_hat of :func:`small_triangle_matrices`; ``vd2`` lists v^i delta2."""
    size = C.n + depth + 1
    return assemble(C.ring, size, size, [(0, 0, C.d)] + [
        (0, C.n + i, -P) for i, P in enumerate(vd2)])


def _phi_psi(C, depth, vp, d1v, vd2):
    """The lists [Phi_k] and [Psi_m], k and m up to ``depth``, of
    :func:`verify_model_equivalence`, from ``vp`` reaching v^depth and
    the lists of :func:`_blocks` for ``depth`` and ``-depth``."""
    ring, n = C.ring, C.n
    one = Matrix.identity(ring, 1)
    size, small = 2 * n + 1, n + depth + 1
    # Phi_k: beta x^k |-> (v^k beta, sum_j delta1 v^j beta x^(k-j-1)),
    # e0 x^k |-> x^k, alpha |-> 0
    phis = [assemble(ring, small, size,
                     [(0, n, vp[k]), (n + k, 2 * n, one)]
                     + [(n + k - j - 1, n, P) for j, P in enumerate(d1v[:k])])
            for k in range(depth + 1)]
    # Psi_m, the degree-m part of Psi: beta |-> beta x^0, and x^i |->
    # e0 x^i + sum_j v^j delta2 x^(i-j-1) in the alpha slot
    psis = [assemble(ring, size, small,
                     [(2 * n, n + m, one)]
                     + [(0, n + m + j + 1, P)
                        for j, P in enumerate(vd2[:depth - m])]
                     + ([(n, 0, Matrix.identity(ring, n))] if m == 0 else []))
            for m in range(depth + 1)]
    return phis, psis


def _failed_columns(pairs):
    """The columns where sum_i A_i B_i over the (A_i, B_i) of ``pairs``
    is nonzero: where an identity, its right side moved over, fails."""
    return {j for _i, j, _e in
            linalg.sum_of_products(pairs).nonzero_entries()}


def verify_model_equivalence(C, depth):
    """Check, on x-degrees up to ``depth``, that the displayed maps Phi
    and Psi between the large and small hat models are chain maps and
    that Psi Phi is homotopic to the identity via K.

    Each identity is checked one x-degree at a time.  A degree of the
    large model has the basis of ``C.dtilde()`` (n generators alpha, n
    shifted ones beta, e0) and D sends it by -dtilde to itself and by chi
    one degree up; the small model has the hat basis of
    :func:`small_triangle_matrices` (n generators, then x^0..x^depth).
    Every failed identity on a basis element becomes one report item.

    The homotopy is checked at output degrees 0 and 1 only: for m >= 1,
    degree m of input degree k is degree 1 of k - m + 1.  With j = k - m,
    id + DK + KD is -dtilde K_(j-1) - K_(j-1) dtilde (id if j = 0) + K_j
    chi (+ chi K_j if m >= 1); for m >= 1 Psi_m reads only x^m and x^(m+i+1)
    and Phi_k writes x^i only for i <= k, so Psi_m Phi_k = Psi_1 Phi_(j+1).

    Two more identities hold by the way :func:`_phi_psi` builds Phi and
    Psi, for any d, v, delta1 and delta2, so only the tests check them:
    - x Phi_k = Phi_(k+1): both send beta to (v^(k+1) beta, sum_(j<=k)
      delta1 v^j beta x^(k-j)) and e0 to x^(k+1);
    - Phi Psi = id: Phi reads only the beta and e0 slots, and Psi_m puts
      beta (m = 0) and e0 x^m exactly there.
    """
    if depth < 1:
        raise EquivariantError("truncation must be at least 1")
    report = ValidationReport()
    ring, n = C.ring, C.n
    size, small = 2 * n + 1, n + depth + 1
    # no x-degree below exceeds depth, so v^depth is the highest power used
    vp = v_powers(C, depth)
    d1v, vd2 = _blocks(C, vp, depth, -depth)
    phis, psis = _phi_psi(C, depth, vp, d1v, vd2)
    # each identity moves its right side over by a negated factor
    dt, chi = C.dtilde()[1], C.chi_matrix()
    minus_dt, minus_chi = -dt, -chi
    minus_d_small = -_d_hat(C, depth, vd2)
    # K_j, from degree k to degree k - j - 1: beta |-> -v^j beta as alpha
    homotopies = [assemble(ring, size, size, [(0, n, -vp[j])])
                  for j in range(depth)]
    ident = Matrix.identity(ring, size)
    minus_ident = -ident
    shifted = set()  # homotopy failures at output degree 1 of degrees <= k
    for k in range(depth):
        chain = _failed_columns([(phis[k], minus_dt), (phis[k + 1], chi),
                                 (minus_d_small, phis[k])])
        homotopic = set()
        for m in range(min(k, 1) + 1):  # Psi Phi - id = DK + KD, j = k - m
            j = k - m
            pairs = [(psis[m], phis[k])] + (
                [(minus_ident, ident)] if j == 0 else
                [(dt, homotopies[j - 1]), (homotopies[j - 1], dt)])
            pairs += [(homotopies[j], minus_chi)] + [
                (minus_chi, homotopies[j])] * m
            (shifted if m else homotopic).update(_failed_columns(pairs))
        homotopic |= shifted
        for c in range(size):
            key = [(c // n, c % n, k) if c < 2 * n else (2, 0, k)]
            if c in chain:
                report.add(f"Phi fails the chain property on {key}")
            if c in homotopic:
                report.add(f"Psi Phi - id != dK + Kd on {key}")

    # Psi lands in degrees <= depth, so D Psi in degrees <= depth + 1
    no_psi = Matrix.zeros(ring, size, small)
    padded = [no_psi] + psis + [no_psi]
    psi_chain = set().union(*(
        _failed_columns([(minus_dt, here), (chi, below),
                         (here, minus_d_small)])
        for below, here in zip(padded, padded[1:])))
    for c in sorted(psi_chain):
        f = {c - n: rings.one(ring)} if c >= n else {}
        report.add("Psi fails the chain property on a small basis "
                   f"element {f or 'generator'}")
    return report


# ---------------------------------------------------------------------------
# the level systems and the Froyshov invariant


def _blocks(C, vp, hi, lo):
    """The blocks of the level systems W_k for lo <= k <= hi: the lists
    [delta1 v^j for j < hi] and [v^j delta2 for j <= -lo], from ``vp``, a
    list of :func:`v_powers` reaching v^max(hi - 1, -lo) or a zero power:
    both stop at the first zero one, so a block past a list's end is 0."""
    live = list(takewhile(lambda P: not P.is_zero(), vp))
    return ([C.delta1 * P for P in live[:max(hi, 0)]],
            [P * C.delta2 for P in live[:max(1 - lo, 0)]])


def _level_system(C, blocks, k):
    """W_k of the module docstring, placed from the lists of
    :func:`_blocks`; a block past the end of its list is zero."""
    d1v, vd2 = blocks
    if k >= 1:
        return assemble(C.ring, C.n + k, C.n, [(0, 0, C.d)] + [
            (C.n + j, 0, P) for j, P in enumerate(d1v[:k])])
    cols = C.n + 1 - k
    return assemble(C.ring, C.n + 1, cols, [(0, 0, C.d)] + [
        (0, C.n + i, -P) for i, P in enumerate(vd2[:1 - k])] + [
        (C.n, cols - 1, Matrix.identity(C.ring, 1))])


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
    rows = linalg.pivot_columns(_level_system(
        C, _blocks(C, vp, bound, bound), bound).transpose())
    h = next((k for k in range(bound) if C.n + k not in rows), bound)
    if h > 0:
        return h
    # for k <= 0, A_k is the first n + 1 - k columns of A_(-b - 1), and
    # level k has a witness exactly when its last column, n - k, does not
    # raise the rank
    low = -bound - 1
    cols = linalg.pivot_columns(_level_system(
        C, _blocks(C, vp, low, low), low).rows_selected(range(C.n)))
    for k in range(0, -(bound + 2), -1):
        if C.n - k not in cols:
            return k
    raise EquivariantError("h search failed to terminate within its bound")


# ---------------------------------------------------------------------------
# ideal sequences


def _reduce_generators(ring, gens):
    """Collapse a generator list over Z[T-Laurent], zeros dropped:
    normalized associates with divisors removed."""
    normed = []
    for g in filter(None, gens):
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
    T_i K, K a kernel basis of A_i.  The systems nest: A_(i+1) is A_i cut
    by the row T_i, starting from A_(i_min).  So one matrix stacks
    A_(i_min) and the rows T_i, and ``linalg.kernel_gcds`` reads every
    J_i from one Euclidean sweep of it: when the sweep reaches row T_i,
    its rows below the rank hold a kernel basis of the rows above, and
    the pivot its Euclid loop leaves is the gcd of T_i on that basis.
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
    i_min = -(m + 1) if i_min is None else i_min
    i_max = m if i_max is None else i_max
    # T_i reads the unknown a_(-i) of A_(i_min) for i <= 0, and for i >= 1
    # is row n + i - 1 of W_(i_max) on the first n unknowns: the cuts
    # below level 1 have set the a_j to zero
    blocks = _blocks(C, vp, max(i_max, 1), i_min)
    A = _level_system(C, blocks, i_min)
    stack = _level_system(C, blocks, max(i_max, 1))
    levels, top = range(i_min, i_max + 1), A.rows - 1
    gcds = linalg.kernel_gcds(assemble(
        ring, top + len(levels), A.cols,
        [(0, 0, A.rows_selected(range(top)))] + [
            (top + k, 0, stack.rows_selected([C.n + i - 1])) if i >= 1
            else (top + k, C.n - i, Matrix.identity(ring, 1))
            for k, i in enumerate(levels)]))
    # a unit normalizes to 1
    return {i: [rings.normalize_associate(g)] if g else []
            for i, g in zip(levels, gcds[top:])}


def _j_ideals_zt(C, i_min, i_max):
    if not (C.d.is_zero() and C.v.is_zero()):
        raise UnsupportedRingError(
            "over Z[T-Laurent] the ideal sequence is computed only for "
            "complexes with d = 0 and v = 0")
    ring, one = C.ring, [rings.one(C.ring)]
    top = {1: _reduce_generators(ring, [C.delta1[0, j] for j in range(C.n)]),
           0: one if C.delta2.is_zero() else []}
    i_min = -2 if i_min is None else i_min
    i_max = 2 if i_max is None else i_max
    return {i: [] if i >= 2 else list(top.get(i, one))
            for i in range(i_min, i_max + 1)}


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
    M = M.columns_selected([j for j, _s in slots])
    rows = rings.u_split(N, M.nonzero_entries(), slots)
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
    blocks built once for all levels.

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
    blocks = _blocks(C, vp, max(ks, default=0), min(ks, default=0))
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
        S, head = _u_split(_level_system(C, blocks, k),
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
            "relations": scomplex.matrix_strings(self.relations, {}),
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
    t1, t2, t3 = (rings.var(target, f"T{i}") for i in (1, 2, 3))
    return (t1 * t2 * t3 + t1 ** -1 * t2 ** -1 * t3
            + t1 ** -1 * t2 * t3 ** -1 + t1 * t2 ** -1 * t3 ** -1)


def bn_presentation(pres, target="bn"):
    """Base-change a hat presentation along T -> T1 (or T0) and x -> P.

    ``target="bn"`` lands in the three-variable ring and presents the
    reduced theta-web module; ``target="sharp"`` lands in the
    four-variable ring and presents one summand of the unreduced one.
    """
    targets = {"bn": (rings.S_BN, "T1"), "sharp": (rings.R_SHARP, "T0")}
    if target not in targets:
        raise ValueError("target must be 'bn' or 'sharp'")
    tring, t = targets[target]
    src = pres.ring
    if src.base != "F2" or not src.has_x or src.tvars != ("T",):
        raise UnsupportedRingError(
            "the theta base change starts from F2[T-Laurent][x]")
    hom = rings.homomorphism(
        src, {"T": rings.var(tring, t), "x": bn_p_element(tring)}, tring)
    return ModulePresentation(tring, list(pres.generators),
                              pres.relations.map_entries(hom, tring))
