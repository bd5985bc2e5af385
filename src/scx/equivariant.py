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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

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

    def __str__(self):
        return "infinity"


INFINITY = _Infinity()


def _require_trusted(C, what):
    if not C.v_trusted:
        raise UntrustedVError(
            f"{what} needs the v map, but this complex only assumes v; "
            "the generator could not certify it")


def v_powers(C, k):
    """The list [I, v, ..., v^k]; once a power vanishes, the later
    entries reuse it instead of multiplying again."""
    vp = [Matrix.identity(C.ring, C.n)]
    for _ in range(k):
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
    report = ValidationReport(True)
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
# the Froyshov invariant


def _kernel_fn(ring):
    if rings.is_euclidean(ring):
        return linalg.kernel_basis
    return linalg.kernel_fraction_field


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


def h_invariant(C, method="search"):
    """The Froyshov invariant of a complex with a trusted v map.

    ``method="search"`` runs the two searches of the reinterpretation
    (largest k with a cycle seen by delta1 v^(k-1), else the largest
    non-positive k admitting d(alpha) = sum v^i delta2(a_i) with the top
    coefficient nonzero).  ``method="ideals"`` instead reads off the top
    nonzero index of the ideal sequence; the two routes must agree.

    Over Z solvability is taken over Z itself; over the non-Euclidean
    Laurent rings the searches run over the fraction field, which yields
    the same integer.
    """
    _require_trusted(C, "the h invariant")
    if method == "ideals":
        return _h_via_ideals(C)
    if method != "search":
        raise ValueError("method must be 'search' or 'ideals'")
    ker = _kernel_fn(C.ring)
    # the bound is at most n + 1 and the searches reach v^(bound + 1)
    vp = v_powers(C, C.n + 2)
    bound = _search_bound(C, vp)

    K = ker(C.d)
    if K.cols:
        cur = K
        h = 0
        for k in range(1, bound + 1):
            if cur.cols == 0:
                break
            w = (C.delta1 * vp[k - 1]) * cur
            if w.is_zero():
                # once delta1 v^(k-1) dies on the nested kernel it stays
                # dead: v^(m-k) maps later witnesses back to level k
                break
            h = k
            cur = cur * ker(w)
        if h > 0:
            return h

    M = C.d
    for k in range(0, -(bound + 2), -1):
        M = M.hstack(-(vp[-k] * C.delta2))
        Kk = ker(M)
        last = M.cols - 1
        if any(Kk[last, j] for j in range(Kk.cols)):
            return k
    raise EquivariantError("h search failed to terminate within its bound")


def _h_via_ideals(C):
    bound = _search_bound(C, v_powers(C, C.n))
    ideals = j_ideals(C, -(bound + 1), bound)
    for i in sorted(ideals, reverse=True):
        if ideals[i]:
            return i
    raise EquivariantError("ideal sequence is empty below the bound")


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
    """The nested ideal sequence J_i as generator lists.

    Over Z and the field Laurent rings every J_i is computed from kernel
    bases and collapsed to a single gcd generator.  Over Z[T-Laurent] the
    module theory is out of reach in general; the computation is honest
    only when d = 0 and v = 0 (which covers the generated two-bridge
    complexes with trusted v) and is refused otherwise.

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
    out = {}
    for i in range(i_min, i_max + 1):
        if i >= 1:
            M = C.d
            # v^j = v^m = 0 for j >= m
            for j in range(i - 1):
                M = M.vstack(C.delta1 * vp[min(j, m)])
            K = linalg.kernel_basis(M)
            row = (C.delta1 * vp[min(i - 1, m)]) * K
            gens = [row[0, j] for j in range(row.cols)]
        else:
            M = C.d
            for j in range(0, -i + 1):
                M = M.hstack(-(vp[min(j, m)] * C.delta2))
            K = linalg.kernel_basis(M)
            last = M.cols - 1
            gens = [K[last, j] for j in range(K.cols)]
        out[i] = _reduce_generators(ring, gens)
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


def _u_expanded_rows(ring, entries, shifts, ncols, zt):
    """Split sum_g s_g U^(shift_g) entry_g = 0 into U-homogeneous
    equations over Z[T-Laurent]; returns rows indexed by U-exponent."""
    buckets = {}
    for col, (e, s) in enumerate(zip(entries, shifts)):
        if not e:
            continue
        for (x, u, ts), c in e.sorted_terms():
            uu = u + s
            row = buckets.setdefault(
                uu, [rings.zero(zt) for _ in range(ncols)])
            row[col] = row[col] + rings.monomial(zt, c, t=(ts[0],))
    return buckets


def gamma(C, k):
    """Chern-Simons level of the cheapest witness for h >= k.

    Defined for I-graded level-0 complexes over the universal ring with a
    trusted nilpotent v.  Each stored pair (gr_mod4, deg_I) is read as
    the aligned representative of a generator's bigrading orbit; the
    integer grading of any U-translate is gr_mod4 + 4a at level
    deg_I + a.  Returns a Fraction (0 included) or INFINITY; finite
    exactly for k <= h.
    """
    ring = C.ring
    if ring.tag != "UNIV":
        raise UnsupportedRingError("Gamma needs the universal ring")
    if not C.is_I_graded():
        raise EquivariantError("Gamma needs the instanton grading")
    _require_trusted(C, "Gamma")
    vp = v_powers(C, C.n)
    m = nilpotency_index(C, vp)
    if m is None:
        raise UnsupportedRingError("Gamma needs a nilpotent v map")
    zt = rings.ZT

    target_gr = (2 * k - 1) % 4
    basis = []
    for i, g in enumerate(C.gens):
        if g.gr_mod4 % 4 == target_gr:
            shift = Fraction(2 * k - 1 - g.gr_mod4, 4)
            if shift.denominator == 1:
                basis.append((i, Fraction(shift), g.deg_I + shift))
    basis.sort(key=lambda t: t[2])

    if k >= 1:
        # v^j = v^m = 0 for j >= m
        target = C.delta1 * vp[min(k - 1, m)]
        maps = [C.d] + [C.delta1 * vp[min(j, m)] for j in range(k - 1)]
        degrees = sorted({deg for _i, _s, deg in basis})
        for t in degrees:
            cols = [(i, s) for i, s, deg in basis if deg <= t]
            if not cols:
                continue
            idxs = [i for i, _s in cols]
            shifts = [s for _i, s in cols]
            rows = []
            for M in maps:
                sub = M.columns_selected(idxs)
                for r in range(M.rows):
                    entries = [sub[r, j] for j in range(sub.cols)]
                    rows.extend(_u_expanded_rows(
                        ring, entries, shifts, len(cols), zt).values())
            A = Matrix(zt, rows, cols=len(cols)) if rows \
                else Matrix.zeros(zt, 0, len(cols))
            K = linalg.kernel_fraction_field(A)
            if K.cols == 0:
                continue
            sub_t = target.columns_selected(idxs)
            trows = []
            entries = [sub_t[0, j] for j in range(sub_t.cols)]
            trows.extend(_u_expanded_rows(
                ring, entries, shifts, len(cols), zt).values())
            T = Matrix(zt, trows, cols=len(cols)) if trows \
                else Matrix.zeros(zt, 0, len(cols))
            if not (T * K).is_zero():
                return t
        return INFINITY

    # k <= 0: unknowns are the cycle candidate plus the a_i with i = k mod 2
    a_indices = [i for i in range(0, -k + 1) if (i - k) % 2 == 0]
    vd2 = {i: vp[min(i, m)] * C.delta2 for i in a_indices}

    degrees = [None] + sorted({deg for _i, _s, deg in basis})
    for t in degrees:
        cols = [(i, s) for i, s, deg in basis if t is not None and deg <= t]
        idxs = [i for i, _s in cols]
        shifts = [s for _i, s in cols]
        ncols = len(cols) + len(a_indices)
        rows = {}
        sub = C.d.columns_selected(idxs) if cols else None
        for r in range(C.n):
            entries = [sub[r, j] for j in range(sub.cols)] if cols else []
            entries += [-vd2[i][r, 0] for i in a_indices]
            row_shifts = shifts + [Fraction(k + i, 2) for i in a_indices]
            got = _u_expanded_rows(ring, entries, row_shifts, ncols, zt)
            for uu, row in got.items():
                key = (r, uu)
                rows[key] = row
        A = Matrix(zt, list(rows.values()), cols=ncols) if rows \
            else Matrix.zeros(zt, 0, ncols)
        K = linalg.kernel_fraction_field(A)
        last = ncols - 1  # the a_(-k) column is forced last in a_indices
        if any(K[last, j] for j in range(K.cols)):
            return Fraction(0) if t is None else max(t, Fraction(0))
    return INFINITY


# ---------------------------------------------------------------------------
# module presentations


@dataclass
class ModulePresentation:
    """Cokernel presentation: generators and a relation matrix whose
    columns are relations."""

    ring: object
    generators: list
    relations: Matrix

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
    lift_assign = scomplex.standard_assignment(C.ring, rx)

    def lift(M):
        return M.map_entries(lambda p: rings.base_change(p, lift_assign, rx),
                             rx)

    n = C.n
    x_minus_v = Matrix.identity(rx, n) * rings.var(rx, "x") - lift(C.v)
    rel = assemble(rx, n + 1, n, [(0, 0, x_minus_v), (n, 0, -lift(C.delta1))])
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
    assignment = {"T": t_image, "x": bn_p_element(tring)}

    def bc(p):
        return rings.base_change(p, assignment, tring)

    return ModulePresentation(tring, list(pres.generators),
                              pres.relations.map_entries(bc, tring))
