"""Shared test machinery: seeded random S-complexes built from primitive
pieces closed under tensor/dual, and small independent oracles (naive box
counting, a transform-free integer Smith reduction) used to freeze
expected values."""

import random
from fractions import Fraction

from scx import equivariant, linalg, rings, scomplex
from scx.linalg import Matrix
from scx.scomplex import Generator, SComplex


def random_poly(rng, ring, allow_zero=False):
    if allow_zero and rng.random() < 0.3:
        return rings.zero(ring)
    if ring.base == "Z":
        c = rng.choice([1, -1, 2, -2, 1])
    elif ring.base == "Q":
        c = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 1, 2]))
    else:
        c = 1
    t = rng.randint(-2, 2) if ring.tvars else None
    u = 0
    if ring.udenom:
        u = Fraction(rng.randint(-2, 2), 1)
    p = rings.monomial(ring, c, u=u, t=t if t is not None else ())
    if rng.random() < 0.4 and ring.tvars:
        p = p + rings.monomial(ring, c, t=rng.randint(-2, 2))
    return p if p else rings.one(ring)


def v_chain(ring, p):
    """a -> b -> c under v, with delta1 = (1, 0, p) and d = delta2 = 0:
    delta1 v^2 reaches p on all cycles but only p^2 on those that
    delta1 kills, so J_3 = (p^2) needs the cut at level 1.  Tensored
    with the dual of the chain for p = 1 it has J_0 = (p^2), which needs
    the cuts below level 0."""
    one, z = rings.one(ring), rings.zero(ring)
    gens = [Generator("a", 1), Generator("b", 3), Generator("c", 1)]
    v = Matrix(ring, [[z, z, z], [one, z, z], [z, one, z]])
    return SComplex(ring, gens, Matrix.zeros(ring, 3, 3), v,
                    Matrix(ring, [[one, z, p]]), Matrix.zeros(ring, 3, 1))


def _primitive(rng, ring, v_chains=False):
    kinds = ["zero", "delta1", "delta2", "dpair", "vpair"]
    kind = rng.choice(kinds + ["vchain"] * v_chains)
    if kind == "vchain":
        # 1 + a random element: more often a non-unit than random_poly
        return v_chain(ring, rings.one(ring) + random_poly(rng, ring))
    if kind == "zero":
        n = rng.randint(1, 2)
        gens = [Generator(f"z{k}", rng.randrange(4)) for k in range(n)]
        return SComplex.zero_maps(ring, gens)
    if kind == "delta1":
        gens = [Generator("a", 1)]
        C = SComplex(ring, gens, Matrix.zeros(ring, 1, 1),
                     Matrix.zeros(ring, 1, 1),
                     Matrix(ring, [[random_poly(rng, ring)]]),
                     Matrix.zeros(ring, 1, 1))
        return C
    if kind == "delta2":
        gens = [Generator("b", 2)]
        return SComplex(ring, gens, Matrix.zeros(ring, 1, 1),
                        Matrix.zeros(ring, 1, 1),
                        Matrix.zeros(ring, 1, 1),
                        Matrix(ring, [[random_poly(rng, ring)]]))
    if kind == "dpair":
        g = rng.randrange(4)
        gens = [Generator("s", g), Generator("t", (g - 1) % 4)]
        z = rings.zero(ring)
        d = Matrix(ring, [[z, z], [random_poly(rng, ring), z]])
        return SComplex(ring, gens, d, Matrix.zeros(ring, 2, 2),
                        Matrix.zeros(ring, 1, 2), Matrix.zeros(ring, 2, 1))
    g = rng.randrange(4)
    gens = [Generator("s", g), Generator("t", (g - 2) % 4)]
    z = rings.zero(ring)
    v = Matrix(ring, [[z, z], [random_poly(rng, ring), z]])
    return SComplex(ring, gens, Matrix.zeros(ring, 2, 2), v,
                    Matrix.zeros(ring, 1, 2), Matrix.zeros(ring, 2, 1))


def _rename(C, tag):
    gens = [Generator(f"{tag}.{g.name}", g.gr_mod4, g.deg_I, g.hol)
            for g in C.gens]
    return SComplex(C.ring, gens, C.d, C.v, C.delta1, C.delta2, C.v_trusted)


def random_scomplex(rng, ring, max_gens=12, allow_dual=True,
                    v_chains=False):
    """A random valid S-complex with nilpotent v: tensor products and
    duals of five primitive shapes, and with ``v_chains`` of a sixth, the
    :func:`v_chain` on which the cuts of the level systems change J_3."""
    C = _rename(_primitive(rng, ring, v_chains), "p0")
    for step in range(rng.randint(0, 2)):
        P = _rename(_primitive(rng, ring, v_chains), f"p{step+1}")
        if 2 * C.n * P.n + C.n + P.n > max_gens:
            break
        C = scomplex.tensor(C, P)
    if allow_dual and rng.random() < 0.3:
        C = scomplex.dual(C)
    report = scomplex.validate(C)
    assert report.ok, report.failures
    return C


# ---------------------------------------------------------------------------
# independent oracles


def naive_counts(k1, k2, p, q):
    """Box counts by raw double loops (the stated enumeration oracle)."""
    n1 = sum(1 for a in range(-k1 + 1, k1) for b in range(-k2 + 1, k2)
             if (a + q * b) % p == 0)
    n2 = 0
    for a in range(-k1, k1 + 1):
        for b in range(-k2, k2 + 1):
            on_a, on_b = abs(a) == k1, abs(b) == k2
            if on_a != on_b and (a + q * b) % p == 0:
                n2 += 1
    return n1, n2


def torus_alexander_by_division(p, q):
    """The symmetrized Alexander polynomial of T(p, q) as the exact
    quotient (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by
    ``rings.divide``, shifted by -(p-1)(q-1)/2: the oracle of
    ``knots.torus_alexander``'s semigroup route."""
    t, o = rings.var(rings.ZT, "T"), rings.one(rings.ZT)
    quot = rings.divide((t ** (p * q) - o) * (t - o),
                        (t ** p - o) * (t ** q - o))
    assert quot is not None, (p, q)
    return quot * t ** (-((p - 1) * (q - 1) // 2))


def naive_cert_search(p, q, i, j, bound_factor=4, boundary=0):
    """Exhaustive (k1, k2) search using only naive_counts: the box of
    least k1 k2, then least k1, with interior count 1 and boundary count
    ``boundary``."""
    qinv = pow(q % p, -1, p)
    best = None
    for k1 in range(1, bound_factor * p + 1):
        for k2 in range(1, bound_factor * p // k1 + 1):
            ok = False
            for e1 in (1, -1):
                for e2 in (1, -1):
                    if (k1 - e1 * i - e2 * j) % p == 0 and \
                            (q * k2 + e1 * i - e2 * j) % p == 0:
                        ok = True
            if not ok:
                continue
            n1, n2 = naive_counts(k1, k2, p, q)
            if n1 == 1 and n2 == boundary:
                if best is None or k1 * k2 < best[0] * best[1]:
                    best = (k1, k2)
    return best


def naive_integer_diagonal(rows):
    """Invariant factors of an integer matrix by a transform-free Smith
    reduction; used as an oracle for homology computations."""
    A = [list(r) for r in rows]
    m, n = len(A), len(A[0]) if rows else 0
    diag = []
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (piv is None or abs(A[i][j]) < piv[0]):
                    piv = (abs(A[i][j]), i, j)
        if piv is None:
            break
        _, pi, pj = piv
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    qq = A[i][t] // A[t][t]
                    A[i] = [x - qq * y for x, y in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    qq = A[t][j] // A[t][t]
                    for i in range(m):
                        A[i][j] -= qq * A[i][t]
                    if A[t][j]:
                        for i in range(m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        dirty = True
        diag.append(abs(A[t][t]))
        t += 1
    out = []
    for d in diag:
        if d:
            out.append(d)
    # enforce the divisibility chain by gcd/lcm swaps
    import math
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if b % a:
                g = math.gcd(a, b)
                out[i], out[i + 1] = g, a * b // g
                changed = True
    return out


def reference_base_change(p, assignment, target):
    """``rings.base_change`` as it was before ``rings.homomorphism``: the
    assignment is checked on every call, and every term converts its
    coefficient and raises its variables' images from scratch.  Kept as
    the oracle the one-map-per-assignment version is compared against."""
    src = p.ring
    for name in src.variables():
        if name not in assignment:
            raise rings.RingError(f"assignment misses variable {name!r}")
    for name, val in assignment.items():
        if isinstance(val, rings.LaurentPoly) and val.ring != target:
            raise rings.RingMismatchError(
                f"image of {name!r} lies in {val.ring}, not {target}")
    result = rings.zero(target)
    for (x, n, ts), c in p._terms.items():
        term = _convert_scalar(c, src.base, target)
        if n:
            term = term * rings._pow_rational(assignment["U"],
                                              rings._u_value(src, n))
        for name, e in zip(src.tvars, ts):
            if e:
                term = term * assignment[name] ** e
        if x:
            term = term * assignment["x"] ** x
        result = result + term
    return result


def _convert_scalar(c, src_base, target):
    if src_base == "Z":
        return rings.from_int(target, c)
    if src_base == target.base:
        return rings.LaurentPoly(target,
                                 {(0, 0, (0,) * len(target.tvars)): c})
    if src_base == "F2" and target.base == "F4":
        return rings.from_int(target, c)
    raise rings.RingError(f"no coefficient map {src_base} -> {target.base}")


def reference_eliminate(M):
    """``linalg._eliminate`` as it was before the forward-only sweep:
    division-free Gauss-Jordan elimination, which clears every other row
    at each pivot, the rows above it included.  Returns the reduced row
    dicts and the (row, col) pivots; each column pivots on its candidate
    with the fewest terms.  Kept as the oracle the echelon sweep and the
    back pass of ``kernel_fraction_field`` are compared against."""
    A, m = list(M._dicts), M.rows
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        if r == m:
            break
        cands = [i for i in range(r, m) if c in A[i]]
        if not cands:
            continue
        best = min(cands, key=lambda i: len(A[i][c]))
        A[r], A[best] = A[best], A[r]
        p = A[r][c]
        for i in range(m):
            q = A[i].get(c)
            if i == r or q is None:
                continue
            row = {j: p * e for j, e in A[i].items()}
            linalg._add_into(row, A[r], -q)
            A[i] = row
        pivots.append((r, c))
    return A, pivots


def reference_kernel(M):
    """The kernel columns, as {row: entry} dicts, read from the reduced
    form of :func:`reference_eliminate`: one per free column f, holding
    the product P of the pivots at f, and -a * (P / d) at the pivot
    column of each pivot row with pivot d and entry a at f, where P / d
    is the product of the other pivots."""
    A, pivots = reference_eliminate(M)
    diag = [A[r][c] for r, c in pivots]
    others = []
    for k in range(len(diag)):
        other = rings.one(M.ring)
        for d in diag[:k] + diag[k + 1:]:
            other = other * d
        others.append(other)
    product = others[0] * diag[0] if diag else rings.one(M.ring)
    return [{f: product, **{c: -(A[r][f] * other)
                            for (r, c), other in zip(pivots, others)
                            if f in A[r]}}
            for f in range(M.cols) if f not in {c for _r, c in pivots}]


def split_level_system(W):
    """(A_k, T_k) of a level system W_k = [A_k; T_k]: its rows but the
    last, and its last row."""
    return W.rows_selected(range(W.rows - 1)), W.rows_selected([W.rows - 1])


def reference_u_split(M, unknowns):
    """The Gamma oracle's U-split, kept apart from the int U-slots of
    ``equivariant._u_split``: M over the universal ring on the columns of
    ``unknowns``, a list of (column, U-shift, level), the j-th read as
    U^shift times an unknown over Z[T-Laurent], split into U-homogeneous
    equations keyed by Fraction U-exponents, one row per (row of M,
    U-exponent) in that order."""
    rows = {}
    M = M.columns_selected([j for j, _s, _t in unknowns])
    for i, j, e in M.nonzero_entries():
        for (_x, u, ts), c in e.terms_dict().items():
            rows.setdefault((i, u + unknowns[j][1]), {}).setdefault(
                j, {})[(0, 0, ts)] = c
    zt = rings.ZT
    return Matrix.from_entries(zt, len(rows), M.cols, (
        (r, j, rings.LaurentPoly(zt, terms))
        for r, key in enumerate(sorted(rows))
        for j, terms in rows[key].items()))


def reference_j_ideals(C, i_min, i_max):
    """``equivariant.j_ideals`` over the Euclidean rings from one Smith
    form per level: a kernel basis K of each A_i from its own Smith
    form, and J_i from the entries of T_i K.  The oracle of the one
    Euclidean sweep that reads every J_i: the two share no
    elimination."""
    blocks = equivariant._blocks(C, equivariant.v_powers(C, C.n),
                                 i_max, i_min)
    out = {}
    for i in range(i_min, i_max + 1):
        A, T = split_level_system(equivariant._level_system(C, blocks, i))
        row = T * linalg.kernel_basis(A)
        # gcd normalizes, so a unit gcd is 1
        g = rings.zero(C.ring)
        for j in range(row.cols):
            g = rings.gcd(g, row[0, j])
        out[i] = [g] if g else []
    return out


def reference_bad_columns(pairs, rhs):
    """The columns where sum_i A_i B_i over the (A_i, B_i) of ``pairs``,
    its products summed with +, differs from ``rhs``, read off their
    difference."""
    lhs = sum((A * B for A, B in pairs[1:]), pairs[0][0] * pairs[0][1])
    return {j for _i, j, _e in (lhs - rhs).nonzero_entries()}


def reference_model_check(C, depth):
    """The failure list of ``equivariant.verify_model_equivalence`` with
    each identity lhs = rhs read by :func:`reference_bad_columns`, its
    two sides built apart and compared by a difference, not as one sum
    of products with the right side moved over."""
    ring, n = C.ring, C.n
    size, small = 2 * n + 1, n + depth + 1
    vp = equivariant.v_powers(C, depth)
    d1v, vd2 = equivariant._blocks(C, vp, depth, -depth)
    phis, psis = equivariant._phi_psi(C, depth, vp, d1v, vd2)
    minus_dt, chi = -C.dtilde()[1], C.chi_matrix()
    d_small = equivariant._d_hat(C, depth, vd2)
    homotopies = [linalg.assemble(ring, size, size, [(0, n, -vp[j])])
                  for j in range(depth)]
    ident = Matrix.identity(ring, size)
    failures, shifted = [], set()
    for k in range(depth):
        chain = reference_bad_columns(
            [(phis[k], minus_dt), (phis[k + 1], chi)], d_small * phis[k])
        homotopic = set()
        for m in range(min(k, 1) + 1):
            j = k - m
            pairs = [(ident, ident)] if j == 0 else [
                (minus_dt, homotopies[j - 1]), (homotopies[j - 1], minus_dt)]
            pairs += [(homotopies[j], chi)] + [(chi, homotopies[j])] * m
            (shifted if m else homotopic).update(reference_bad_columns(
                pairs, psis[m] * phis[k]))
        homotopic |= shifted
        for c in range(size):
            key = [(c // n, c % n, k) if c < 2 * n else (2, 0, k)]
            if c in chain:
                failures.append(f"Phi fails the chain property on {key}")
            if c in homotopic:
                failures.append(f"Psi Phi - id != dK + Kd on {key}")
    no_psi = Matrix.zeros(ring, size, small)
    padded = [no_psi] + psis + [no_psi]
    psi_chain = set().union(*(
        reference_bad_columns([(minus_dt, here), (chi, below)],
                              here * d_small)
        for below, here in zip(padded, padded[1:])))
    for c in sorted(psi_chain):
        f = {c - n: rings.one(ring)} if c >= n else {}
        failures.append("Psi fails the chain property on a small basis "
                        f"element {f or 'generator'}")
    return failures


def reference_matrix_strings(M):
    """The wire rows of M written cell by cell: ``to_str`` of each stored
    entry, "0" elsewhere."""
    out = [["0"] * M.cols for _ in range(M.rows)]
    for i, j, e in M.nonzero_entries():
        out[i][j] = e.to_str()
    return out


def reference_to_dict(C):
    """``scomplex.to_dict`` with every cell printed on its own by
    :func:`reference_matrix_strings`."""
    return {
        "ring": rings.ring_to_dict(C.ring),
        "generators": [{"name": g.name, "gr_mod4": g.gr_mod4,
                        "deg_I": None if g.deg_I is None else str(g.deg_I),
                        "hol": None if g.hol is None else str(g.hol)}
                       for g in C.gens],
        "d": reference_matrix_strings(C.d),
        "v": reference_matrix_strings(C.v),
        "delta1": reference_matrix_strings(C.delta1)[0] if C.n else [],
        "delta2": [row[0] for row in reference_matrix_strings(C.delta2)],
        "v_trusted": C.v_trusted,
    }


def int_matrix(ring, rows, cols=None):
    return Matrix(ring, [[rings.from_int(ring, v) for v in row]
                         for row in rows], cols=cols)
