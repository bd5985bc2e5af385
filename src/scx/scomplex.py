"""The category of S-complexes.

An S-complex over a ring R is a finitely generated free complex
C + C[1] + R whose total differential is assembled from four maps on the
irreducible part C: a differential d (degree -1 mod 4), an endomorphism v
(degree -2), a functional delta1 defined on degree 1, and a map delta2
from the reducible line into degree -2.  The structure maps must satisfy

    d*d = 0,  delta1*d = 0,  d*delta2 = 0,  d*v - v*d - delta2*delta1 = 0,

with gradings as above.  This module provides construction, validation,
tensor products, duals, morphism checking, Euler characteristics,
coefficient base change, the unreduced mapping-cone model (a
(generators, differential) pair, like the total complex of ``dtilde``),
and the JSON wire format shared with the command line.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from . import rings
from .linalg import Matrix, assemble, kron, sum_of_products
from .rings import RingError, RingMismatchError


class SComplexError(Exception):
    pass


class SchemaError(SComplexError):
    """A serialized document does not follow the JSON schema."""


class Generator(namedtuple("Generator", "name gr_mod4 deg_I hol")):
    """A named generator: its grading mod 4 (reduced into 0..3) and, when
    known, its Chern-Simons level deg_I and holonomy parameter hol."""

    __slots__ = ()

    def __new__(cls, name, gr_mod4, deg_I=None, hol=None):
        return super().__new__(cls, name, gr_mod4 % 4, deg_I, hol)


class ValidationReport:
    """The failures a check found; ok (and truthy) while there are none."""

    __slots__ = ("failures",)

    def __init__(self):
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def add(self, msg):
        self.failures.append(msg)

    def __bool__(self):
        return self.ok


class SComplex:
    """Finitely generated S-complex with explicit structure matrices.

    ``v_trusted`` records whether the v map is known exactly; generated
    two-bridge complexes mark it False whenever the gradings leave room
    for instanton contributions that the generator does not compute.
    """

    __slots__ = ("ring", "gens", "d", "v", "delta1", "delta2", "v_trusted")

    def __init__(self, ring, gens, d, v, delta1, delta2, v_trusted=True):
        n = len(gens)
        if len({g.name for g in gens}) != n:
            raise SComplexError("generator names must be unique")
        graded = [g.deg_I is not None for g in gens]
        if any(graded) and not all(graded):
            raise SComplexError("deg_I must be present on all generators "
                                "or on none")
        for M, (r, c), label in ((d, (n, n), "d"), (v, (n, n), "v"),
                                 (delta1, (1, n), "delta1"),
                                 (delta2, (n, 1), "delta2")):
            if M.ring != ring:
                raise RingMismatchError(f"{label} over {M.ring}, not {ring}")
            if (M.rows, M.cols) != (r, c):
                raise SComplexError(
                    f"{label} has shape {M.rows}x{M.cols}, expected {r}x{c}")
        self.ring = ring
        self.gens = list(gens)
        self.d = d
        self.v = v
        self.delta1 = delta1
        self.delta2 = delta2
        self.v_trusted = bool(v_trusted)

    @property
    def n(self):
        return len(self.gens)

    def is_I_graded(self):
        return bool(self.ring.udenom) and all(g.deg_I is not None
                                              for g in self.gens)

    @classmethod
    def zero_maps(cls, ring, gens, v_trusted=True):
        n = len(gens)
        return cls(ring, gens, Matrix.zeros(ring, n, n),
                   Matrix.zeros(ring, n, n), Matrix.zeros(ring, 1, n),
                   Matrix.zeros(ring, n, 1), v_trusted)

    @classmethod
    def trivial(cls, ring):
        return cls.zero_maps(ring, [])

    def dtilde(self):
        """Total complex basis [C gens, shifted gens, reducible] and its
        differential [[d,0,0],[v,-d,delta2],[delta1,0,0]]."""
        n = self.n
        names = ([(g.name, g.gr_mod4) for g in self.gens]
                 + [(g.name + "~", (g.gr_mod4 + 1) % 4) for g in self.gens]
                 + [("e0", 0)])
        return names, assemble(self.ring, 2 * n + 1, 2 * n + 1, [
            (0, 0, self.d), (n, 0, self.v), (n, n, -self.d),
            (n, 2 * n, self.delta2), (2 * n, 0, self.delta1)])

    def chi_matrix(self):
        """The degree-1 endomorphism of the total complex: identity from
        the first summand onto the shifted copy, zero elsewhere."""
        n = self.n
        return assemble(self.ring, 2 * n + 1, 2 * n + 1,
                        [(n, 0, Matrix.identity(self.ring, n))])

    def __repr__(self):
        return (f"<SComplex over {self.ring.tag} with {self.n} generators, "
                f"v_trusted={self.v_trusted}>")


# ---------------------------------------------------------------------------
# validation


def _entry_gradings_ok(report, label, M, src_grs, dst_grs, drop):
    for i, j, _e in M.nonzero_entries():
        if (src_grs[j] - drop) % 4 != dst_grs[i] % 4:
            report.add(f"{label}[{i},{j}] nonzero but grading "
                       f"{src_grs[j]} -/-> {dst_grs[i]} (drop {drop})")


def _entry_levels_ok(report, label, M, src_deg, dst_deg, strict):
    # Chern-Simons filtration check, path-normalized: an entry monomial
    # U^u from level a to level b has integer defect u - (a - b) and its
    # image sits at level defect + b, which must not exceed a.  In units
    # of 1/N, with n = N*u the stored U-slot and m = N*(a - b), the defect
    # is an integer when m is one and N divides n - m, and the image lies
    # at or above a exactly when n >= 2m.  The verdict depends on n alone,
    # so each U-slot of an entry is judged once, in term order, in ints.
    N = M.ring.udenom
    for i, j, e in M.nonzero_entries():
        a, b = src_deg[j], dst_deg[i]
        m = N * (a - b)
        m = m.numerator if m.denominator == 1 else None
        for n in e.u_slots():
            if m is None or (n - m) % N:
                report.add(f"{label}[{i},{j}]: U^{Fraction(n, N)} "
                           f"incompatible with levels {a} -> {b}")
            elif n > 2 * m or (strict and n == 2 * m):
                report.add(f"{label}[{i},{j}]: monomial U^{Fraction(n, N)} "
                           f"lands at level {(n - m) // N + b}, not below {a}")


def validate(C):
    """Check the structural relations, gradings and (when present) the
    level-0 instanton filtration.  Failures are report items, never
    exceptions."""
    report = ValidationReport()
    grs = [g.gr_mod4 for g in C.gens]

    if not (C.d * C.d).is_zero():
        report.add("d*d != 0")
    if not (C.delta1 * C.d).is_zero():
        report.add("delta1*d != 0")
    if not (C.d * C.delta2).is_zero():
        report.add("d*delta2 != 0")
    if not sum_of_products([(C.d, C.v), (-C.v, C.d),
                            (-C.delta2, C.delta1)]).is_zero():
        report.add("d*v - v*d - delta2*delta1 != 0")

    _entry_gradings_ok(report, "d", C.d, grs, grs, 1)
    _entry_gradings_ok(report, "v", C.v, grs, grs, 2)
    for _i, j, _e in C.delta1.nonzero_entries():
        if grs[j] % 4 != 1:
            report.add(f"delta1[{j}] nonzero on grading {grs[j]} generator")
    for i, _j, _e in C.delta2.nonzero_entries():
        if grs[i] % 4 != 2:
            report.add(f"delta2[{i}] lands in grading {grs[i]}, not 2")

    if C.is_I_graded():
        degs = [g.deg_I for g in C.gens]
        zero_level = [Fraction(0)]
        _entry_levels_ok(report, "d", C.d, degs, degs, strict=True)
        _entry_levels_ok(report, "v", C.v, degs, degs, strict=False)
        _entry_levels_ok(report, "delta1", C.delta1, degs, zero_level,
                         strict=True)
        _entry_levels_ok(report, "delta2", C.delta2, zero_level, degs,
                         strict=True)
    return report


# ---------------------------------------------------------------------------
# morphisms


class SMorphism(namedtuple("SMorphism", "source target lam mu Delta1 Delta2")):
    """An S-morphism source -> target: lam and mu are n_target x n_source,
    Delta1 is 1 x n_source and Delta2 is n_target x 1."""

    __slots__ = ()

    @classmethod
    def identity(cls, C):
        n = C.n
        return cls(C, C, Matrix.identity(C.ring, n),
                   Matrix.zeros(C.ring, n, n), Matrix.zeros(C.ring, 1, n),
                   Matrix.zeros(C.ring, n, 1))


def check_morphism(m):
    """The four chain-map relations of an S-morphism, as a report."""
    report = ValidationReport()
    A, B = m.source, m.target
    if A.ring != B.ring:
        report.add("source and target over different rings")
        return report
    if not (m.lam * A.d - B.d * m.lam).is_zero():
        report.add("lambda*d - d'*lambda != 0")
    if not (m.Delta1 * A.d + A.delta1 - B.delta1 * m.lam).is_zero():
        report.add("Delta1*d + delta1 - delta1'*lambda != 0")
    if not (B.d * m.Delta2 - B.delta2 + m.lam * A.delta2).is_zero():
        report.add("d'*Delta2 - delta2' + lambda*delta2 != 0")
    r4 = (m.mu * A.d + m.lam * A.v + m.Delta2 * A.delta1 - B.v * m.lam
          + B.d * m.mu - B.delta2 * m.Delta1)
    if not r4.is_zero():
        report.add("mu*d + lambda*v + Delta2*delta1 - v'*lambda + d'*mu "
                   "- delta2'*Delta1 != 0")
    return report


# ---------------------------------------------------------------------------
# tensor product


def _eps(g):
    return -1 if g % 4 in (1, 3) else 1


def _eps_matrix(C):
    """diag(eps(gr)) over the generators of C; in characteristic two
    -1 = 1 and it is the identity."""
    one = rings.one(C.ring)
    return Matrix.from_entries(C.ring, C.n, C.n, (
        (i, i, one if _eps(g.gr_mod4) > 0 else -one)
        for i, g in enumerate(C.gens)))


def tensor(C, Cp):
    """Tensor product S-complex on (CxC') + (CxC')[1] + C + C'.

    The maps are Kronecker blocks over these four summands.  The Koszul
    signs enter through E = diag(eps(gr)) on C, which is the identity in
    characteristic two:

        D = [ d(x)1 + E(x)d'        0              0            0         ]
            [ E(x)v' - vE(x)1  d(x)1 - E(x)d'  E(x)delta2'  -delta2(x)1   ]
            [ E(x)delta1'           0              d            0         ]
            [ delta1(x)1            0              0            d'        ]

        V = [ v(x)1   0           0   delta2(x)1 ]
            [ 0       v(x)1       0   0          ]
            [ 0       0           v   0          ]
            [ 0       delta1(x)1  0   v'         ]

    delta1 is [0 0 delta1 delta1'] and delta2 is [0 0 delta2 delta2']^T.
    """
    if C.ring != Cp.ring:
        raise RingMismatchError(f"{C.ring} vs {Cp.ring}")
    ring = C.ring
    igraded = C.is_I_graded() and Cp.is_I_graded()

    def pair_gen(a, b, shifted):
        name = f"({a.name}&{b.name})" + ("~" if shifted else "")
        gr = (a.gr_mod4 + b.gr_mod4 + (1 if shifted else 0)) % 4
        deg = (a.deg_I + b.deg_I) if igraded else None
        return Generator(name, gr, deg)

    pairs = [(a, b) for a in C.gens for b in Cp.gens]
    gens = ([pair_gen(a, b, False) for a, b in pairs]
            + [pair_gen(a, b, True) for a, b in pairs]
            + [Generator(f"({g.name}&-)", g.gr_mod4,
                         g.deg_I if igraded else None) for g in C.gens]
            + [Generator(f"(-&{g.name})", g.gr_mod4,
                         g.deg_I if igraded else None) for g in Cp.gens])

    E = _eps_matrix(C)
    one = Matrix.identity(ring, Cp.n)
    d_one, v_one, e_d = kron(C.d, one), kron(C.v, one), kron(E, Cp.d)
    delta1_one, delta2_one = kron(C.delta1, one), kron(C.delta2, one)
    # offsets of the summands (CxC')[1], C and C'
    off2 = C.n * Cp.n
    off3 = 2 * off2
    off4 = off3 + C.n
    total = off4 + Cp.n
    D = assemble(ring, total, total, [
        (0, 0, d_one + e_d),
        (off2, 0, kron(E, Cp.v) + kron(-(C.v * E), one)),
        (off3, 0, kron(E, Cp.delta1)),
        (off4, 0, delta1_one),
        (off2, off2, d_one - e_d),
        (off2, off3, kron(E, Cp.delta2)),
        (off2, off4, -delta2_one),
        (off3, off3, C.d),
        (off4, off4, Cp.d)])
    V = assemble(ring, total, total, [
        (0, 0, v_one), (off2, off2, v_one), (off4, off2, delta1_one),
        (0, off4, delta2_one), (off3, off3, C.v), (off4, off4, Cp.v)])
    D1 = assemble(ring, 1, total, [(0, off3, C.delta1),
                                   (0, off4, Cp.delta1)])
    D2 = assemble(ring, total, 1, [(off3, 0, C.delta2),
                                   (off4, 0, Cp.delta2)])
    return SComplex(ring, gens, D, V, D1, D2,
                    v_trusted=C.v_trusted and Cp.v_trusted)


# ---------------------------------------------------------------------------
# duals


def dual(C):
    """Dual S-complex: d* = (S d)^T with S = diag(eps(gr)), v* = v^T,
    delta1* = delta2^T and delta2* = -delta1^T.

    The dual of a grading-i generator sits in grading 3-i (mod 4), the
    orientation-reversal convention; this is the unique choice compatible
    with the structure-map gradings.  Plain -i would violate the
    delta-map grading constraints whenever delta1 or delta2 is nonzero.
    """
    gens = [Generator(g.name + "*", (3 - g.gr_mod4) % 4) for g in C.gens]
    return SComplex(C.ring, gens, (_eps_matrix(C) * C.d).transpose(),
                    C.v.transpose(), C.delta2.transpose(),
                    -C.delta1.transpose(), v_trusted=C.v_trusted)


# ---------------------------------------------------------------------------
# Euler characteristic, base change


def euler_characteristic(C):
    """Sum of (-1)^gr over the irreducible generators; for two-bridge
    complexes this equals half the knot signature."""
    return sum(_eps(g.gr_mod4) for g in C.gens)


def base_change_complex(C, assignment, target, check=True):
    """Apply a coefficient base change entry-wise.

    deg_I survives only into rings that still carry U; hol only where a
    T variable remains.  ``v_trusted`` is inherited.
    """
    hom = rings.homomorphism(C.ring, assignment, target)
    keep_deg = bool(target.udenom)
    keep_hol = bool(target.tvars)
    gens = [Generator(g.name, g.gr_mod4, g.deg_I if keep_deg else None,
                      g.hol if keep_hol else None) for g in C.gens]
    out = SComplex(target, gens, C.d.map_entries(hom, target),
                   C.v.map_entries(hom, target),
                   C.delta1.map_entries(hom, target),
                   C.delta2.map_entries(hom, target),
                   C.v_trusted)
    if check:
        report = validate(out)
        if not report.ok:
            raise SComplexError(
                f"base change produced an invalid complex: {report.failures}")
    return out


def standard_assignment(src, target, **overrides):
    """Assignment sending every variable to its namesake (or 1 when the
    target lacks it), with keyword overrides like U=..., T=...."""
    out = {}
    for name in src.variables():
        if name in overrides:
            val = overrides[name]
            out[name] = rings.parse(target, val) if isinstance(val, str) \
                else val
        elif name == "U" and target.udenom:
            out[name] = rings.var(target, "U")
        elif name in target.tvars:
            out[name] = rings.var(target, name)
        elif name == "x" and target.has_x:
            out[name] = rings.var(target, "x")
        else:
            out[name] = rings.one(target)
    return out


# ---------------------------------------------------------------------------
# the unreduced (mapping cone) model


def sharp_complex(C, twisted=False, dtilde=None):
    """Mapping-cone model of the unreduced theory, as the generators
    [(name, gr_mod4)] and the square differential of the cone, like
    :meth:`SComplex.dtilde`, which a caller that has built it passes as
    ``dtilde``.

    Untwisted: the cone of twice the chi map on the total complex.
    Twisted: the two-by-two block differential with off-diagonal entries
    (2T^2 + 2T^-2 - 4)*chi and 2*chi; requires a T variable.  In
    characteristic 2 both vanish, so the cone is dtilde twice over.
    """
    names, dt = dtilde or C.dtilde()
    chi = C.chi_matrix()
    ring = C.ring
    size = dt.rows
    pieces = [(0, 0, dt), (size, 0, chi * rings.from_int(ring, 2)),
              (size, size, dt)]
    if twisted:
        if not ring.tvars:
            raise SComplexError("twisted model needs a T variable")
        t = rings.var(ring, ring.tvars[0])
        w = (2 * t ** 2 + 2 * t ** -2 - rings.from_int(ring, 4))
        pieces.append((0, size, chi * w))
    # D * D is dt * dt on the diagonal blocks and zero off them, since
    # chi * chi = 0, chi * dt + dt * chi = 0 and the twist is a scalar
    if not (dt * dt).is_zero():
        # name the relations of C that break it
        msg = "cone differential does not square to zero"
        why = validate(C).failures
        if not C.v_trusted:
            why.append("this complex only assumes v")
        raise SComplexError(f"{msg}: {'; '.join(why)}" if why else msg)
    D = assemble(ring, 2 * size, 2 * size, pieces)
    gens = names + [(name + "#", (gr + 2) % 4) for name, gr in names]
    return gens, D


# ---------------------------------------------------------------------------
# JSON wire format


def _frac_str(f):
    return None if f is None else str(f)


def _frac_parse(s, path):
    if s is None:
        return None
    # an int, or a string in the form _frac_str writes: Fraction alone
    # reads true, 0.1 and "1e30000000" (which would not finish)
    if not (type(s) is int or isinstance(s, str)
            and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s)):
        raise SchemaError(f"{path}: bad rational {_echo(s)}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{path}: bad rational {_echo(s)}")


def _echo(value):
    """repr(value) for an error message: its first 40 characters and its
    length when it is longer."""
    r = repr(value)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def matrix_strings(M, written):
    """The rows of M as lists of polynomial strings, "0" where no entry
    is stored: the wire format of a matrix.  ``written`` maps each
    polynomial already printed in this document to its string, so a
    polynomial is printed once and equal cells share one string."""
    out = [["0"] * M.cols for _ in range(M.rows)]
    for i, j, e in M.nonzero_entries():
        s = written.get(e)
        if s is None:
            s = written[e] = e.to_str()
        out[i][j] = s
    return out


def to_dict(C):
    written = {}
    return {
        "ring": rings.ring_to_dict(C.ring),
        "generators": [{"name": g.name, "gr_mod4": g.gr_mod4,
                        "deg_I": _frac_str(g.deg_I), "hol": _frac_str(g.hol)}
                       for g in C.gens],
        "d": matrix_strings(C.d, written),
        "v": matrix_strings(C.v, written),
        "delta1": matrix_strings(C.delta1, written)[0] if C.n else [],
        "delta2": [row[0] for row in matrix_strings(C.delta2, written)],
        "v_trusted": C.v_trusted,
    }


def _parse_entry(ring, s, path, parsed):
    """The polynomial of the wire cell ``s`` at ``path``.  ``parsed`` maps
    each cell string already read in this document to its polynomial, so
    a string is parsed once and equal cells share one immutable value."""
    if not isinstance(s, str):
        raise SchemaError(f"{path}: expected a polynomial string")
    if s not in parsed:
        try:
            parsed[s] = rings.parse(ring, s)
        except (rings.ParseError, RingError) as e:
            raise SchemaError(f"{path}: {e}")
    return parsed[s]


def from_dict(doc):
    """Parse the JSON document form.  Schema errors carry the offending
    path; semantic validation is a separate stage (the validate verb)."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be an object")
    try:
        ring = rings.ring_from_dict(doc["ring"])
    except KeyError:
        raise SchemaError("ring: missing")
    except RingError as e:
        raise SchemaError(f"ring: {e}")
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise SchemaError("generators: expected a list")
    gens = []
    seen = set()
    for k, g in enumerate(raw_gens):
        path = f"generators[{k}]"
        if not isinstance(g, dict) or "name" not in g or "gr_mod4" not in g:
            raise SchemaError(f"{path}: need name and gr_mod4")
        if not isinstance(g["name"], str):
            raise SchemaError(f"{path}.name: expected a string")
        if g["name"] in seen:
            raise SchemaError(f"{path}: duplicate name {g['name']!r}")
        seen.add(g["name"])
        if type(g["gr_mod4"]) is not int:
            raise SchemaError(f"{path}.gr_mod4: expected an integer")
        gens.append(Generator(g["name"], g["gr_mod4"],
                              _frac_parse(g.get("deg_I"), path + ".deg_I"),
                              _frac_parse(g.get("hol"), path + ".hol")))
    n = len(gens)
    parsed = {}

    def wire_row(raw, path):
        """(position, entry) for the nonzero cells of one wire row of n
        cells; "0", most cells of the sparse maps, is skipped unparsed."""
        if not isinstance(raw, list) or len(raw) != n:
            raise SchemaError(f"{path}: expected {n} entries")
        return [(j, _parse_entry(ring, s, f"{path}[{j}]", parsed))
                for j, s in enumerate(raw) if s != "0"]

    def square(key):
        raw = doc.get(key)
        if not isinstance(raw, list) or len(raw) != n:
            raise SchemaError(f"{key}: expected {n} rows")
        return Matrix.from_entries(ring, n, n, (
            (i, j, e) for i, row in enumerate(raw)
            for j, e in wire_row(row, f"{key}[{i}]")))

    d = square("d")
    v = square("v")
    delta1 = Matrix.from_entries(ring, 1, n, (
        (0, j, e) for j, e in wire_row(doc.get("delta1"), "delta1")))
    delta2 = Matrix.from_entries(ring, n, 1, (
        (i, 0, e) for i, e in wire_row(doc.get("delta2"), "delta2")))
    v_trusted = doc.get("v_trusted", True)
    if not isinstance(v_trusted, bool):
        raise SchemaError("v_trusted: expected a boolean")
    try:
        return SComplex(ring, gens, d, v, delta1, delta2, v_trusted)
    except (SComplexError, RingMismatchError) as e:
        raise SchemaError(str(e))
