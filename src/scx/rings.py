"""Exact arithmetic for every coefficient ring used in this package.

Supported rings: the integers Z, the rationals Q, the fields F2 and
F4 = F2[x]/(x^2+x+1), Laurent rings in one variable T over Z or a field,
the universal ring Z[U^(1/N) and its inverse, T, T^-1] with fractional
U-exponents, the char-2 Laurent rings in T1,T2,T3 (and T0..T3), and the
polynomial extension of any of these by a nonnegative-degree variable x.

A value is a :class:`LaurentPoly`, immutable by convention like a
``Matrix``: a ring descriptor together with a finite dictionary of terms
keyed by the int triple ``(x_exp, n, t_exps)``.  The U-slot ``n`` is the
U-exponent in units of 1/N, where N is the ring's bound ``udenom``, so
U^u is stored as n = N*u (and n is 0 in rings without U); products and
quotients add and subtract plain ints.  No coefficient is zero.  U is
read in value units where a polynomial is built from outside data
(``LaurentPoly(...)``, ``monomial``, ``var``, ``parse``), which check
once that N*u is an integer, and is given back in value units by
``terms_dict``, ``sorted_terms`` and printing; arithmetic results are
not checked again.  Every product of terms runs in one kernel,
:func:`kernel`.  All arithmetic is exact; nothing in this module
touches floating point.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from operator import add


class RingError(Exception):
    """Base class for ring-level failures."""


class RingMismatchError(RingError):
    """Operands belong to different rings."""


class ParseError(RingError):
    """A polynomial string does not conform to the textual format."""


# ---------------------------------------------------------------------------
# coefficient domains
#
# Base coefficients are plain Python values: int for Z, 0/1 for F2, 0..3
# for F4 (bit 0 is the 1-part, bit 1 the x-part, with x^2 = x + 1), and
# for Q a Python rational: an int when integral, else a Fraction.  Two
# ints stay an int under +, - and *, so the ring core runs Q on ints; the
# checked constructors and the quotients turn an integral Fraction back
# into an int.  One that a sum or product of Fractions leaves behind
# equals and hashes like the int, so only speed depends on the form.


def _rational(c):
    """The rational c (an int or a Fraction) as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _cmul(base, a, b):
    if base == "Z":
        return a * b
    if base == "Q":
        return _rational(a * b)
    if base == "F2":
        return a & b
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c = a1 & b1
    lo = (a0 & b0) ^ c
    hi = (a0 & b1) ^ (a1 & b0) ^ c
    return lo | (hi << 1)


_F4_INV = {1: 1, 2: 3, 3: 2}


def _cinv(base, a):
    """Multiplicative inverse, or None when a is not a unit."""
    if base == "Z":
        return a if a in (1, -1) else None
    if base == "Q":
        return None if a == 0 else _rational(Fraction(1, a))
    if base == "F2":
        return 1 if a == 1 else None
    return _F4_INV.get(a)


def _cdiv(base, a, b):
    """Exact quotient a/b in the base domain, or None."""
    if b == 0:
        raise ZeroDivisionError("division by zero coefficient")
    if base == "Z":
        q, r = divmod(a, b)
        return q if r == 0 else None
    inv = _cinv(base, b)
    return None if inv is None else _cmul(base, a, inv)


def _cfrom_int(base, n):
    return n if base == "Z" or base == "Q" else n & 1


def _cstr(base, a, in_product):
    if base == "F4":
        s = {0: "0", 1: "1", 2: "x", 3: "x+1"}[a]
        return f"({s})" if in_product and a == 3 else s
    return str(a)


# ---------------------------------------------------------------------------
# ring descriptors


class Ring(namedtuple("Ring", "tag base tvars udenom has_x",
                      defaults=((), 0, False))):
    """Descriptor of a supported coefficient ring.

    ``base`` names the coefficient domain, ``tvars`` the Laurent variables,
    ``udenom`` the denominator bound N of U-exponents (0 when there is no
    U), and ``has_x`` whether a polynomial variable x is adjoined.
    """

    __slots__ = ()

    def variables(self):
        names = []
        if self.udenom:
            names.append("U")
        names.extend(self.tvars)
        if self.has_x:
            names.append("x")
        return names

    @property
    def is_field(self):
        return self.tag in ("Q", "F2", "F4")

    @property
    def char_two(self):
        return self.base in ("F2", "F4")

    def __repr__(self):
        return f"Ring({self.tag})"


Z = Ring("Z", "Z")
Q = Ring("Q", "Q")
F2 = Ring("F2", "F2")
F4 = Ring("F4", "F4")
ZT = Ring("ZT", "Z", ("T",))
QT = Ring("QT", "Q", ("T",))
F2T = Ring("F2T", "F2", ("T",))
F4T = Ring("F4T", "F4", ("T",))
S_BN = Ring("S_BN", "F2", ("T1", "T2", "T3"))
R_SHARP = Ring("R_SHARP", "F2", ("T0", "T1", "T2", "T3"))


# the one table of ring names; a verb may add names of its own
RING_NAMES = {"z": Z, "q": Q, "f2": F2, "f4": F4,
              "zt": ZT, "qt": QT, "f2t": F2T, "f4t": F4T}


def named(name, **extra):
    """The ring ``name`` picks, case-insensitively, from RING_NAMES and
    the caller's ``extra`` names; KeyError when it picks none."""
    name = name.lower()
    return extra[name] if name in extra else RING_NAMES[name]


def universal(n):
    """Z[U^(1/n)-Laurent, T-Laurent]; Chern-Simons exponents live in (1/n)Z."""
    if n < 1:
        raise RingError("U-denominator bound must be positive")
    return Ring("UNIV", "Z", ("T",), udenom=n)


def poly_x(inner):
    """Adjoin a nonnegative-degree variable x to ``inner``.

    Refused over F4-based rings: there the symbol x already names the
    field generator and serialized polynomials would be ambiguous.
    """
    if inner.has_x:
        raise RingError("ring already has an x variable")
    if inner.base == "F4":
        raise RingError("x variable collides with the F4 generator")
    return Ring(f"POLY_X({inner.tag})", inner.base, inner.tvars,
                inner.udenom, True)


# ---------------------------------------------------------------------------
# Laurent polynomials


def _int_exponent(e, name):
    """``e`` as an int; it may be an integral Fraction, nothing else."""
    if e.__class__ is int:
        return e
    e = Fraction(e)
    if e.denominator != 1:
        raise RingError(f"{name}-exponent {e} is not an integer")
    return e.numerator


def _u_slot(ring, u):
    """The stored U-slot N*u of the U-exponent ``u`` (value units), checked
    to be an integer."""
    u = Fraction(u)
    if u and not ring.udenom:
        raise RingError(f"{ring} has no U variable")
    n = u * ring.udenom
    if n.denominator != 1:
        raise RingError(f"U-exponent {u} not a multiple of 1/{ring.udenom}")
    return n.numerator


def _u_value(ring, n):
    """The U-exponent n/N of the stored U-slot ``n``: an int when it is
    integral, a Fraction when it is not."""
    N = ring.udenom
    if N < 2:
        return n
    q, r = divmod(n, N)
    return Fraction(n, N) if r else q


class LaurentPoly:
    """Exact polynomial over one of the supported rings, immutable by
    convention, like ``Matrix``.

    >>> t = var(ZT, "T")
    >>> p = t**2 - t**-2
    >>> str(p * p)
    'T^4 - 2 + T^-4'
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        """``terms`` maps ``(x, u, ts)`` to coefficients, with the
        U-exponent u in value units (an int or a Fraction)."""
        cleaned = {}
        nt = len(ring.tvars)
        N = ring.udenom
        for key, c in terms.items():
            x, u, ts = key
            if ring.base == "F2":
                c &= 1
            elif ring.base == "F4":
                c &= 3
            elif ring.base == "Q":
                if not isinstance(c, (int, Fraction)):
                    raise RingError(f"Q coefficient {c!r} is not rational")
                c = _rational(c)
            if c == 0:
                continue
            # the int fast path; _u_slot converts and checks the rest
            n = u * N if u.__class__ is int and (N or not u) \
                else _u_slot(ring, u)
            x = _int_exponent(x, "x")
            ts = tuple(_int_exponent(t, "T") for t in ts)
            if x and not ring.has_x:
                raise RingError(f"{ring} has no x variable")
            if x < 0:
                raise RingError("x-exponents must be nonnegative")
            if len(ts) != nt:
                raise RingError(f"expected {nt} T-exponents, got {len(ts)}")
            # N*u is one-to-one, so distinct keys stay distinct
            cleaned[(x, n, ts)] = c
        self.ring = ring
        self._terms = cleaned

    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap ``terms`` without checking them: for results built from
        checked operands, whose keys are canonical and coefficients
        nonzero.  The dictionary is taken over, not copied."""
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: lexicographic on (x, u, ts), descending,
        with u in value units."""
        ring = self.ring
        return [((x, _u_value(ring, n), ts), c) for (x, n, ts), c
                in sorted(self._terms.items(), reverse=True)]

    def u_slots(self):
        """The distinct stored U-slots N*u of the terms, each in the place
        of its first term in canonical order."""
        return dict.fromkeys(n for _x, n in sorted(
            {(x, n) for x, n, _ts in self._terms}, reverse=True))

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    def is_one(self):
        """Whether this is 1: one term, with every exponent 0 and
        coefficient 1."""
        if len(self._terms) != 1:
            return False
        ((x, n, ts), c), = self._terms.items()
        return c == 1 and not x and not n and not any(ts)

    def is_monomial(self):
        return len(self._terms) == 1

    def is_unit(self):
        """Units are single terms with x-degree 0 and a unit coefficient."""
        if len(self._terms) != 1:
            return False
        (x, _u, _ts), c = next(iter(self._terms.items()))
        return x == 0 and _cinv(self.ring.base, c) is not None

    def unit_inverse(self):
        if not self.is_unit():
            raise RingError(f"{self} is not a unit")
        (x, n, ts), c = next(iter(self._terms.items()))
        inv = _cinv(self.ring.base, c)
        return LaurentPoly._trusted(self.ring,
                                    {(x, -n, tuple(-e for e in ts)): inv})

    def const_value(self):
        """Coefficient of the constant term (all exponents zero)."""
        nt = len(self.ring.tvars)
        return self._terms.get((0, 0, (0,) * nt),
                               _cfrom_int(self.ring.base, 0))

    def slot_terms(self):
        """The terms as ``((x, n, ts), c)`` pairs, n the stored U-slot."""
        return self._terms.items()

    def terms_dict(self):
        """The terms keyed by ``(x, u, ts)``, with u in value units."""
        ring = self.ring
        if ring.udenom < 2:
            return dict(self._terms)
        return {(x, _u_value(ring, n), ts): c
                for (x, n, ts), c in self._terms.items()}

    def t_span(self):
        """max - min of the T-exponent (one-variable Laurent rings only)."""
        if len(self.ring.tvars) != 1:
            raise RingError("t_span needs exactly one T variable")
        if not self._terms:
            return None
        exps = [k[2][0] for k in self._terms]
        return max(exps) - min(exps)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other)!r}")
        # equal rings need not be one object, so identity is only the
        # fast path before the field-by-field comparison
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        base = self.ring.base
        z_or_q = base == "Z" or base == "Q"
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            s = get(k, 0) + c if z_or_q else get(k, 0) ^ c
            if s:
                out[k] = s
            else:
                # c is nonzero, so a zero sum means k was present
                del out[k]
        return LaurentPoly._trusted(self.ring, out)

    def __neg__(self):
        if self.ring.char_two:
            return self
        return LaurentPoly._trusted(self.ring,
                                    {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # a factor 1 returns the other operand, which is immutable, as
        # __add__ returns the other operand of a zero
        if other.is_one():
            return self
        if self.is_one():
            return other
        acc = {}
        kernel(self.ring)(acc, self, other)
        return LaurentPoly._trusted(self.ring, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return from_int(self.ring, other) * self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            return self.unit_inverse() ** (-n)
        result, square = one(self.ring), self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def scale(self, coeff):
        """Multiply by a raw nonzero base-domain coefficient."""
        base = self.ring.base
        return LaurentPoly._trusted(self.ring,
                                    {k: _cmul(base, c, coeff)
                                     for k, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- printing -----------------------------------------------------------

    def to_str(self):
        if not self._terms:
            return "0"
        base = self.ring.base
        parts = []
        for i, (key, c) in enumerate(self.sorted_terms()):
            factors = self._var_factors(key)
            if base in ("Z", "Q"):
                negative = c < 0
                mag = -c if negative else c
            else:
                negative = False
                mag = c
            # a unit coefficient is 1 in every base, F4's included
            coeff_str = None if factors and mag == 1 else _cstr(
                base, mag, in_product=bool(factors))
            body = "*".join(([coeff_str] if coeff_str else []) + factors)
            if i == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def _var_factors(self, key):
        x, u, ts = key
        ring = self.ring
        factors = []
        if u:
            if u.denominator == 1:
                factors.append("U" if u == 1 else f"U^{u.numerator}")
            else:
                factors.append(f"U^{{{u}}}")
        for name, e in zip(ring.tvars, ts):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        if x:
            factors.append("x" if x == 1 else f"x^{x}")
        return factors

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"<{self.ring.tag}: {self.to_str()}>"


def u_split(N, entries, slots):
    """The U-homogeneous parts of the entries (i, j, p) of a matrix over
    the universal ring with U-denominator ``N``, entry j times U^s for
    (_, s) = slots[j]: {(i, stored U-slot n): {j: the term dict over
    Z[T-Laurent] of its terms of slot n}}."""
    rows = {}
    for i, j, p in entries:
        shift = slots[j][1] * N
        for (_x, n, ts), c in p._terms.items():
            rows.setdefault((i, n + shift), {}).setdefault(j, {})[
                (0, 0, ts)] = c
    return rows


def key_at_point(key, p):
    """The image mod the prime ``p`` of the monomial of the stored term
    key ``key`` under x -> 7, U^(1/N) -> 5 and each T -> 3."""
    x, n, ts = key
    return pow(7, x, p) * pow(5, n, p) * pow(3, sum(ts), p) % p


# ---------------------------------------------------------------------------
# the multiply-accumulate kernel


def _kernel_for(base, nt):
    z_or_q, f2, one_t = base == "Z" or base == "Q", base == "F2", nt == 1
    unit = {(0, 0, (0,) * nt): 1}

    def mac(acc, a, b):
        left, right = a._terms, b._terms
        if not acc and (left == unit or right == unit):
            # a product by 1 into an empty sum copies the other factor
            acc.update(right if left == unit else left)
            return
        get = acc.get
        right = list(right.items())
        for (x1, n1, t1), c1 in left.items():
            for (x2, n2, t2), c2 in right:
                k = (x1 + x2, n1 + n2,
                     (t1[0] + t2[0],) if one_t else tuple(map(add, t1, t2)))
                if z_or_q:
                    s = get(k, 0) + c1 * c2
                elif f2:
                    s = get(k, 0) ^ c1 & c2
                else:
                    s = get(k, 0) ^ _cmul(base, c1, c2)
                if s:
                    acc[k] = s
                else:
                    # c1 * c2 is nonzero, so a zero sum means k was present
                    del acc[k]

    return mac


# one kernel per base and number of T variables (R_SHARP has the most)
_KERNELS = {(base, nt): _kernel_for(base, nt)
            for base in ("Z", "Q", "F2", "F4") for nt in range(5)}


def kernel(ring):
    """The multiply-accumulate kernel ``mac(acc, a, b)`` of ``ring``: acc
    += a*b on a term dict, in place, cancelled terms dropped, for
    ``LaurentPoly._trusted`` to wrap.  Its coefficient rule (+ * over Z
    and Q, ^ & over F2, F4's product) and key rule (one T-exponent or the
    general tuple) are bound when it is built, and callers read no key."""
    return _KERNELS[ring.base, len(ring.tvars)]


# ---------------------------------------------------------------------------
# constructors


def zero(ring):
    return LaurentPoly._trusted(ring, {})


def one(ring):
    return from_int(ring, 1)


def from_int(ring, n):
    c = _cfrom_int(ring.base, n)
    if c == 0:
        return zero(ring)
    return LaurentPoly._trusted(ring, {(0, 0, (0,) * len(ring.tvars)): c})


def monomial(ring, coeff=1, u=0, t=None, x=0):
    """Build coeff * U^u * T^t * x^x; ``coeff`` is an int, or over Q a
    Fraction, which is stored as an int when it is integral."""
    if t is None:
        t = (0,) * len(ring.tvars)
    elif isinstance(t, int):
        t = (t,) + (0,) * (len(ring.tvars) - 1)
    if isinstance(coeff, int):
        coeff = _cfrom_int(ring.base, coeff)
    if coeff == 0:
        return zero(ring)
    return LaurentPoly(ring, {(x, u, tuple(t)): coeff})


def var(ring, name, exp=1):
    """The variable ``name`` of ``ring`` raised to an integer power.

    For U a Fraction exponent is accepted.  In F4-based rings the name
    ``x`` denotes the field generator.
    """
    nt = len(ring.tvars)
    if name == "U":
        if not ring.udenom:
            raise RingError(f"{ring} has no U variable")
        key = (0, _u_slot(ring, exp), (0,) * nt)
    elif name in ring.tvars:
        ts = [0] * nt
        ts[ring.tvars.index(name)] = _int_exponent(exp, "T")
        key = (0, 0, tuple(ts))
    elif name == "x" and ring.has_x:
        if exp < 0:
            raise RingError("x-exponents must be nonnegative")
        key = (_int_exponent(exp, "x"), 0, (0,) * nt)
    elif name == "x" and ring.base == "F4":
        # bit value 2 is the generator x of F4
        gen = LaurentPoly._trusted(ring, {(0, 0, (0,) * nt): 2})
        return gen ** _int_exponent(exp, "x")
    else:
        raise RingError(f"{ring} has no variable {name!r}")
    return LaurentPoly._trusted(ring, {key: _cfrom_int(ring.base, 1)})


# ---------------------------------------------------------------------------
# base change


def base_change(p, assignment, target):
    """The image of ``p`` under :func:`homomorphism` of its ring."""
    return homomorphism(p.ring, assignment, target)(p)


def homomorphism(src, assignment, target):
    """The ring map ``src`` -> ``target`` sending each variable to its
    image in ``assignment``, a LaurentPoly of ``target``, as a function.

    Coefficients go along the unique map of base domains (Z to anything,
    Q to Q, F2 into F2 or F4, F4 to F4), refused at the first nonzero
    term when there is none; a fractional U-exponent needs the image of U
    to be 1 or an exact N-th power.  The assignment is checked once, and
    each stored monomial's image is computed the first time it is met
    (even under a coefficient that vanishes in the target) and kept.  A
    RingError from raising a variable's image to a power names that
    variable in its ``variable`` attribute.
    """
    for name in src.variables():
        if name not in assignment:
            raise RingError(f"assignment misses variable {name!r}")
    for name, val in assignment.items():
        if isinstance(val, LaurentPoly) and val.ring != target:
            raise RingMismatchError(
                f"image of {name!r} lies in {val.ring}, not {target}")
    sb, tb = src.base, target.base
    # an F2 coefficient is 1, which is 1 in F4 too
    has_map = sb in ("Z", tb) or (sb, tb) == ("F2", "F4")
    images = {}

    def apply(p):
        if p and not has_map:
            raise RingError(f"no coefficient map {sb} -> {tb}")
        result = zero(target)
        for key, c in p._terms.items():
            img = images.get(key)
            if img is None:
                x, n, ts = key
                img = one(target)
                for name, e in (("U", _u_value(src, n)), *zip(src.tvars, ts),
                                ("x", x)):
                    if e:
                        try:
                            img = img * _pow_rational(assignment[name], e)
                        except RingError as err:
                            err.variable = name
                            raise
                images[key] = img
            if c != 1:
                c = _cfrom_int(tb, c) if sb == "Z" else c
                img = img.scale(c) if c else zero(target)
            result = result + img
        return result

    return apply


def _pow_rational(p, fr):
    if fr.denominator == 1:
        return p ** fr.numerator
    if not p.is_monomial():
        raise RingError(
            f"cannot raise non-monomial to fractional power {fr}")
    (x, n, ts), c = next(iter(p._terms.items()))
    if c != _cfrom_int(p.ring.base, 1):
        raise RingError(
            f"fractional power of monomial with coefficient {c!r}")
    nu = _u_value(p.ring, n) * fr
    nts = [Fraction(e) * fr for e in ts]
    for s in nts:
        if s.denominator != 1:
            raise RingError(f"fractional power leaves T-exponent {s}")
    nx = Fraction(x) * fr
    if nx.denominator != 1 or nx < 0:
        raise RingError(f"fractional power leaves x-exponent {nx}")
    return LaurentPoly(p.ring, {(int(nx), nu, tuple(map(int, nts))): c})


# ---------------------------------------------------------------------------
# division, units, gcd


def divide(a, b):
    """Exact quotient q with a == q*b, or None when b does not divide a.

    Raises ZeroDivisionError when b is zero.  The ring must be one of the
    supported integral domains.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")
    if a.is_zero():
        return zero(a.ring)
    if b.is_unit():
        return rational_terms(a * b.unit_inverse())
    return _divide_general(a, b)


def _divide_general(a, b):
    # Greedy leading-term division in the canonical monomial order.  Each
    # step peels off a quotient term strictly below the one before.  An
    # exact quotient lies in the exponent box [min a - min b, max a - max b],
    # coordinate by coordinate over x, U and each T (the rings are integral
    # domains), so a term outside it means b does not divide a, and the
    # strictly falling terms can visit the box's points at most once each.
    ring = a.ring
    base = ring.base
    mac = kernel(ring)
    lo, hi = _exponent_box(a)
    blo, bhi = _exponent_box(b)
    lo = [p - q for p, q in zip(lo, blo)]
    hi = [p - q for p, q in zip(hi, bhi)]
    bkey = max(b._terms)
    bc = b._terms[bkey]
    r = dict(a._terms)
    q_terms = {}
    while r:
        rkey = max(r)
        x = rkey[0] - bkey[0]
        n = rkey[1] - bkey[1]
        ts = tuple(p - qq for p, qq in zip(rkey[2], bkey[2]))
        if x < 0 or not all(
                low <= e <= high for low, e, high in zip(lo, (x, n) + ts, hi)):
            return None
        c = _cdiv(base, r[rkey], bc)
        if c is None:
            return None
        q_terms[(x, n, ts)] = c
        # r -= c * X^x U^(n/N) T^ts * b
        mac(r, LaurentPoly._trusted(ring, {(x, n, ts): c if ring.char_two
                                           else -c}), b)
    return LaurentPoly._trusted(ring, q_terms)


def rational_terms(p):
    """p with each integral Fraction coefficient an int (over Q; other
    rings pass unchanged): the last step of a quotient or a normalization."""
    if p.ring.base != "Q":
        return p
    return LaurentPoly._trusted(p.ring, {k: _rational(c)
                                         for k, c in p._terms.items()})


def _exponent_box(p):
    """Coordinate-wise minima and maxima of the stored exponents
    (x, n, *ts) of the nonzero polynomial p."""
    points = [(x, n) + ts for x, n, ts in p._terms]
    return ([min(col) for col in zip(*points)],
            [max(col) for col in zip(*points)])


def divmod_euclid(a, b):
    """Euclidean division step used by Smith reduction.

    Supported Euclidean rings: Z, the constant fields, and one-variable
    Laurent rings over a field (norm = T-degree span after clearing
    units).  Returns (q, r) with a == q*b + r and either r == 0 or
    enorm(r) < enorm(b).
    """
    ring = a.ring
    if b.is_zero():
        raise ZeroDivisionError("Euclidean division by zero")
    if ring.tag == "Z":
        q, r = divmod(a.const_value(), b.const_value())
        return from_int(ring, q), from_int(ring, r)
    if ring.is_field:
        return divide(a, b), zero(ring)
    if is_euclidean(ring):
        q = zero(ring)
        r = a
        nb = b.t_span()
        bkey, bc = max(b._terms.items(), key=lambda kv: kv[0][2][0])
        while not r.is_zero() and r.t_span() >= nb:
            rkey, rc = max(r._terms.items(), key=lambda kv: kv[0][2][0])
            c = _cdiv(ring.base, rc, bc)
            t = LaurentPoly._trusted(ring,
                                     {(0, 0, (rkey[2][0] - bkey[2][0],)): c})
            q = q + t
            r = r - t * b
        return q, rational_terms(r)
    raise RingError(f"{ring} is not a supported Euclidean ring")


def enorm(p):
    """Euclidean norm: |n| over Z, 1 for field constants, degree span + 1
    for one-variable Laurent rings over a field."""
    ring = p.ring
    if p.is_zero():
        return 0
    if ring.tag == "Z":
        return abs(p.const_value())
    if ring.is_field:
        return 1
    if is_euclidean(ring):
        return p.t_span() + 1
    raise RingError(f"{ring} is not a supported Euclidean ring")


def is_euclidean(ring):
    return ring.tag in ("Z", "Q", "F2", "F4", "QT", "F2T", "F4T")


def normalizing_unit(p):
    """A unit u such that u*p is the canonical associate of p.

    Laurent exponents are shifted so every variable's minimum exponent is
    zero; the coefficient of the canonical leading term is made positive
    (over Z and Q) or 1 (over fields, when invertible).
    """
    ring = p.ring
    if p.is_zero():
        return one(ring)
    keys = list(p._terms)
    nmin = min(k[1] for k in keys)
    tmins = tuple(min(k[2][i] for k in keys)
                  for i in range(len(ring.tvars)))
    # the keys are stored ones, so the shift is built as stored
    shifted = LaurentPoly._trusted(
        ring, {(0, -nmin, tuple(-m for m in tmins)): _cfrom_int(ring.base, 1)})
    # a monomial shift keeps the term order, so p's leading term leads
    lead_c = p._terms[max(keys)]
    cinv = _cinv(ring.base, lead_c)
    if cinv is not None:
        return shifted.scale(cinv)
    if ring.base in ("Z", "Q") and lead_c < 0:
        return -shifted
    return shifted


def normalize_associate(p):
    return rational_terms(normalizing_unit(p) * p)


def gcd(a, b):
    """Greatest common divisor up to units (Z, fields, and F[T-Laurent])."""
    ring = a.ring
    if a.is_zero():
        return normalize_associate(b)
    if b.is_zero():
        return normalize_associate(a)
    if not is_euclidean(ring):
        raise RingError(f"gcd unsupported over {ring}")
    x, y = a, b
    while not y.is_zero():
        _, r = divmod_euclid(x, y)
        x, y = y, r
    return normalize_associate(x)


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[{}()^*/+-])")


def _tokenize(s):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad character at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.toks[self.i:]!r}")
        return p

    def expr(self):
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.next() == "-"
        p = self.term()
        if neg:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            p = p - t if op == "-" else p + t
        return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self):
        tok = self.next()
        if tok == "(":
            p = self.expr()
            if self.next() != ")":
                raise ParseError("expected ')'")
            return p
        if tok.isdigit():
            n = self.digits(tok)
            if self.ring.base == "Q" and self.peek() == "/":
                self.next()
                d = self.digits(self.next())
                if d == 0:
                    raise ParseError(f"zero denominator in {n}/{d}")
                return monomial(self.ring, Fraction(n, d))
            return from_int(self.ring, n)
        if tok[0].isalpha():
            exp = 1
            if self.peek() == "^":
                self.next()
                exp = self.exponent()
            try:
                return var(self.ring, tok, exp)
            except RingError as e:
                raise ParseError(str(e))
        raise ParseError(f"unexpected token {tok!r}")

    def exponent(self):
        if self.peek() != "{":
            return self.signed_int()
        self.next()
        num, den = self.signed_int(), 1
        if self.peek() == "/":
            self.next()
            den = self.signed_int()
            if den == 0:
                raise ParseError(f"zero denominator in exponent {num}/0")
        if self.next() != "}":
            raise ParseError("expected '}'")
        val = Fraction(num, den)
        return val if val.denominator != 1 else val.numerator

    def signed_int(self):
        tok = self.next()
        if tok == "-":
            return -self.digits(self.next())
        return self.digits(tok)

    @staticmethod
    def digits(tok):
        """The integer the digit token spells, within int()'s limit."""
        if not tok.isdigit():
            raise ParseError("expected digits")
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"integer of {len(tok)} digits is too long") \
                from None


def parse(ring, s):
    """Parse the textual polynomial format, e.g. ``U^{1/3}*T^2 - U^{1/3}*T^-2``."""
    if s == "0":
        return zero(ring)
    toks = _tokenize(s)
    if not toks:
        raise ParseError("empty polynomial string")
    try:
        return _Parser(ring, toks).parse()
    except RecursionError:
        raise ParseError("parentheses nested too deeply")


# ---------------------------------------------------------------------------
# ring descriptor (de)serialization


_SIMPLE_TAGS = {r.tag: r for r in (*RING_NAMES.values(), S_BN, R_SHARP)}


def ring_to_dict(ring):
    if ring.has_x:
        # poly_x(R) is R with the tag POLY_X(R.tag) and has_x set
        inner = ring._replace(tag=ring.tag[len("POLY_X("):-1], has_x=False)
        return {"tag": "POLY_X", "inner": ring_to_dict(inner)}
    if ring.tag == "UNIV":
        return {"tag": "UNIV", "denom": ring.udenom}
    return {"tag": ring.tag}


def ring_from_dict(d):
    """The ring a JSON descriptor names; RingError on a malformed one."""
    if not isinstance(d, dict):
        raise RingError(f"expected an object, not {type(d).__name__}")
    tag = d.get("tag")
    if tag == "POLY_X":
        return poly_x(ring_from_dict(d.get("inner")))
    if tag == "UNIV":
        denom = d.get("denom")
        if type(denom) is not int:
            raise RingError("UNIV denom must be an integer, not "
                            f"{type(denom).__name__}")
        return universal(denom)
    if isinstance(tag, str) and tag in _SIMPLE_TAGS:
        return _SIMPLE_TAGS[tag]
    raise RingError(f"unknown ring tag {tag!r}")
