"""Answer checks, run by `run.py` after the timed loop.

Independent oracles where they exist:
  * torus: the Alexander polynomial times (t^p - 1)(t^q - 1) must be
    (t^pq - 1)(t - 1), multiplied out in sympy's sparse polynomial ring;
    its norm is summed here, the signature comes from the lattice-point
    count of Gordon-Litherland-Murasugi, and the vanishing flag from both;
  * h of trefoil^a (x) dual(trefoil^b) is a - b (h is additive and
    negated by duals);
  * Gamma of the trefoil is 0 for k <= 0, 1/3 at k = 1 and infinite
    above; for every complex Gamma is finite exactly for k <= h and is
    non-decreasing in k;
  * the ideals J_i are nested, J_{i+1} inside J_i;
  * validate and model-check report ok on tensors and duals of valid
    complexes, and tensor / dual outputs have the expected size (2n+1 is
    multiplicative under tensor product);
  * twice the Euler characteristic of a two-bridge complex equals the
    knot signature, computed here by the sign-sum formula
    sum_{i<p} (-1)^floor(iq/p).

Every other answer is compared with the exit code and the SHA-256 of the
stdout recorded at the benchmark's commit in ``digests.json``.  Gamma
values of trefoil powers beyond the rules above are under audit, so they
are digest-checked only: the digest pins today's values, it does not
vouch for them.

A check returns None when the answer is right, else a reason.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

TRACEBACK = "Traceback (most recent call last)"
# The one known defect the benchmark keeps visible: torus jobs whose
# Alexander division exceeds the rings.divide iteration cap.  Such a crash
# counts as a failed job; any other crash is a wrong answer.
KNOWN_DEFECT = "AssertionError: torus Alexander division must be exact"


def known_defect(res):
    """Whether a job failed with the known rings.divide cap crash."""
    return (res["check"] == "torus" and TRACEBACK in res["stderr"]
            and res["stderr"].strip().endswith(KNOWN_DEFECT))


def digest_of(exit_code, stdout):
    """Exit code and the first 16 hex digits of the stdout's SHA-256."""
    return {"exit": exit_code,
            "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]}


def load_digests(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# ---------------------------------------------------------------------------
# parsing scx output


def parse_laurent(text):
    """'T^4 - 3*T + 1 - T^-2' -> {4: 1, 1: -3, 0: 1, -2: -1}; coefficients
    are Fractions so that Q[T^±1] output parses too."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        neg = term.startswith("-")
        body = term.lstrip("-")
        if "*" in body:
            coeff, mono = body.split("*")
        elif body.startswith("T"):
            coeff, mono = "1", body
        else:
            coeff, mono = body, ""
        if mono == "":
            exp = 0
        elif mono == "T":
            exp = 1
        elif mono.startswith("T^"):
            exp = int(mono[2:])
        else:
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        c = Fraction(coeff)
        out[exp] = out.get(exp, 0) + (-c if neg else c)
    return {e: c for e, c in out.items() if c}


def tsv(stdout):
    return [line.split("\t") for line in stdout.splitlines()]


# ---------------------------------------------------------------------------
# independent formulas


def torus_signature(p, q):
    """Signature of T(p, q): lattice points (i, j), 0<i<p, 0<j<q, with
    i/p + j/q in (1/2, 3/2) count -1, the others +1."""
    pq, s = p * q, 0
    for i in range(1, p):
        for j in range(1, q):
            x2 = 2 * (i * q + j * p)      # 2 * pq * (i/p + j/q)
            if pq < x2 < 3 * pq:
                s -= 1
            elif x2 not in (pq, 3 * pq):
                s += 1
    return s


def torus_alexander_ok(p, q, delta):
    """Whether ``delta`` ({exponent: coefficient}) is the symmetrized
    Alexander polynomial of T(p, q): after the shift by (p-1)(q-1)/2 it
    must satisfy delta * (t^p - 1)(t^q - 1) = (t^pq - 1)(t - 1) exactly,
    in sympy's sparse ring Z[t], and be symmetric."""
    from sympy import ZZ
    from sympy.polys.rings import ring

    half = (p - 1) * (q - 1) // 2
    if any(c.denominator != 1 for c in delta.values()) or any(
            delta.get(-e) != c for e, c in delta.items()):
        return False
    if min(delta, default=0) + half < 0:
        return False
    R, t = ring("t", ZZ)
    poly = R({(e + half,): int(c) for e, c in delta.items()})
    return poly * (t ** p - 1) * (t ** q - 1) == (t ** (p * q) - 1) * (t - 1)


def two_bridge_signature(p, q):
    """Signature of the two-bridge knot K(p, q), p odd, by the sign sum
    over 0 < i < p of (-1)^floor(i q' / p) with q' = q mod p made odd."""
    q %= p
    if q % 2 == 0:
        q -= p
    return sum(-1 if (i * q // p) % 2 else 1 for i in range(1, p))


def _n_gens(path):
    with open(path, encoding="utf-8") as fh:
        return len(json.load(fh)["generators"])


# ---------------------------------------------------------------------------
# ideals


def _ideal(desc, ring):
    """Parse a J[i] cell into ('zero'|'unit'|'gens', [polys])."""
    if desc == "0":
        return ("zero", [])
    if desc == "ring":
        return ("unit", [])
    return ("gens", [parse_laurent(g) for g in desc.split("; ")])


def _divides(a, b, ring):
    """a | b in the Laurent ring over Z, Q or F2 (one generator each)."""
    from sympy import GF, QQ, ZZ, Poly, Rational, symbols

    domain = {"z": ZZ, "zt": ZZ, "qt": QQ, "q": QQ, "f2t": GF(2)}[ring]
    t = symbols("t")

    def poly(d):
        lo = min(d)
        return Poly({(e - lo,): Rational(c.numerator, c.denominator)
                     for e, c in d.items()}, t, domain=domain)

    _quo, rem = poly(b).div(poly(a))
    return rem.is_zero


def check_nested(stdout, ring):
    rows = {int(r[0][2:-1]): r[1] for r in tsv(stdout)
            if r and r[0].startswith("J[")}
    for i in sorted(rows)[:-1]:
        inner, outer = _ideal(rows[i + 1], ring), _ideal(rows[i], ring)
        if inner[0] == "zero" or outer[0] == "unit":
            continue
        if outer[0] == "zero" or inner[0] == "unit":
            return f"J[{i + 1}] is not inside J[{i}]"
        if len(outer[1]) != 1:
            continue        # several generators: left to the digest
        if not all(_divides(outer[1][0], g, ring) for g in inner[1]):
            return f"J[{i + 1}] is not inside J[{i}]"
    return None


# ---------------------------------------------------------------------------
# the checks, by name


class Checker:
    """Checks job results; ``results`` is the list of job dicts in run
    order, ``run_dir`` the directory the jobs ran in."""

    def __init__(self, digests, run_dir):
        self.digests = digests
        self.run_dir = run_dir

    def failure(self, res, results):
        """None when the job passed, else a reason."""
        if TRACEBACK in res["stderr"]:
            last = res["stderr"].strip().splitlines()[-1]
            return f"crashed: {last}"
        try:
            return getattr(self, "check_" + res["check"])(res, results)
        except (ValueError, KeyError, IndexError, OSError) as e:
            return f"output not in the expected form: {e!r}"

    def check_digest(self, res, results):
        want = self.digests.get(res["key"])
        if want is None:
            return "no digest recorded for this job"
        got = digest_of(res["exit"], res["stdout"])
        if got["exit"] != want["exit"]:
            return f"exit {got['exit']}, recorded {want['exit']}"
        if got["sha256"] != want["sha256"]:
            return "stdout differs from the recorded digest"
        return None

    def check_h(self, res, results):
        want = res["info"]["h"]
        if res["exit"] != 0 or res["stdout"].strip() != str(want):
            return f"h printed {res['stdout'].strip()!r}, expected {want}"
        return None

    def check_jideals(self, res, results):
        bad = self.check_digest(res, results)
        if bad is None and res["exit"] == 0:
            bad = check_nested(res["stdout"], res["info"].get("ring", "zt"))
        return bad

    def check_gamma(self, res, results):
        bad = self.check_digest(res, results)
        if bad or res["exit"] != 0:
            return bad
        h = res["info"]["h"]
        vals = {}
        for row in tsv(res["stdout"]):
            k = int(row[0][len("gamma("):-1])
            vals[k] = None if row[1] == "infinity" else Fraction(row[1])
        last = Fraction(-1)
        for k in sorted(vals):
            v = vals[k]
            if (v is not None) != (k <= h):
                return f"Gamma({k}) finite={v is not None} but h={h}"
            if v is not None:
                if v < last:
                    return f"Gamma decreases at k={k}"
                last = v
        if res["info"].get("trefoil"):
            for k, v in vals.items():
                want = (Fraction(0) if k <= 0 else
                        Fraction(1, 3) if k == 1 else None)
                if v != want:
                    return f"trefoil Gamma({k}) = {v}, expected {want}"
        return None

    def check_torus(self, res, results):
        p, q = res["info"]["p"], res["info"]["q"]
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[-200:]}"
        rows = dict((r[0], r[1]) for r in tsv(res["stdout"]) if len(r) == 2)
        sigma = torus_signature(p, q)
        delta = parse_laurent(rows.get("alexander", "0"))
        norm = sum(abs(c) for c in delta.values())
        if int(rows.get("signature", "nan")) != sigma:
            return f"signature {rows.get('signature')}, expected {sigma}"
        if not torus_alexander_ok(p, q, delta):
            return "Alexander polynomial fails the exact division check"
        if int(rows.get("alexander_norm", "-1")) != norm:
            return f"norm {rows.get('alexander_norm')}, expected {norm}"
        vanish = "true" if 1 + abs(sigma) == norm else "false"
        if rows.get("vanishing") != vanish:
            return f"vanishing {rows.get('vanishing')}, expected {vanish}"
        return None

    def check_two_bridge(self, res, results):
        bad = self.check_digest(res, results)
        if bad or res["exit"] != 0:
            return bad
        info = res["info"]
        inv = {r[1]: r[2] for r in tsv(res["stdout"])
               if len(r) == 3 and r[0] == "invariant"}
        sigma = two_bridge_signature(info["p"], info["q"])
        if 2 * int(inv["euler_characteristic"]) != sigma:
            return (f"2*chi = {2 * int(inv['euler_characteristic'])}, "
                    f"signature {sigma}")
        return None

    def check_validate_two_bridge(self, res, results):
        if res["exit"] == 0 and res["stdout"] == "ok\ttrue\n":
            return None
        source = results[res["index"] - res["pos"] + res["needs"]]
        assumed_v = "invariant\tv_trusted\tFalse" in source["stdout"]
        fails = [r[1] for r in tsv(res["stdout"]) if r[0] == "failure"]
        if (res["exit"] == 2 and assumed_v and fails
                and all(f.startswith("d*v") for f in fails)):
            return None     # the stored v = 0 breaks only the v relation
        return f"validate exit {res['exit']}: {res['stdout'][:200]!r}"

    def check_ok_report(self, res, results):
        if res["exit"] != 0 or not res["stdout"].startswith("ok\ttrue\n"):
            return f"exit {res['exit']}: {res['stdout'][:200]!r}"
        return None

    def _path(self, name):
        return os.path.join(self.run_dir, name)

    def check_tensor(self, res, results):
        info = res["info"]
        if res["exit"] != 0:
            return f"exit {res['exit']}"
        a, b = _n_gens(self._path(info["a"])), _n_gens(self._path(info["b"]))
        n = _n_gens(self._path(info["out"]))
        if 2 * n + 1 != (2 * a + 1) * (2 * b + 1):
            return f"tensor of {a} and {b} generators has {n}"
        return None

    def check_dual(self, res, results):
        info = res["info"]
        if res["exit"] != 0:
            return f"exit {res['exit']}"
        if _n_gens(self._path(info["in"])) != _n_gens(self._path(info["out"])):
            return "dual changed the number of generators"
        return None
