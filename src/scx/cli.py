"""Command-line front end.

Verbs: two-bridge, lens, torus, fixture, validate, tensor, dual, h,
jideals, gamma, euler, sharp, hat-presentation, bn-presentation,
model-check, batch.  Reports are TSV tables by default and JSON with
``--json``.  Exit status 0 on success, 1 on usage or input errors, 2 on
validation failures and refused computations.

``_VERBS`` declares each verb once: its handler, its help, whether it
checks its input, and its options, each a flag with the keywords of
argparse's ``add_argument``.  ``_read_plain`` reads a plain argv, a verb
and then its options spelled in full with their values, from a view of
that table built once per process.  The view models the option kinds
scx declares (store, ``store_true`` and append), so an option of any
other kind or keyword fails as the view is built.  Any other argv,
``--help`` and every usage error among them, goes to the argparse parser
that ``_build_parser`` builds from the same table, only then and once;
it writes every message and help text.

``_input_complex`` is the one way a verb reads ``--in``: parse the
file, then ``validate`` it for h, jideals, gamma and model-check (the
paper defines them only for S-complexes), then apply
``--specialize``/``--ring``.  A process parses and validates each file
text once and applies each specialization of it once, as ``scx batch``
asks several invariants of one complex: ``_load_complex`` keeps them,
keyed by the file's content, so a rewritten file is read again.
``--help`` writes to the output stream and exits 0, on a batch line
too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shlex
import sys
import types

from . import equivariant, knots, linalg, rings, scomplex
from .equivariant import EquivariantError, INFINITY
from .knots import KnotError
from .linalg import LinalgError
from .rings import ParseError, RingError
from .scomplex import SchemaError, SComplexError


# batch files may run batch files, up to this many levels deep
BATCH_NESTING_LIMIT = 8
# gamma --k/--min/--max and jideals --min/--max lie within +-RANGE_LIMIT
RANGE_LIMIT = 100
# model-check --truncation (and SCX_TRUNCATION) lies within 1..this
TRUNCATION_LIMIT = 100
# two-bridge and lens --p, and torus --p times --q, are at most these
KNOT_P_LIMIT, TORUS_PQ_LIMIT = 1001, 100_000
# _load_complex keeps what it read in _inputs, the least recently used
# first: at most INPUT_MEMO_LIMIT entries (parses, validate marks and
# specialized complexes) weighing at most INPUT_MEMO_CHARS characters of
# file text, counted once for a parse and once for each specialization.
# A bench/run.py run keeps at most 42 entries and 690 000 characters; a
# batch over 84 inputs of 43 and 349 KB (10.9 MB) peaks at 19.1 MiB of
# RSS, against 16.9 MiB with nothing kept.
INPUT_MEMO_LIMIT, INPUT_MEMO_CHARS = 64, 1_000_000


class _Kept(dict):
    """The entries of ``_inputs``, with ``chars`` the sum of their sizes;
    :func:`_kept` alone adds and removes entries, and ``clear`` empties
    the table."""

    chars = 0

    def clear(self):
        super().clear()
        self.chars = 0


_inputs = _Kept()


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    """argparse printed a help text instead of running a verb."""


# ---------------------------------------------------------------------------
# helpers


def _load_complex(path, check=False, specialize=(), ring_name=None):
    """The complex in the file at ``path``: parsed, then refused unless it
    passes ``validate`` when ``check`` is set, then specialized by the
    ``--specialize`` arguments ``specialize`` and the ``--ring``
    ``ring_name`` when either is given.

    A process parses each file text once, validates it once and applies
    each specialization once: ``_kept`` holds the parse under the text
    (never the path or its mtime, so a rewritten file is read afresh), and
    under the text too the mark that it passed ``validate`` and each
    specialized complex.  A refusal is not kept, so it runs in full and
    says the same every time.  Verbs share the kept complexes, and none
    may change one in place.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except ValueError as e:
        # bytes that are not UTF-8
        raise UsageError(f"{path} is not JSON: {e}")

    def parsed():
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:
            # a decode error, or nesting too deep
            raise UsageError(f"{path} is not JSON: {e}")
        return scomplex.from_dict(doc)

    C = _kept(text, len(text), parsed)
    if check:
        _kept((text, "checked"), 0, lambda: _checked(C))
    if specialize or ring_name:
        # ring names are read case-insensitively
        return _kept((text, specialize, ring_name and ring_name.lower()),
                     len(text),
                     lambda: _specialized(C, specialize, ring_name))
    return C


def _checked(C):
    report = scomplex.validate(C)
    if not report.ok:
        raise SComplexError("not an S-complex: "
                            + "; ".join(report.failures))
    return True


def _kept(key, size, make):
    """``make()``, kept in ``_inputs`` under ``key`` with its ``size`` in
    characters of file text; a hit makes the entry the most recently
    used.  The least recently used entries go while the table holds more
    than INPUT_MEMO_LIMIT entries or INPUT_MEMO_CHARS characters, so an
    input larger than that is not kept at all.  What ``make`` raises is
    not kept."""
    entry = _inputs.pop(key, None)
    if entry is None:
        entry = (make(), size)
        _inputs.chars += size
    _inputs[key] = entry
    while (len(_inputs) > INPUT_MEMO_LIMIT
           or _inputs.chars > INPUT_MEMO_CHARS):
        _inputs.chars -= _inputs.pop(next(iter(_inputs)))[1]
    return entry[0]


_quote = json.encoder.encode_basestring_ascii


def _indented(obj, nl):
    """The text of ``obj`` in json.dumps's indent=2 layout, with ``nl`` the
    newline and indent of its own line; TypeError on a value it does not
    write.  A list of strings, such as a row of a wire matrix, is quoted
    by one join when none of them needs an escape, else string by
    string."""
    cls = obj.__class__
    if cls is str:
        return _quote(obj)
    if cls is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for k, v in obj.items():
            if k.__class__ is not str:
                raise TypeError(k)
            items.append(_quote(k) + ": " + _indented(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        try:
            # the rows of a wire matrix hold only strings
            raw = "".join(obj)
        except TypeError:
            body = sep.join([_indented(v, inner) for v in obj])
        else:
            # every escape lengthens the text, so when quoting the joined
            # row adds only its two quotes no cell needs one
            if len(_quote(raw)) == len(raw) + 2:
                body = '"' + ('"' + sep + '"').join(obj) + '"'
            else:
                body = sep.join(map(_quote, obj))
        return "[" + inner + body + nl + "]"
    if cls is int:
        return repr(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(obj)


def _dumps(obj):
    """``json.dumps(obj, indent=2)``, byte for byte.  With an indent set,
    json runs its pure-Python encoder; this builds the same text with the
    C string quoter and str.join (:func:`_indented`), one join per row
    of clean strings.  A value other than a dict with str keys, a list
    or tuple, a str, an int, a bool or None goes to json.dumps."""
    try:
        return _indented(obj, "\n")
    except TypeError:
        return json.dumps(obj, indent=2)


def _write_or_print(out, text, stream):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"cannot write {out}: {e}")
    else:
        stream.write(text + "\n")


def _infer_target(src, mapping):
    """Guess the specialization target from the value strings: U=1 drops
    U, T=1 drops T, T=x lands in F4."""
    u_alive = bool(src.udenom) and mapping.get("U", "U") not in ("1",)
    t_val = mapping.get("T", "T")
    if u_alive:
        raise UsageError("specializations keeping U need an explicit --ring")
    if t_val == "x":
        return rings.F4
    # the ring over the same base, with T or without it
    return rings.RING_NAMES[src.base.lower() + ("" if t_val == "1" else "t")]


def _specialized(C, specialize, ring_name):
    """C base-changed by the ``--specialize`` arguments and ``--ring``; a
    refusal names the argument it comes from when there is one."""
    names = C.ring.variables()
    mapping = {}
    for item in specialize:
        var, eq, val = item.partition("=")
        if not eq or not var:
            raise UsageError(f"bad --specialize argument {item!r}")
        if var not in names:
            raise UsageError(
                f"--specialize {item}: ring {C.ring.tag} has no variable "
                f"{var!r} (its variables: {', '.join(names) or 'none'})")
        mapping[var] = val
    if ring_name:
        try:
            # the specializing verbs also reach the theta-web ring
            target = rings.named(ring_name, sbn=rings.S_BN)
        except KeyError:
            raise UsageError(f"unknown ring {ring_name!r}")
    else:
        target = _infer_target(C.ring, mapping)
    images = {}
    for var in [v for v in names if v in mapping]:
        try:
            images[var] = rings.parse(target, mapping[var])
        except ParseError as e:
            raise UsageError(f"--specialize {var}={mapping[var]}: {e}")
    assignment = scomplex.standard_assignment(C.ring, target, **images)
    try:
        return scomplex.base_change_complex(C, assignment, target,
                                            check=False)
    except RingError as e:
        var = getattr(e, "variable", None)
        if var in mapping:
            raise UsageError(f"--specialize {var}={mapping[var]}: {e}")
        raise UsageError(str(e))


def _input_complex(args):
    """The complex of ``--in``, the one way a verb reads it: the
    ``_load_complex`` of the file, validated when the verb checks its
    input and specialized by its ``--specialize``/``--ring``; a process
    parses each file text once, whatever the verb's options."""
    return _load_complex(args.infile, args.check_input,
                         tuple(getattr(args, "specialize", ())),
                         getattr(args, "ring", None))


def _emit(payload, as_json, table_lines, stream):
    if as_json:
        stream.write(_dumps(payload) + "\n")
    else:
        for line in table_lines:
            stream.write(line + "\n")


def _report_table(rep):
    lines = [f"knot\t{rep.knot}", f"ring\t{rep.ring}"]
    lines.append("generator\tgr_mod4\tdeg_I")
    for g in rep.generators:
        lines.append(f"{g['name']}\t{g['gr_mod4']}\t{g['deg_I']}")
    for label, summary in rep.maps.items():
        shown = "; ".join(f"[{i},{j}]={s}" for i, j, s in summary["entries"])
        lines.append(f"map\t{label}\t{summary['nonzero']}\t{shown}")
    for key, val in rep.invariants.items():
        lines.append(f"invariant\t{key}\t{val}")
    for w in rep.warnings:
        lines.append(f"warning\t{w}")
    for nte in rep.notes:
        lines.append(f"note\t{nte}")
    return lines


# ---------------------------------------------------------------------------
# verb handlers


def _check_at_most(what, value, limit):
    if value > limit:
        raise UsageError(f"{what} {value} is above the limit {limit}")


def _cmd_two_bridge(args, out, err):
    _check_at_most("--p", args.p, KNOT_P_LIMIT)
    C = knots.two_bridge_complex(args.p, args.q, args.ring)
    rep = knots.two_bridge_report(args.p, args.q, C)
    doc = scomplex.to_dict(C)
    if args.out:
        _write_or_print(args.out, _dumps(doc), out)
    payload = {"report": rep._asdict()}
    if not args.out:
        payload["complex"] = doc
    _emit(payload, args.json, _report_table(rep), out)
    return 0


def _cmd_lens(args, out, err):
    _check_at_most("--p", args.p, KNOT_P_LIMIT)
    ranks = knots.lens_sasahira(args.p, args.q)
    payload = {"lens": f"L({args.p},{args.q})",
               "graded_ranks": {str(k): v for k, v in ranks.items()},
               "total_rank": sum(ranks.values())}
    lines = [f"lens\tL({args.p},{args.q})"]
    lines += [f"gr{g}\t{ranks[g]}" for g in range(4)]
    lines.append(f"total\t{sum(ranks.values())}")
    _emit(payload, args.json, lines, out)
    return 0


def _cmd_torus(args, out, err):
    _check_at_most("--p times --q", args.p * args.q, TORUS_PQ_LIMIT)
    sigma = knots.torus_signature(args.p, args.q)
    delta, total = knots.torus_alexander(args.p, args.q)
    vanish = knots.vanishing_check(args.p, args.q)
    alexander = delta.to_str()
    payload = {"knot": f"T({args.p},{args.q})", "signature": sigma,
               "alexander": alexander, "alexander_norm": total,
               "vanishing": vanish}
    lines = [f"knot\tT({args.p},{args.q})", f"signature\t{sigma}",
             f"alexander\t{alexander}", f"alexander_norm\t{total}",
             f"vanishing\t{str(vanish).lower()}"]
    _emit(payload, args.json, lines, out)
    return 0


def _cmd_fixture(args, out, err):
    C = knots.fixture(args.name)
    doc = scomplex.to_dict(C)
    if args.out:
        _write_or_print(args.out, _dumps(doc), out)
        out.write(f"wrote {args.name} to {args.out}\n")
    else:
        _emit(doc, True, [], out)
    return 0


def _cmd_validate(args, out, err):
    rep = scomplex.validate(_input_complex(args))
    payload = {"ok": rep.ok, "failures": rep.failures}
    lines = [f"ok\t{str(rep.ok).lower()}"]
    lines += [f"failure\t{f}" for f in rep.failures]
    _emit(payload, args.json, lines, out)
    return 0 if rep.ok else 2


def _cmd_tensor(args, out, err):
    C = scomplex.tensor(_load_complex(args.a), _load_complex(args.b))
    _write_or_print(args.out, _dumps(scomplex.to_dict(C)), out)
    return 0


def _cmd_dual(args, out, err):
    C = scomplex.dual(_input_complex(args))
    _write_or_print(args.out, _dumps(scomplex.to_dict(C)), out)
    return 0


def _cmd_h(args, out, err):
    h = equivariant.h_invariant(_input_complex(args))
    _emit({"h": h}, args.json, [str(h)], out)
    return 0


def _cmd_euler(args, out, err):
    chi = scomplex.euler_characteristic(_input_complex(args))
    _emit({"euler_characteristic": chi}, args.json, [str(chi)], out)
    return 0


def _check_limit(flag, value):
    if value is not None and not -RANGE_LIMIT <= value <= RANGE_LIMIT:
        raise UsageError(f"{flag} {value} is outside the range limit "
                         f"-{RANGE_LIMIT}..{RANGE_LIMIT}")


def _check_range(lo, hi):
    _check_limit("--min", lo)
    _check_limit("--max", hi)
    if lo is not None and hi is not None and lo > hi:
        raise UsageError(f"reversed range: --min {lo} is above --max {hi}")


def _cmd_jideals(args, out, err):
    _check_range(args.min, args.max)
    ideals = equivariant.j_ideals(_input_complex(args), args.min, args.max)
    if not ideals:
        raise UsageError("reversed range: " + (
            f"--min {args.min} is above the default --max" if args.max is None
            else f"--max {args.max} is below the default --min"))
    payload = {"J": {str(i): [g.to_str() for g in gens]
                     for i, gens in sorted(ideals.items())}}
    lines = []
    for i in sorted(ideals, reverse=True):
        gens = ideals[i]
        desc = "0" if not gens else ("ring" if gens[0].is_unit()
                                     else "; ".join(g.to_str() for g in gens))
        lines.append(f"J[{i}]\t{desc}")
    _emit(payload, args.json, lines, out)
    return 0


def _cmd_gamma(args, out, err):
    ks = list(args.k)
    for k in ks:
        _check_limit("--k", k)
    if args.min is not None or args.max is not None:
        _check_range(args.min, args.max)
        lo = args.min if args.min is not None else 0
        hi = args.max if args.max is not None else lo
        if lo > hi:
            raise UsageError(f"reversed range: --max {hi} is below the "
                             f"default --min {lo}")
        ks.extend(range(lo, hi + 1))
    if not ks:
        raise UsageError("gamma needs --k or --min/--max")
    vals = {k: "infinity" if g is INFINITY else str(g) for k, g in
            equivariant.gamma(_input_complex(args), sorted(set(ks))).items()}
    payload = {"gamma": {str(k): v for k, v in vals.items()}}
    lines = [f"gamma({k})\t{v}" for k, v in vals.items()]
    _emit(payload, args.json, lines, out)
    return 0


def _cmd_sharp(args, out, err):
    C = _input_complex(args)
    dtilde = C.dtilde()
    gens, D = scomplex.sharp_complex(C, args.twisted, dtilde)
    payload = {"generators": len(gens), "twisted": args.twisted}
    lines = [f"generators\t{len(gens)}"]
    # in characteristic 2, D is dtilde twice over (see sharp_complex)
    copies, D = (2, dtilde[1]) if C.ring.char_two else (1, D)
    if args.twisted or not rings.is_euclidean(C.ring):
        # total homology rank over the fraction field of the ring, with
        # the rank bound that linalg.rank proves for d-tilde and the cone
        r = len(gens) - 2 * copies * linalg.rank(D, (D.rows - 1) // 2)
        payload["rank_over_fractions"] = r
        lines.append(f"rank_over_fractions\t{r}")
    else:
        H = linalg.homology(D)
        torsion = [t.to_str() for t in H.torsion for _ in range(copies)]
        payload["free_rank"] = copies * H.free_rank
        payload["torsion"] = torsion
        lines.append(f"free_rank\t{copies * H.free_rank}")
        lines.append("torsion\t" + (", ".join(torsion) or "none"))
    _emit(payload, args.json, lines, out)
    return 0


def _cmd_presentation(args, out, err):
    pres = equivariant.hat_presentation(_input_complex(args))
    if args.verb == "bn-presentation":
        pres = equivariant.bn_presentation(pres, target=args.target)
    lines = ["generators\t" + ", ".join(pres.generators)]
    for j in range(pres.relations.cols):
        rel = "; ".join(
            f"{pres.generators[i]}: {pres.relations[i, j].to_str()}"
            for i in range(pres.relations.rows) if pres.relations[i, j])
        lines.append(f"relation[{j}]\t{rel}")
    _emit(pres.to_dict(), args.json, lines, out)
    return 0


def _cmd_model_check(args, out, err):
    depth = args.truncation
    if depth is None:
        env = os.environ.get("SCX_TRUNCATION", "5")
        try:
            depth = int(env)
        except ValueError:
            raise UsageError(f"SCX_TRUNCATION must be an integer, not {env!r}")
    if not 1 <= depth <= TRUNCATION_LIMIT:
        raise UsageError(f"truncation {depth} is outside the range "
                         f"1..{TRUNCATION_LIMIT}")
    # past the validate gate, a failure line means check and validate disagree
    rep = equivariant.verify_model_equivalence(_input_complex(args), depth)
    payload = {"ok": rep.ok, "truncation": depth, "failures": rep.failures}
    lines = [f"ok\t{str(rep.ok).lower()}", f"truncation\t{depth}"]
    lines += [f"failure\t{f}" for f in rep.failures]
    _emit(payload, args.json, lines, out)
    return 0 if rep.ok else 2


def _cmd_batch(args, out, err):
    if args.batch_depth >= BATCH_NESTING_LIMIT:
        raise UsageError(f"batch files nest more than {BATCH_NESTING_LIMIT} "
                         f"levels deep at {args.file}")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read {args.file}: {e}")
    worst = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as e:
            raise UsageError(f"{args.file}: {e} in {line!r}")
        out.write(f"### {line}\n")
        code = run(argv, out, err, args.batch_depth + 1)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# the verb table, its plain-argv reader, and argparse for any other argv


# the options several verbs share: (flag, add_argument keywords)
_JSON = ("--json", {"action": "store_true",
                    "help": "emit JSON instead of a TSV table"})
_IN = ("--in", {"dest": "infile", "required": True})
_SPECIALIZE = (("--specialize", {"action": "append", "default": [],
                                 "metavar": "VAR=VALUE"}),
               ("--ring", {"help": "target ring for the specialization"}))
_P_Q = (("--p", {"type": int, "required": True}),
        ("--q", {"type": int, "required": True}))
_RANGE = (("--min", {"type": int}), ("--max", {"type": int}))

# every verb, in the order scx --help lists them: (name, handler, help,
# whether _input_complex validates its input, options)
_VERBS = (
    ("two-bridge", _cmd_two_bridge, "generate a two-bridge knot complex",
     False, (_JSON, *_P_Q, ("--ring", {"default": "universal"}),
             ("--out", {"help": "write the complex JSON to this file"}))),
    ("lens", _cmd_lens, "Sasahira lens-space homology ranks", False,
     (_JSON, *_P_Q)),
    ("torus", _cmd_torus, "torus knot signature, Alexander data, vanishing",
     False, (_JSON, *_P_Q)),
    ("fixture", _cmd_fixture, "emit a named fixture complex", False,
     (_JSON, ("--name", {"required": True,
                         "choices": ["trivial", "trefoil", "t34", "t35"]}),
      ("--out", {}))),
    ("validate", _cmd_validate, "validate a complex file", False,
     (_JSON, _IN)),
    ("tensor", _cmd_tensor, "tensor product of two complexes", False,
     (_JSON, ("--a", {"required": True}), ("--b", {"required": True}),
      ("--out", {}))),
    # one convention is left; "reverse" still parses for existing decks
    ("dual", _cmd_dual, "dual complex", False,
     (_JSON, _IN, ("--out", {}),
      ("--grading", {"default": "reverse", "choices": ["reverse"]}))),
    ("h", _cmd_h, "compute h of a complex", True, (_JSON, _IN, *_SPECIALIZE)),
    ("euler", _cmd_euler, "compute euler of a complex", False,
     (_JSON, _IN, *_SPECIALIZE)),
    ("jideals", _cmd_jideals, "compute jideals of a complex", True,
     (_JSON, _IN, *_SPECIALIZE, *_RANGE)),
    ("gamma", _cmd_gamma, "Gamma function values", True,
     (_JSON, _IN, ("--k", {"type": int, "action": "append", "default": []}),
      *_RANGE)),
    ("sharp", _cmd_sharp, "unreduced mapping-cone model ranks", False,
     (_JSON, _IN, *_SPECIALIZE, ("--twisted", {"action": "store_true"}))),
    ("hat-presentation", _cmd_presentation,
     "module presentation of the hat theory", False,
     (_JSON, _IN, *_SPECIALIZE)),
    ("bn-presentation", _cmd_presentation,
     "theta-web base-changed presentation", False,
     (_JSON, _IN, *_SPECIALIZE,
      ("--target", {"default": "bn", "choices": ["bn", "sharp"]}))),
    ("model-check", _cmd_model_check,
     "verify the small/large model equivalence", True,
     (_JSON, _IN, ("--truncation", {
         "type": int, "help": "x-degree depth (default: $SCX_TRUNCATION,"
         f" else 5; 1..{TRUNCATION_LIMIT})"}))),
    ("batch", _cmd_batch, "run commands from a file, one per line", False,
     (_JSON, ("--file", {"required": True}))),
)

# the add_argument keywords the view reads or leaves to argparse's help
_MODELLED = {"action", "dest", "type", "default", "choices", "required",
             "help", "metavar"}


@functools.cache
def _verb_view():
    """The view of ``_VERBS`` that :func:`_read_plain` reads: verb ->
    (options, defaults, required dests), with ``options`` mapping each
    flag to (dest, takes a value, appends, the value's type or a flag's
    True, choices) and ``defaults`` what argparse fills in.  An option
    kind other than store, ``store_true`` and append, or a keyword the
    view does not model (``nargs`` or ``const``, say), raises
    ValueError."""
    view = {}
    for name, handler, _help, check, options in _VERBS:
        flags, defaults, required = {}, {"verb": name}, set()
        for flag, kw in options:
            kind = kw.get("action", "store")
            if (kind not in ("store", "store_true", "append")
                    or not kw.keys() <= _MODELLED):
                raise ValueError(f"{name} {flag}: the plain-argv reader "
                                 f"does not model {kw}")
            dest = kw.get("dest", flag[2:])
            one = kind != "store_true"
            flags[flag] = (dest, one, kind == "append",
                           kw.get("type", str) if one else True,
                           kw.get("choices"))
            defaults[dest] = kw.get("default", None if one else False)
            if kw.get("required"):
                required.add(dest)
        defaults.update(handler=handler, check_input=check)
        view[name] = (flags, defaults, required)
    return view


def _read_plain(argv, view):
    """The attributes argparse gives a plain ``argv``: a verb of ``view``
    (see :func:`_verb_view`), then its options spelled in full, each but
    a flag followed by a value, which begins with "-" only when decimal
    digits follow (argparse's negative number, as no scx option looks
    like one).  A value goes through its type and choices, an appended
    one onto a copy of the list, and the last of a repeated option wins.
    None for any other argv and for one that argparse refuses: argparse
    then reads it, and writes its messages."""
    verb = view.get(argv[0]) if argv else None
    if verb is None:
        return None
    options, defaults, required = verb
    values = dict(defaults)
    seen = set()
    i, end = 1, len(argv)
    while i < end:
        option = options.get(argv[i])
        if option is None:
            return None
        dest, one, add, make, choices = option
        i += 1
        if one:
            if i == end:
                return None
            text = argv[i]
            i += 1
            if text[:1] == "-" and not text[1:].isdecimal():
                return None
            try:
                value = make(text)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
            if add:
                value = (values[dest] or []) + [value]
        else:
            value = make
        values[dest] = value
        seen.add(dest)
    return types.SimpleNamespace(**values) if required <= seen else None


@functools.cache
def _build_parser():
    """argparse's parser of ``_VERBS``, built once and only for an argv
    that :func:`_read_plain` does not read: it writes each help text and
    raises _HelpShown after it, and UsageError with each usage message."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

        def exit(self, status=0, message=None):
            # only --help gets here: error() above takes every failure
            raise _HelpShown

    # scx --help shows the first two paragraphs of the module docstring
    top = Parser(prog="scx",
                 description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = top.add_subparsers(dest="verb", metavar="VERB")
    for name, handler, help, check, options in _VERBS:
        p = sub.add_parser(name, help=help)
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler, check_input=check)
    return top


def _parse_argv(argv, out):
    """The parsed ``argv``: :func:`_read_plain`'s reading when it reads
    it, else argparse's, which writes a help text to ``out``."""
    args = _read_plain(argv, _verb_view())
    if args is None:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
    return args


def run(argv, out=None, err=None, batch_depth=0):
    """Parse argv and dispatch; returns the exit status.  ``batch_depth``
    counts the batch files whose lines led to this call."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse_argv(argv, out)
        if not args.verb:
            raise UsageError("a verb is required (try --help)")
        args.batch_depth = batch_depth
        return args.handler(args, out, err)
    except _HelpShown:
        return 0
    except UsageError as e:
        err.write(f"usage error: {e}\n")
        return 1
    except (ParseError, SchemaError) as e:
        err.write(f"input error: {e}\n")
        return 1
    except (EquivariantError, SComplexError, KnotError, RingError,
            LinalgError) as e:
        err.write(f"refused: {e}\n")
        return 2


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
