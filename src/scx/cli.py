"""Command-line front end.

Verbs: two-bridge, lens, torus, fixture, validate, tensor, dual, h,
jideals, gamma, euler, sharp, hat-presentation, bn-presentation,
model-check, batch.  Reports are TSV tables by default and JSON with
``--json``.  Exit status 0 on success, 1 on usage or input errors, 2 on
validation failures and refused computations.

``_build_parser`` declares each verb once, with its handler, and runs
once per process.  From the verb parsers it declares it also builds the
table with which ``_read_plain`` reads a plain argv, a verb and then its
options spelled in full with their values, into the Namespace argparse
would give.  The table models the option kinds scx declares (store,
``store_true`` and append), so a verb declared with any other kind fails
as the parser is built.  Any other argv, ``--help`` and every usage
error among them, goes to argparse, which writes every message and help
text.

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

import argparse
import contextlib
import functools
import json
import os
import shlex
import sys

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


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its failures raised as UsageError; the one
    :func:`_build_parser` returns holds, as ``table``, the verb table of
    :func:`_read_plain`, read off its own verb parsers."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # only --help gets here: error() above takes every failure
        raise _HelpShown


@functools.cache
def _build_parser():
    # scx --help shows the first two paragraphs of the module docstring
    top = _Parser(prog="scx",
                  description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = top.add_subparsers(dest="verb", metavar="VERB")

    def add(name, handler, help, infile=False, check=False,
            specialize=False):
        """One verb; ``check`` and ``specialize`` steer _input_complex."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of a TSV table")
        p.set_defaults(handler=handler, check_input=check)
        if infile:
            p.add_argument("--in", dest="infile", required=True)
        if specialize:
            p.add_argument("--specialize", action="append", default=[],
                           metavar="VAR=VALUE")
            p.add_argument("--ring",
                           help="target ring for the specialization")
        return p

    p = add("two-bridge", _cmd_two_bridge,
            "generate a two-bridge knot complex")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ring", default="universal")
    p.add_argument("--out", help="write the complex JSON to this file")

    for name, handler, help in (
            ("lens", _cmd_lens, "Sasahira lens-space homology ranks"),
            ("torus", _cmd_torus,
             "torus knot signature, Alexander data, vanishing")):
        p = add(name, handler, help)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)

    p = add("fixture", _cmd_fixture, "emit a named fixture complex")
    p.add_argument("--name", required=True,
                   choices=["trivial", "trefoil", "t34", "t35"])
    p.add_argument("--out")

    add("validate", _cmd_validate, "validate a complex file", infile=True)

    p = add("tensor", _cmd_tensor, "tensor product of two complexes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")

    p = add("dual", _cmd_dual, "dual complex", infile=True)
    p.add_argument("--out")
    # one convention is left; "reverse" still parses for existing decks
    p.add_argument("--grading", default="reverse", choices=["reverse"])

    add("h", _cmd_h, "compute h of a complex", infile=True, check=True,
        specialize=True)
    add("euler", _cmd_euler, "compute euler of a complex", infile=True,
        specialize=True)
    p = add("jideals", _cmd_jideals, "compute jideals of a complex",
            infile=True, check=True, specialize=True)
    p.add_argument("--min", type=int)
    p.add_argument("--max", type=int)

    p = add("gamma", _cmd_gamma, "Gamma function values", infile=True,
            check=True)
    p.add_argument("--k", type=int, action="append", default=[])
    p.add_argument("--min", type=int)
    p.add_argument("--max", type=int)

    p = add("sharp", _cmd_sharp, "unreduced mapping-cone model ranks",
            infile=True, specialize=True)
    p.add_argument("--twisted", action="store_true")

    add("hat-presentation", _cmd_presentation,
        "module presentation of the hat theory", infile=True,
        specialize=True)
    p = add("bn-presentation", _cmd_presentation,
            "theta-web base-changed presentation", infile=True,
            specialize=True)
    p.add_argument("--target", default="bn", choices=["bn", "sharp"])

    p = add("model-check", _cmd_model_check,
            "verify the small/large model equivalence", infile=True,
            check=True)
    p.add_argument("--truncation", type=int,
                   help="x-degree depth (default: $SCX_TRUNCATION, else 5;"
                   f" 1..{TRUNCATION_LIMIT})")

    p = add("batch", _cmd_batch, "run commands from a file, one per line")
    p.add_argument("--file", required=True)
    top.table = _verb_table(top)
    return top


# the action classes _read_plain reads: (takes one value, appends it)
_KINDS = {argparse._StoreAction: (True, False),
          argparse._StoreTrueAction: (False, False),
          argparse._AppendAction: (True, True)}


def _verb_table(top):
    """The verb table of :func:`_read_plain`, read off the verb parsers
    that :func:`_build_parser` declares in ``top``: verb -> (options,
    defaults, required, negative).  ``options`` maps each option string
    but -h/--help to (dest, takes one value, appends, type function or
    the flag's constant, choices); ``defaults`` is the Namespace of the
    verb given no option, with ``set_defaults`` filled in as argparse
    fills it; ``required`` holds the dests it needs; ``negative`` matches
    a value that argparse reads as a negative number.  An action of a
    kind not in ``_KINDS`` raises KeyError, and
    ``test_every_verb_keeps_its_options`` pins every other shape this
    takes for granted."""
    verbs = top._actions[1]
    table = {}
    for name, p in verbs.choices.items():
        actions = [a for a in p._actions
                   if type(a) is not argparse._HelpAction]
        options = {}
        for a in actions:
            one, add = _KINDS[type(a)]
            options[a.option_strings[0]] = (
                a.dest, one, add, (a.type or str) if one else a.const,
                a.choices)
        table[name] = (
            options,
            {**p._defaults, verbs.dest: name,
             **{a.dest: a.default for a in actions}},
            frozenset(a.dest for a in actions if a.required),
            p._negative_number_matcher.match)
    return table


def _read_plain(argv, table):
    """The Namespace argparse gives a plain ``argv``: a verb of ``table``
    (see :func:`_verb_table`), then its options, each spelled in full and
    followed by its value unless it is a flag, where a value begins with
    "-" only when argparse reads it as a negative number.  Each value goes
    through the option's type and is checked against its choices; an
    appended value goes on a copy of the list; the last of a repeated
    option wins.  None for any other argv and for one that argparse
    refuses, a missing required option included: argparse then reads it,
    and writes its messages."""
    verb = table.get(argv[0]) if argv else None
    if verb is None:
        return None
    options, defaults, required, negative = verb
    args = argparse.Namespace()
    values = args.__dict__
    values.update(defaults)
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
            if text[:1] == "-" and not negative(text):
                return None
            try:
                value = make(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if choices is not None and value not in choices:
                return None
            if add:
                value = (values.get(dest) or []) + [value]
        else:
            value = make
        values[dest] = value
        seen.add(dest)
    return args if required <= seen else None


def _parse_argv(argv, out):
    """The Namespace of ``argv``: :func:`_read_plain`'s when it reads it,
    else argparse's, which writes a help text to ``out``."""
    args = _read_plain(argv, _build_parser().table)
    if args is None:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
    return args


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
