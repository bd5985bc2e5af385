"""Guards for readers of ``Matrix`` outside the algorithms: no module of
``src/scx`` reads the dense ``.data`` view or, outside ``linalg``, builds
a matrix from dense rows, and the benchmark's traced product counter,
which does read the view, still counts what it did.  Guards on the shape
of the package follow: one record idiom, one input path, one sweep."""

import ast
import inspect
import os
import pathlib
import random
import subprocess
import sys

import pytest

from scx import equivariant as E
from scx import linalg as L
from scx import rings as R

import helpers

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scx"


def test_no_module_reads_the_dense_view():
    # one representation: the package walks nonzero_entries or M[i, j]
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                reads.append((path.name, node.lineno))
    assert reads == []


def test_only_linalg_builds_dense_matrices():
    # every matrix of the package is built from its nonzero entries
    # (from_entries, zeros, identity, assemble, kron or an algorithm);
    # the dense Matrix(ring, rows) is for tests and hand-written matrices
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "Matrix" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                calls.append((path.name, node.lineno))
    assert {name for name, _line in calls} <= {"linalg.py"}


def _tracing():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing


def test_traced_product_counter_counts_nonzero_pairs():
    tracing = _tracing()
    rng = random.Random(1717)
    for ring in (R.Z, R.ZT, R.F2T):
        for _ in range(20):
            m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            A, B = (L.Matrix(ring, [[helpers.random_poly(rng, ring)
                                     if rng.random() < 0.3 else R.zero(ring)
                                     for _ in range(c)] for _ in range(r)],
                             cols=c) for r, c in ((m, k), (k, n)))
            tracer = tracing.Tracer()
            tracing._after_matmul(tracer, (A, B), A * B)
            # nonzero entries of column l of A times those of row l of B
            col = [0] * k
            for _i, l, _e in A.nonzero_entries():
                col[l] += 1
            useful = sum(col[l] for l, _j, _e in B.nonzero_entries())
            assert tracer.counters == {
                "linalg.matmul.entry_products": m * k * n,
                "linalg.matmul.useful_products": useful}
    # a matrix times a scalar is not counted
    tracer = tracing.Tracer()
    tracing._after_matmul(tracer, (A, R.one(ring)), A * R.one(ring))
    assert tracer.counters == {}


def _top_level_names_using(path, found):
    """The top-level functions of ``path`` holding a node ``found``
    accepts, once per such node."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if found(node)]


def test_complexes_are_read_through_one_input_path():
    # every verb reading --in goes through _input_complex, which loads,
    # validates and specializes; tensor alone loads its two operands
    callers = _top_level_names_using(
        SRC / "cli.py",
        lambda node: isinstance(node, ast.Name) and node.id == "_load_complex")
    assert sorted(callers) == ["_cmd_tensor", "_cmd_tensor", "_input_complex"]
    # and nothing else in the package reaches for it
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            assert "_load_complex" not in path.read_text(encoding="utf-8")


def test_identities_are_read_as_one_sum_of_products():
    # no src function stacks matrices: blocks are placed by assemble, and
    # the model check and validate read each identity as one sum of
    # products that must vanish, its right side moved over by a negated
    # factor, with no stacked operands and no subtraction
    assert not any(hasattr(L.Matrix, name) for name in ("hstack", "vstack"))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree)
                    if getattr(node, "attr", None) in ("hstack", "vstack")
                    or getattr(node, "name", None) == "reduce"], path.name

    def sums(node):
        return isinstance(node, ast.Call) and "sum_of_products" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    assert set(_top_level_names_using(SRC / "equivariant.py", sums)) == {
        "_failed_columns"}
    assert set(_top_level_names_using(
        SRC / "equivariant.py", lambda node: isinstance(node, ast.Name)
        and node.id == "_failed_columns")) == {"verify_model_equivalence"}
    assert set(_top_level_names_using(SRC / "scomplex.py", sums)) == {
        "validate"}
    assert not hasattr(E, "_sum_of_products")


def test_only_blocks_multiplies_by_delta1_or_delta2():
    # _blocks builds delta1 v^j and v^j delta2 once per call; the level
    # systems and the small models only place the blocks it returns
    path = SRC / "equivariant.py"

    def product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    by_delta = _top_level_names_using(path, lambda node: product(node) and any(
        isinstance(side, ast.Attribute) and side.attr in ("delta1", "delta2")
        for side in (node.left, node.right)))
    assert sorted(set(by_delta)) == ["_blocks"]
    assert "_level_system" not in _top_level_names_using(path, product)
    defined = {node.name for node in ast.walk(ast.parse(path.read_text(
        encoding="utf-8"))) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_triangle_powers", "vpow"}


def test_h_search_reads_only_ranks():
    # h and Gamma read pivot columns of the level systems; the kernel
    # gcds of one Euclidean sweep belong to the ideal sequence alone
    users = _top_level_names_using(
        SRC / "equivariant.py",
        lambda node: isinstance(node, ast.Attribute)
        and node.attr.startswith("kernel"))
    assert sorted(users) == ["j_ideals"]
    assert _functions_calling("kernel_fraction_field") == []


def test_gamma_reads_one_level_system():
    # Gamma U-splits W_k once per level, reads the first column at which
    # the split outranks its head from one call and compares k with
    # nothing: it has no branch on the sign of k
    tree = ast.parse((SRC / "equivariant.py").read_text(encoding="utf-8"))
    fn = next(f for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name == "gamma")
    calls = [getattr(node.func, "attr", getattr(node.func, "id", None))
             for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert calls.count("_level_system") == 1
    assert calls.count("raising_column") == 1
    assert "pivot_columns" not in calls
    assert not [node for node in ast.walk(fn)
                if isinstance(node, ast.Compare) and any(
                    isinstance(name, ast.Name) and name.id == "k"
                    for name in ast.walk(node))]


def test_ideal_sequence_runs_one_euclidean_sweep(monkeypatch):
    # every J_i of trefoil^4 over F2[T-Laurent] is one pivot of a single
    # sweep of the stacked system: no Smith form and no kernel basis (one
    # 42-column kernel basis and six one-row ones before the sweep)
    from scx import equivariant as E, knots, scomplex as S
    T1 = knots.fixture("trefoil")
    T2 = S.tensor(T1, T1)
    T4 = S.tensor(T2, T2)
    C = S.base_change_complex(
        T4, S.standard_assignment(T4.ring, R.F2T, U="1"), R.F2T)
    calls = []
    for name in ("kernel_gcds", "kernel_basis", "smith_normal_form"):
        original = getattr(L, name)

        def recording(M, name=name, original=original):
            calls.append((name, M.rows, M.cols))
            return original(M)

        monkeypatch.setattr(L, name, recording)
    E.j_ideals(C, -1, 5)
    assert [name for name, *_ in calls] == ["kernel_gcds"]
    assert calls[0][2] == 42


def _functions_calling(name):
    """(file, function) for every function of the package, methods and
    inner functions included, that calls ``name`` as f(...) or x.f(...)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and name in (getattr(node.func, "attr", None),
                                 getattr(node.func, "id", None))
                    for node in ast.walk(fn)):
                found.add((path.name, fn.name))
    return sorted(found)


def test_h_and_gamma_read_pivots_not_rank_profiles():
    # the one forward sweep answers with its pivot columns: no module
    # sums them into running rank profiles for a reader to difference
    gone = {"prefix_ranks", "head_prefix_ranks", "_profile", "accumulate"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "attr",
                                 getattr(node.func, "id", None))]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            found += [(path.name, name) for name in names if name in gone]
    assert found == []
    assert _functions_calling("pivot_columns") == [
        ("equivariant.py", "h_invariant")]
    assert _functions_calling("raising_column") == [
        ("equivariant.py", "gamma")]


def test_the_divisibility_chain_is_read_in_one_place():
    # Smith reduction only diagonalizes; the chain is the invariant
    # factors, which homology alone reads, from its differential's Smith
    # form
    assert _functions_calling("invariant_factors") == [
        ("linalg.py", "homology")]
    assert ("linalg.py", "smith_normal_form") not in \
        _functions_calling("divide")
    for helper in ("kernel_basis", "solve_matrix"):
        assert ("linalg.py", "homology") not in _functions_calling(helper)


def test_each_differential_is_reduced_once():
    # homology reads rank and torsion from one Smith form of its one
    # differential, and a plain chain complex is a (generators, matrix)
    # pair, as dtilde and sharp_complex return it: no class holds one
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    homology = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "homology")
    assert [arg.arg for arg in homology.args.args] == ["D"]
    assert sum(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "smith_normal_form"
               for node in ast.walk(homology)) == 1
    classes = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and node.name == "ChainComplex"]
    assert classes == []


def test_certificates_come_from_one_sweep():
    # every box is classified once, in _certificate_table, the one caller
    # that caps _box_counts; solve_k1k2 and the report's one-dimensional
    # moduli read its tables and count no box
    tree = ast.parse((SRC / "knots.py").read_text(encoding="utf-8"))
    capped = sorted({fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "_box_counts"
                     and (len(node.args) > 5 or node.keywords)})
    assert capped == ["_certificate_table"]
    assert _functions_calling("_box_counts") == [
        ("knots.py", "_certificate_table"), ("knots.py", "count_N1N2")]
    assert "_candidate_pairs" not in (SRC / "knots.py").read_text(
        encoding="utf-8")
    assert ("knots.py", "two_bridge_report") not in \
        _functions_calling("solve_k1k2")
    for caller in ("two_bridge_report", "solve_k1k2"):
        assert ("knots.py", caller) not in _functions_calling("count_N1N2")


def test_ring_names_live_in_one_table():
    # a dict literal whose values are ring constants (rings.Z, ZT, ...)
    # is a table of ring names; rings.RING_NAMES is the only one
    constants = {name for name, value in vars(R).items()
                 if isinstance(value, R.Ring)}

    def is_ring(node):
        return (isinstance(node, ast.Attribute) and node.attr in constants
                or isinstance(node, ast.Name) and node.id in constants)

    tables = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict) and any(map(is_ring, node.values)):
                tables.append((path.name, node.lineno))
    assert [name for name, _line in tables] == ["rings.py"]


def test_laurent_poly_is_a_plain_two_slot_value():
    # immutable by convention, like Matrix: no assignment guard, no hash
    # cache, and none of the helpers of the deleted unreachable branches
    assert R.LaurentPoly.__slots__ == ("ring", "_terms")
    assert "__setattr__" not in R.LaurentPoly.__dict__
    for name in ("_cadd", "_cis_unit", "f4_scalar", "_BASES"):
        assert not hasattr(R, name), name


def test_ring_hot_path_has_no_fraction_keys():
    # U-exponents are stored as ints in units of 1/N; products, sums and
    # quotients add plain ints and never build or normalize a Fraction
    for fn in (R.LaurentPoly.__mul__, R.LaurentPoly.__add__,
               R._divide_general, R._kernel_for, R.kernel):
        assert "Fraction" not in inspect.getsource(fn), fn.__name__


def test_specialized_complex_over_qt_has_int_coefficients():
    # integral Q values are ints, so elimination over QT runs on ints
    from scx import knots, scomplex as S
    T1 = knots.fixture("trefoil")
    T2 = S.tensor(T1, T1)
    C = S.base_change_complex(
        T2, S.standard_assignment(T2.ring, R.QT, U="1"), R.QT)
    coefficients = [c for M in (C.d, C.v, C.delta1, C.delta2)
                    for _i, _j, e in M.nonzero_entries()
                    for c in e.terms_dict().values()]
    assert coefficients
    assert {type(c) for c in coefficients} == {int}


def test_laurent_poly_times_int_is_refused_on_the_left():
    # only int * LaurentPoly, through __rmul__, is supported
    t = R.var(R.ZT, "T")
    assert 3 * t == R.monomial(R.ZT, 3, t=1)
    with pytest.raises(TypeError):
        t * 3


def test_parser_builds_polynomials_through_the_constructors():
    # the parser multiplies polynomials made by var, from_int and
    # monomial; it builds no term keys or coefficients of its own
    called = set()
    for node in ast.walk(ast.parse(inspect.getsource(R._Parser))):
        if isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", None)
                       or getattr(node.func, "attr", None))
    assert {"var", "from_int", "monomial"} <= called
    assert not called & {"_cmul", "_trusted", "_cfrom_int", "LaurentPoly"}
    assert not hasattr(R, "_var_key")


def _term_key_unpacks(tree):
    """The lines of ``tree`` that reach into a stored term key (x, n, ts):
    terms read other than through ``slot_terms()``, a ``slot_terms()``
    loop whose key is not one plain name, or a key so named that its
    function unpacks, indexes or iterates.  Copying the terms whole
    (``dict(p.slot_terms())``) and holding a key whole, as a memo key or
    the argument of a ``rings`` helper, are not reaching in."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
                "_terms", "sorted_terms", "terms_dict"):
            lines.append(node.lineno)
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "slot_terms"):
            continue
        loop = parents[node]
        if getattr(getattr(loop, "func", None), "id", None) == "dict":
            continue
        target = getattr(loop, "target", None)
        if not (isinstance(loop, (ast.For, ast.comprehension))
                and isinstance(target, ast.Tuple)
                and all(isinstance(e, ast.Name) for e in target.elts)):
            lines.append(node.lineno)
            continue
        fn = loop
        while not isinstance(fn, (ast.FunctionDef, ast.Module)):
            fn = parents[fn]
        key = target.elts[0].id
        for use in ast.walk(fn):
            if (isinstance(use, ast.Name) and use.id == key
                    and isinstance(use.ctx, ast.Load)):
                up = parents[use]
                if (isinstance(up, ast.Starred)
                        or use in (getattr(up, "value", None),
                                   getattr(up, "iter", None))
                        and not isinstance(up, ast.Call)):
                    lines.append(use.lineno)
    return lines


def test_term_keys_are_unpacked_only_in_rings():
    # the stored key (x, n, ts) of a term has one home: outside rings,
    # linalg's point rank takes each monomial's value from
    # rings.key_at_point and gamma's U-split the U-homogeneous parts from
    # rings.u_split
    found = {path.name: _term_key_unpacks(
                 ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py")) if path.name != "rings.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard sees the unpacks the helpers replaced
    for source in ("def f(e):\n    for (x, n, ts), c in e.slot_terms():\n"
                   "        pass\n",
                   "def f(e, m):\n    for key, c in e.slot_terms():\n"
                   "        x, n, ts = key\n",
                   "def f(e, m):\n    for key, c in e.slot_terms():\n"
                   "        m[key] = key[1]\n",
                   "def f(e):\n    return e.terms_dict()\n"):
        assert _term_key_unpacks(ast.parse(source)), source
    assert not _term_key_unpacks(ast.parse(
        "def f(e, m, p):\n    for key, c in e.slot_terms():\n"
        "        m[key] = m.get(key) or g(key, p)\n"
        "    return dict(e.slot_terms())\n"))


def test_specializations_build_one_ring_map():
    # base change is one homomorphism per assignment: outside rings no
    # module reaches for the per-polynomial base_change, and each
    # specialization builds its map once, for all of its matrices
    refs = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if "base_change" in (getattr(node, "id", None),
                                 getattr(node, "attr", None))]
    assert {name for name, _line in refs} <= {"rings.py"}
    for module, fn in (("scomplex.py", "base_change_complex"),
                       ("equivariant.py", "hat_presentation"),
                       ("equivariant.py", "bn_presentation")):
        builds = _top_level_names_using(
            SRC / module, lambda node: isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "homomorphism")
        assert builds.count(fn) == 1, fn
    # base_change is the map of its polynomial's ring, applied once
    body = ast.parse(inspect.getsource(R.base_change)).body[0].body
    assert len(body) == 2 and isinstance(body[1], ast.Return)
    assert not hasattr(R, "_convert_scalar")
    assert inspect.signature(L.Matrix.map_entries).parameters[
        "target_ring"].default is inspect.Parameter.empty


def test_records_are_named_tuples_not_dataclasses():
    # one record idiom: namedtuple subclasses, so no module pays for
    # dataclasses (and the inspect it loads) at import
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                imports.append((path.name, node.lineno))
    assert imports == []


def test_cli_start_up_loads_no_introspection_modules():
    # every scx process imports scx.cli; none of these belong in it
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, scx.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert "scx.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def _scx_process(*argv):
    """``scx argv`` through ``scx.cli.run`` in a ``python -S`` process:
    its exit code, whether it loaded argparse and gettext, and its
    output."""
    code = ("import io, sys; from scx.cli import run; out = io.StringIO(); "
            "code = run(sys.argv[1:], out); print(code, 'argparse' in "
            "sys.modules, 'gettext' in sys.modules); print(out.getvalue())")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stderr == ""
    status, out = proc.stdout.split("\n", 1)
    return status, out


def test_a_plain_argv_loads_no_argparse():
    # the verb table reads a plain argv; argparse, and the gettext it
    # imports, load only for help texts and usage errors
    status, out = _scx_process("torus", "--p", "3", "--q", "5")
    assert status == "0 False False"
    assert out.startswith("knot\tT(3,5)\nsignature\t-8\n")
    status, out = _scx_process("torus", "--help")
    assert status == "0 True True"
    assert out.startswith("usage: scx torus [-h] [--json] --p P --q Q\n")


def _trajectory():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "tools" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_summary_keeps_median_and_spread():
    T = _trajectory()
    assert T.summarize([3.0, 1.0, 2.0, 10.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 4.75, "min": 1.0, "max": 10.0}
    assert T.summarize([4.0])["q1"] == T.summarize([4.0])["q3"] == 4.0
    runs = [{"workload": "w", "seed": s, "metrics": {"jobs_per_s": v}}
            for s, v in ((1, 400.0), (2, 420.0), (3, 410.0))]
    runs.append({"workload": "w", "seed": 4, "exit": 1})
    summary = T.record(runs, {"jobs_per_s": "1/s", "setup_s": "s"})
    assert summary["w"]["runs"] == 3 and summary["w"]["failed_runs"] == 1
    assert summary["w"]["jobs_per_s"]["median"] == 410.0
    assert summary["w"]["jobs_per_s"]["unit"] == "1/s"
    assert "setup_s" not in summary["w"]
    assert T.src_lines(ROOT) == sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in SRC.glob("*.py"))


def test_trajectory_alternates_parent_and_change(monkeypatch):
    # each seed runs one pair back to back, the parent first on odd
    # seeds, then one layer round per side in the same order; no bench
    # or layer runs, run_once and run_layers are stubs
    T = _trajectory()
    calls = []

    def layer_stub(root):
        calls.append(("layers", root))
        return {"g": float(len(calls))}

    def stub(root, workload, seed):
        calls.append((workload, seed, root))
        speed = {"p": 400.0, "c": 500.0 if seed != 2 else 400.0}[root]
        return 0, {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"jobs_per_s": {"value": speed},
                               "setup_s": {"value": 0.1}}}

    monkeypatch.setattr(T, "run_once", stub)
    monkeypatch.setattr(T, "run_layers", layer_stub)
    runs, rounds = T.measure({"parent": "p", "change": "c"}, ["w", "v"],
                             [1, 2, 3])
    pc, cp = ["p", "c"], ["c", "p"]
    assert calls == [
        step for w in ("w", "v")
        for seed, order in ((1, pc), (2, cp), (3, pc))
        for step in [(w, seed, side) for side in order]
        + [("layers", side) for side in order]]
    # every round is kept, and the median is taken over the rounds
    assert [r["g"] for r in rounds["change"]] == [4.0, 7.0, 12.0,
                                                  16.0, 19.0, 24.0]
    record = T.layers(rounds["change"])
    assert record["rounds"] == rounds["change"]
    assert record["median_s"] == {"g": 14.0}
    assert record["repeat"] == T.LAYER_REPEAT
    assert T.layers([None, {"g": 1.0}])["median_s"] == {"g": 1.0}
    assert T.layers([None])["median_s"] == {}
    # the change ran its round first, and so faster, on seed 2 alone; the
    # parent's rounds read 3, 8, 11, 15, 20 and 23, so the paired ratios
    # are 4/3, 7/8, 12/11, 16/15, 19/20 and 24/23
    assert T.layer_wins(rounds) == {"g": {
        "won": 2, "pairs": 6, "ratio": (24 / 23 + 16 / 15) / 2}}
    # a failed round pairs with nothing, and a tie counts for neither win
    # but its ratio 1 counts in the median
    assert T.layer_wins({"parent": [None, {"g": 2.0}, {"g": 1.0, "f": 1.0}],
                         "change": [{"g": 1.0}, {"g": 1.5}, {"g": 1.0}]}) == {
        "g": {"won": 1, "pairs": 2, "ratio": 0.875}}
    assert [r["side"] for r in runs[:4]] == ["parent", "change",
                                             "change", "parent"]
    # seed 2 ties on jobs_per_s and every seed ties on setup_s
    assert T.wins(runs, {"jobs_per_s": "higher", "setup_s": "lower"}) == {
        w: {"jobs_per_s": {"won": 2, "pairs": 3},
            "setup_s": {"won": 0, "pairs": 3}} for w in ("w", "v")}
    # one checkout alone runs once per seed
    del calls[:]
    runs, rounds = T.measure({"change": "c"}, ["w"], [1, 2])
    assert calls == [("w", 1, "c"), ("layers", "c"), ("w", 2, "c"),
                     ("layers", "c")]
    assert list(rounds) == ["change"] and len(rounds["change"]) == 2
    assert [r["side"] for r in runs] == ["change", "change"]


def test_trajectory_refuses_a_directory_that_is_not_a_checkout(
        tmp_path, monkeypatch, capsys):
    # an exported tree has no commit to record: refused before any run
    T = _trajectory()
    export = tmp_path / "export"
    export.mkdir()
    (export / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")

    def measure(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(T, "measure", measure)
    for flag in ("--parent", "--root"):
        with pytest.raises(SystemExit) as refused:
            T.main(["--n", "999", flag, str(export)])
        assert refused.value.code == 2
        assert (f"{flag} {export} is not the top of a git checkout"
                in capsys.readouterr().err)
    assert not T.is_checkout(str(export / "missing"))
    assert not T.is_checkout(str(ROOT / "tools"))
    if (ROOT / ".git").exists():
        assert T.is_checkout(str(ROOT))


def test_trajectory_layer_microbenchmarks_run():
    # one timed call each, in a fresh process on this checkout's src/
    medians = _trajectory().run_layers(str(ROOT), repeat=1)
    assert sorted(medians) == [
        "cli._dumps.M32", "cli.h.T1", "cli.parse.invariants",
        "cli.process.torus",
        "cli.sharp.T4_qt_twisted", "cli.sharp.tbf2t_47_7", "cli.tensor.M32",
        "equivariant.gamma.T1", "equivariant.gamma.T2",
        "equivariant.gamma.T3", "equivariant.gamma.T4",
        "equivariant.h_invariant.T4", "equivariant.h_invariant.T4_qt",
        "equivariant.j_ideals.T3_qt",
        "equivariant.j_ideals.T4_f2t", "equivariant.j_ideals.T5_f2t",
        "equivariant.j_ideals.tbz_41_3",
        "equivariant.verify_model_equivalence.T2_d5",
        "equivariant.verify_model_equivalence.T3_d3",
        "equivariant.verify_model_equivalence.T4", "linalg.matmul.M32_dd",
        "scomplex.to_dict.M32", "scomplex.validate.M32"]
    assert all(s > 0 for s in medians.values())
