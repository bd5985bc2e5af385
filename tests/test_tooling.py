"""Guards for readers of ``Matrix`` outside the algorithms: no module of
``src/scx`` reads the dense ``.data`` view, and the benchmark's traced
product counter, which does read it, still counts what it did."""

import ast
import pathlib
import random
import sys

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


def test_complexes_are_read_through_one_input_path():
    # every verb reading --in goes through _input_complex, which loads,
    # validates and specializes; tensor alone loads its two operands
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    callers = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            callers += [fn.name for node in ast.walk(fn)
                        if isinstance(node, ast.Name)
                        and node.id == "_load_complex"]
    assert sorted(callers) == ["_cmd_tensor", "_cmd_tensor", "_input_complex"]
    # and nothing else in the package reaches for it
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            assert "_load_complex" not in path.read_text(encoding="utf-8")
