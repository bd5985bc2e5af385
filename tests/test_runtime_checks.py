"""Runtime checks in ``src/scx`` are real exceptions, so that ``python -O``
cannot remove them, and none of them is an ``AssertionError``."""

import ast
import pathlib

import pytest

from scx import knots as K

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scx"

# (file, enclosing function) of every assert statement still allowed.
ALLOWED_ASSERTS = set()


def _asserts(path):
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((path.name, func))
            name = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_listed_asserts_remain():
    found = [a for path in sorted(SRC.glob("*.py")) for a in _asserts(path)]
    assert sorted(set(found)) == sorted(ALLOWED_ASSERTS)
    assert len(found) == len(ALLOWED_ASSERTS)


def test_no_explicit_assertion_errors():
    # a failed internal check is a refusal the command line reports, not
    # an AssertionError that escapes it as a traceback
    raised = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                raised.append((path.name, node.lineno))
    assert raised == []


def test_closed_form_mismatch_is_refused():
    with pytest.raises(K.CheckFailedError, match="T\\(3,5\\)"):
        K._check_closed_form("signature", 3, 5, -8, -6)
    K._check_closed_form("signature", 3, 5, -8, -8)
