"""The CLI's JSON writer against ``json.dumps(obj, indent=2)``: every
``--json`` report and ``--out`` file must be byte-identical to it; and
``scomplex.to_dict``, which prints each distinct polynomial once,
against a writer that prints every cell."""

import io
import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scx import cli, knots, rings, scomplex  # noqa: E402

import helpers  # noqa: E402

# deterministic, and no example database left in the working directory
PROPERTY = settings(max_examples=120, deadline=None, database=None,
                    derandomize=True)

# quotes, backslashes, control characters and non-ASCII text, the BMP
# and beyond
TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f'
                                    "é€ \U0001f600"))
INTS = st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40))
PLAIN = st.one_of(st.none(), st.booleans(), INTS, TEXT)


def plain_trees():
    """Values the writer builds itself: str-keyed dicts, lists and
    tuples of str, int, bool and None, empty containers included."""
    return st.recursive(PLAIN, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(TEXT, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4)), max_leaves=20)


def any_trees():
    """Plain trees with floats and dicts of non-str keys mixed in, which
    the writer leaves to json.dumps."""
    keys = st.one_of(TEXT, INTS, st.floats(), st.booleans(), st.none())
    return st.recursive(st.one_of(PLAIN, st.floats()), lambda inner:
                        st.one_of(st.lists(inner, max_size=4),
                                  st.dictionaries(keys, inner, max_size=4)),
                        max_leaves=20)


@PROPERTY
@given(plain_trees())
def test_plain_trees_are_written_without_json_dumps(obj):
    assert cli._indented(obj, "\n") == json.dumps(obj, indent=2)


@PROPERTY
@given(any_trees())
def test_every_tree_is_written_as_json_dumps_writes_it(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_floats_and_non_str_keys_go_to_json_dumps():
    for obj in ([1, 2.5], {"a": {1: "b"}}, {None: [True]}, [float("nan")],
                {"t": (1, [2.0])}):
        with pytest.raises(TypeError):
            cli._indented(obj, "\n")
        assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_complex_files_are_written_as_json_dumps_writes_them():
    docs = []
    for seed in range(12):
        rng = random.Random(seed)
        for ring in (rings.universal(3), rings.ZT, rings.F2T, rings.QT):
            docs.append(scomplex.to_dict(helpers.random_scomplex(rng, ring)))
    for doc in docs:
        assert cli._indented(doc, "\n") == json.dumps(doc, indent=2)


def _trefoil_products():
    """T1-T4, the trefoil and its tensor powers, and M32 = T3 (x) dual(T2)."""
    T1 = knots.fixture("trefoil")
    T2 = scomplex.tensor(T1, T1)
    T3 = scomplex.tensor(T2, T1)
    return {"T1": T1, "T2": T2, "T3": T3, "T4": scomplex.tensor(T2, T2),
            "M32": scomplex.tensor(T3, scomplex.dual(T2))}


def test_to_dict_equals_the_per_cell_writer():
    # one string per distinct polynomial writes the same document as a
    # to_str per cell, on every ring and on the trefoil products
    complexes = list(_trefoil_products().values())
    for seed in range(8):
        rng = random.Random(seed)
        for ring in (rings.universal(3), rings.ZT, rings.F2T, rings.F4T,
                     rings.QT):
            complexes.append(helpers.random_scomplex(rng, ring))
    for C in complexes:
        doc = scomplex.to_dict(C)
        assert doc == helpers.reference_to_dict(C)
        assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_to_dict_prints_each_distinct_polynomial_once(monkeypatch):
    M32 = _trefoil_products()["M32"]
    entries = [e for M in (M32.d, M32.v, M32.delta1, M32.delta2)
               for _i, _j, e in M.nonzero_entries()]
    printed = []
    to_str = rings.LaurentPoly.to_str

    def counted(self):
        printed.append(self)
        return to_str(self)

    monkeypatch.setattr(rings.LaurentPoly, "to_str", counted)
    scomplex.to_dict(M32)
    assert len(printed) == len(set(entries)) < len(entries)
    assert set(printed) == set(entries)


@pytest.mark.parametrize("bad", ['a"b', "\\", "\n", "\x7f", "é",
                                 "\U0001f600"])
def test_a_row_with_one_escaped_cell_is_quoted_cell_by_cell(bad):
    # the one-join quoting of a row holds only when no cell needs an
    # escape; one such cell among clean ones must still be escaped
    for row in ([bad], [bad, "0", "T"], ["0", bad, "U^2*T"], ["0", "1", bad]):
        for obj in (row, [row, ["0", "0"]], {"d": [["0"], row], "n": 1}):
            assert cli._indented(obj, "\n") == json.dumps(obj, indent=2)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_cli_reports_and_out_files_are_json_dumps_text(tmp_path):
    trefoil = tmp_path / "t1.json"
    _run(["fixture", "--name", "trefoil", "--out", str(trefoil)])
    square, mirror = tmp_path / "t2.json", tmp_path / "d2.json"
    _run(["tensor", "--a", str(trefoil), "--b", str(trefoil),
          "--out", str(square)])
    _run(["dual", "--in", str(square), "--out", str(mirror)])
    tb = tmp_path / "tb.json"
    texts = [_run(["two-bridge", "--p", "13", "--q", "5", "--json"]),
             _run(["two-bridge", "--p", "7", "--q", "-3", "--ring", "f2t",
                   "--out", str(tb), "--json"]),
             _run(["torus", "--p", "3", "--q", "7", "--json"])]
    texts += [path.read_text(encoding="utf-8")
              for path in (trefoil, square, mirror, tb)]
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    # the two-bridge report holds its map entries as tuples
    doc = json.loads(texts[0])
    assert doc["report"]["maps"]["d"]["entries"]
