"""Command-line behavior: verbs, exit codes, files, determinism."""

import io
import json
import os
import shlex
import subprocess
import sys

import pytest

import scx
from scx import cli, equivariant, linalg, rings


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_two_bridge_writes_golden_file(tmp_path):
    path = tmp_path / "trefoil.json"
    code, out, err = run(["two-bridge", "--p", "3", "--q", "-1",
                          "--ring", "universal", "--out", str(path)])
    assert code == 0, err
    doc = json.loads(path.read_text())
    assert len(doc["generators"]) == 1
    g = doc["generators"][0]
    assert g["gr_mod4"] == 1 and g["deg_I"] == "1/3"
    assert doc["delta1"] == ["U^{1/3}*T^2 - U^{1/3}*T^-2"]
    assert doc["d"] == [["0"]] and doc["v"] == [["0"]]
    assert doc["delta2"] == ["0"]
    assert doc["v_trusted"] is True
    # table report on stdout
    assert "xi1\t1\t1/3" in out


def test_h_specialize_u_one(tmp_path):
    path = tmp_path / "trefoil.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["h", "--in", str(path), "--specialize", "U=1"])
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(["h", "--in", str(path), "--specialize", "U=1",
                        "--ring", "f2t"])
    assert code == 0 and out.strip() == "1"


def test_torus_table():
    code, out, _ = run(["torus", "--p", "3", "--q", "5"])
    assert code == 0
    assert "signature\t-8" in out
    assert "alexander_norm\t7" in out
    assert "vanishing\tfalse" in out


def test_torus_alexander_of_a_long_quotient():
    # the Alexander division has a 1196-term quotient
    sympy = pytest.importorskip("sympy")
    p, q = 3, 601
    code, out, err = run(["torus", "--p", str(p), "--q", str(q)])
    assert code == 0, err
    fields = dict(line.split("\t") for line in out.splitlines())
    T = sympy.Symbol("T")
    half = (p - 1) * (q - 1) // 2
    delta = rings.parse(rings.ZT, fields["alexander"])
    # delta * T^half as an ordinary polynomial
    lifted = sympy.Poly.from_dict(
        {(ts[0] + half,): c for (_x, _u, ts), c in delta.terms_dict().items()},
        T)
    assert lifted * sympy.Poly(T ** p - 1, T) * sympy.Poly(T ** q - 1, T) \
        == sympy.Poly((T ** (p * q) - 1) * (T - 1), T)


def test_torus_json():
    code, out, _ = run(["torus", "--p", "3", "--q", "5", "--json"])
    doc = json.loads(out)
    assert doc["signature"] == -8 and doc["alexander_norm"] == 7


def test_lens_total_rank():
    code, out, _ = run(["lens", "--p", "9", "--q", "2"])
    assert code == 0 and "total\t0" in out


def test_gamma_values(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["gamma", "--in", str(path), "--min", "0",
                        "--max", "2"])
    assert code == 0
    assert "gamma(0)\t0" in out
    assert "gamma(1)\t1/3" in out
    assert "gamma(2)\tinfinity" in out


def test_jideals(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["jideals", "--in", str(path),
                        "--specialize", "U=1", "--min", "-1", "--max", "2"])
    assert code == 0
    assert "J[2]\t0" in out
    assert "J[1]\tT^4 - 1" in out
    assert "J[0]\tring" in out


def test_reversed_ranges_are_usage_errors(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    for verb, extra in (("jideals", ["--specialize", "U=1"]), ("gamma", [])):
        code, out, err = run([verb, "--in", str(path), "--min", "3",
                              "--max", "1"] + extra)
        assert code == 1 and out == ""
        assert err == "usage error: reversed range: --min 3 is above --max 1\n"
    # a one-point range is not reversed
    code, out, _ = run(["gamma", "--in", str(path), "--min", "1",
                        "--max", "1"])
    assert code == 0 and out == "gamma(1)\t1/3\n"


def test_ranges_beyond_the_limit_are_usage_errors(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    lim = cli.RANGE_LIMIT
    limit = f"is outside the range limit -{lim}..{lim}\n"
    for verb, flag, extra in (("gamma", "--k", []), ("gamma", "--min", []),
                              ("gamma", "--max", []),
                              ("jideals", "--min", ["--specialize", "U=1"]),
                              ("jideals", "--max", ["--specialize", "U=1"])):
        for value in (-lim - 1, lim + 1, -100000):
            code, out, err = run([verb, "--in", str(path), flag, str(value)]
                                 + extra)
            assert code == 1 and out == ""
            assert err == f"usage error: {flag} {value} " + limit
    # refused before the input is read
    code, _, err = run(["gamma", "--in", str(tmp_path / "missing.json"),
                        "--k", "-100000"])
    assert code == 1 and err == "usage error: --k -100000 " + limit
    # the limits themselves are accepted
    code, out, _ = run(["gamma", "--in", str(path), "--k", str(-lim),
                        "--k", str(lim)])
    assert code == 0 and out == f"gamma({-lim})\t0\ngamma({lim})\tinfinity\n"
    code, out, _ = run(["jideals", "--in", str(path), "--specialize", "U=1",
                        "--min", str(lim), "--max", str(lim)])
    assert code == 0 and out == f"J[{lim}]\t0\n"


def test_truncation_beyond_the_limit_is_a_usage_error(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    deep = str(cli.TRUNCATION_LIMIT + 1)
    expected = (f"usage error: truncation {deep} is above the limit "
                f"{cli.TRUNCATION_LIMIT}\n")
    code, out, err = run(["model-check", "--in", str(path),
                          "--truncation", deep])
    assert (code, out, err) == (1, "", expected)
    monkeypatch.setenv("SCX_TRUNCATION", deep)
    code, out, err = run(["model-check", "--in", str(path)])
    assert (code, out, err) == (1, "", expected)
    # an explicit --truncation within the limit wins over the variable
    code, out, _ = run(["model-check", "--in", str(path), "--truncation", "2"])
    assert code == 0 and "truncation\t2" in out


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(scx.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "scx.cli",
         "torus", "--p", "3", "--q", "5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "signature\t-8" in proc.stdout


def test_euler_sharp_and_presentations(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["euler", "--in", str(path)])
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(["sharp", "--in", str(path), "--twisted",
                        "--specialize", "U=1", "--ring", "qt"])
    assert code == 0 and "rank_over_fractions\t2" in out
    code, out, _ = run(["sharp", "--in", str(path),
                        "--specialize", "U=1", "--ring", "q"])
    assert code == 0 and "free_rank\t4" in out
    code, out, _ = run(["bn-presentation", "--in", str(path),
                        "--specialize", "U=1", "--ring", "f2t"])
    assert code == 0
    assert "T1*T2*T3" in out and "T1^2 + T1^-2" in out


def test_model_check(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["model-check", "--in", str(path),
                        "--truncation", "4"])
    assert code == 0 and "ok\ttrue" in out


def test_model_check_env_truncation(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    monkeypatch.setenv("SCX_TRUNCATION", "2")
    code, out, _ = run(["model-check", "--in", str(path)])
    assert code == 0 and "truncation\t2" in out


def test_model_check_bad_env_truncation_is_a_usage_error(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    monkeypatch.setenv("SCX_TRUNCATION", "deep")
    code, _, err = run(["model-check", "--in", str(path)])
    assert code == 1
    assert "usage error" in err and "SCX_TRUNCATION" in err
    # an explicit --truncation and the other verbs never read it
    code, out, _ = run(["model-check", "--in", str(path),
                        "--truncation", "2"])
    assert code == 0 and "truncation\t2" in out
    code, out, _ = run(["torus", "--p", "3", "--q", "5"])
    assert code == 0 and "signature\t-8" in out


def test_validate_broken_complex_exit_2(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["d"] = [["1"]]
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", "--in", str(path)])
    assert code == 2
    assert "ok\tfalse" in out


def test_usage_and_input_errors(tmp_path):
    code, _, err = run(["no-such-verb"])
    assert code == 1 and "usage error" in err
    code, _, err = run([])
    assert code == 1
    code, _, err = run(["h", "--in", str(tmp_path / "missing.json")])
    assert code == 1 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{\"ring\": {\"tag\": \"UNIV\", \"denom\": 3}}")
    code, _, err = run(["h", "--in", str(bad)])
    assert code == 1 and "input error" in err


def test_bad_entries_in_a_file_are_input_errors(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    doc = json.loads(path.read_text())
    for entry in ("U^{1/0}*T^2 - U^{1/3}*T^-2",
                  "U^{1/3}*T^{1/2} - U^{1/3}*T^-2",
                  "(" * 3000 + "U^{1/3}*T^2" + ")" * 3000):
        doc["delta1"] = [entry]
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", "--in", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("input error: delta1[0]: ")
        assert "Traceback" not in err


def test_linalg_error_is_a_refusal(tmp_path, monkeypatch):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])

    def failing(C, method="search"):
        raise linalg.LinalgError("Smith form rank disagrees")

    monkeypatch.setattr(equivariant, "h_invariant", failing)
    code, out, err = run(["h", "--in", str(path)])
    assert code == 2 and out == ""
    assert err == "refused: Smith form rank disagrees\n"


def test_refused_computation_exit_2(tmp_path):
    path = tmp_path / "k5.json"
    code, _, _ = run(["two-bridge", "--p", "5", "--q", "-1",
                      "--out", str(path)])
    assert code == 0
    code, _, err = run(["h", "--in", str(path), "--specialize", "U=1"])
    assert code == 2 and "refused" in err


def test_dual_and_tensor_round_trip(tmp_path):
    a = tmp_path / "a.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(a)])
    dd = tmp_path / "dd.json"
    code, _, _ = run(["dual", "--in", str(a), "--out", str(dd)])
    assert code == 0
    t = tmp_path / "t.json"
    code, _, _ = run(["tensor", "--a", str(a), "--b", str(a),
                      "--out", str(t)])
    assert code == 0
    doc = json.loads(t.read_text())
    assert len(doc["generators"]) == 4
    code, out, _ = run(["validate", "--in", str(t)])
    assert code == 0


def test_determinism_byte_identical(tmp_path):
    outputs = []
    for k in range(2):
        path = tmp_path / f"run{k}.json"
        code, out, _ = run(["two-bridge", "--p", "7", "--q", "3",
                            "--out", str(path), "--json"])
        assert code == 0
        outputs.append((out, path.read_text()))
    assert outputs[0] == outputs[1]


def test_batch_mode(tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "torus --p 3 --q 5\n"
        "# a comment\n"
        "lens --p 9 --q 2\n")
    code, out, _ = run(["batch", "--file", str(script)])
    assert code == 0
    assert "### torus --p 3 --q 5" in out
    assert "signature\t-8" in out and "total\t0" in out


def test_batch_running_itself_stops_at_the_nesting_limit(tmp_path):
    script = tmp_path / "loop.txt"
    script.write_text("lens --p 9 --q 2\n"
                      f"batch --file {shlex.quote(str(script))}\n")
    code, out, err = run(["batch", "--file", str(script)])
    assert code == 1
    assert "usage error" in err and "nest" in err
    assert out.count("total\t0") == cli.BATCH_NESTING_LIMIT


def test_fixture_verb(tmp_path):
    path = tmp_path / "t35.json"
    code, _, _ = run(["fixture", "--name", "t35", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["generators"]) == 4
    assert doc["delta1"] == ["1", "-1", "0", "0"]
