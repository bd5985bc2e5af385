"""Command-line behavior: verbs, exit codes, files, determinism."""

import argparse
import contextlib
import functools
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scx
from scx import cli, equivariant, knots, linalg, rings, scomplex

import helpers


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


def test_two_bridge_unknot():
    # K(1, q) is the unknot: no generators, signature 0
    code, out, err = run(["two-bridge", "--p", "1", "--q", "1"])
    assert (code, err) == (0, "")
    assert "invariant\tsignature_oracle\t0\n" in out
    assert "invariant\th\t0\n" in out


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


def test_gamma_reads_every_level_once_in_ascending_order(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, err = run(["gamma", "--in", str(path), "--k", "3", "--k", "1",
                          "--min", "0", "--max", "2"])
    assert (code, err) == (0, "")
    assert out == ("gamma(0)\t0\ngamma(1)\t1/3\ngamma(2)\tinfinity\n"
                   "gamma(3)\tinfinity\n")
    # the refusal comes before any level is read
    run(["two-bridge", "--p", "3", "--q", "-1", "--ring", "f2t",
         "--out", str(path)])
    code, out, err = run(["gamma", "--in", str(path), "--k", "3", "--k", "1",
                          "--min", "0", "--max", "2"])
    assert (code, out) == (2, "")
    assert err == "refused: Gamma needs the universal ring\n"


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


def test_lone_bounds_reversed_by_a_default_are_usage_errors(tmp_path):
    # the message names the bound the user left to its default, and a
    # reversed range is never an empty answer
    path = tmp_path / "t.json"
    run(["fixture", "--name", "trefoil", "--out", str(path)])
    gamma = ["gamma", "--in", str(path)]
    jideals = ["jideals", "--in", str(path), "--specialize", "U=1",
               "--ring", "f2t"]
    for argv, message in (
            (gamma + ["--max", "-2"], "--max -2 is below the default --min 0"),
            (jideals + ["--max", "-5"], "--max -5 is below the default --min"),
            (jideals + ["--min", "100"],
             "--min 100 is above the default --max")):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: reversed range: {message}\n"
    # a lone bound that the default leaves in order runs
    assert run(jideals + ["--max", "-2"]) == (0, "J[-2]\tring\n", "")
    assert run(gamma + ["--min", "3"]) == (0, "gamma(3)\tinfinity\n", "")


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

    def expected(depth):
        return (f"usage error: truncation {depth} is outside the range "
                f"1..{cli.TRUNCATION_LIMIT}\n")

    for depth in (str(cli.TRUNCATION_LIMIT + 1), "0", "-5"):
        code, out, err = run(["model-check", "--in", str(path),
                              "--truncation", depth])
        assert (code, out, err) == (1, "", expected(depth))
    for depth in (str(cli.TRUNCATION_LIMIT + 1), "0"):
        monkeypatch.setenv("SCX_TRUNCATION", depth)
        code, out, err = run(["model-check", "--in", str(path)])
        assert (code, out, err) == (1, "", expected(depth))
    # an explicit --truncation within the limit wins over the variable
    code, out, _ = run(["model-check", "--in", str(path), "--truncation", "2"])
    assert code == 0 and "truncation\t2" in out


def test_knot_parameters_beyond_the_limit_are_usage_errors():
    lim, pq = cli.KNOT_P_LIMIT, cli.TORUS_PQ_LIMIT
    for argv, message in (
            (["two-bridge", "--p", "10001", "--q", "3", "--ring", "f2t"],
             f"--p 10001 is above the limit {lim}"),
            (["two-bridge", "--p", str(lim + 2), "--q", "3"],
             f"--p {lim + 2} is above the limit {lim}"),
            (["lens", "--p", str(lim + 2), "--q", "2"],
             f"--p {lim + 2} is above the limit {lim}"),
            (["torus", "--p", "1001", "--q", "10001"],
             f"--p times --q 10011001 is above the limit {pq}"),
            (["torus", "--p", "2", "--q", str(pq // 2 + 1)],
             f"--p times --q {pq + 2} is above the limit {pq}")):
        assert run(argv) == (1, "", f"usage error: {message}\n")
    # the limits themselves pass on to the knot checks (these pairs are
    # not coprime, so they are refused there, at once)
    for argv in (["two-bridge", "--p", str(lim), "--q", "7"],
                 ["lens", "--p", str(lim), "--q", "11"],
                 ["torus", "--p", "2", "--q", str(pq // 2)]):
        code, out, err = run(argv)
        assert (code, out) == (2, "") and "are not coprime" in err


def test_two_bridge_report_fields_print_in_record_order():
    C = knots.two_bridge_complex(5, 3)
    fields = list(knots.two_bridge_report(5, 3, C)._asdict())
    assert fields == ["knot", "ring", "generators", "maps", "invariants",
                      "warnings", "notes"]
    code, out, _ = run(["two-bridge", "--p", "5", "--q", "3", "--json"])
    assert code == 0 and list(json.loads(out)["report"]) == fields


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


def test_sharp_prints_what_the_whole_cone_gives(tmp_path):
    # the oracle eliminates all of sharp_complex's cone, where the verb
    # reads dtilde alone in characteristic 2 and one point of F_p in
    # characteristic 0; twisted F2 and untrusted-v inputs are refused
    rng = random.Random(3311)
    f2tx = rings.poly_x(rings.F2T)
    inputs = [helpers.random_scomplex(rng, ring, max_gens=10) for ring in (
        rings.F2T, rings.F4T, f2tx, rings.ZT, rings.QT, rings.F2)
        for _ in range(6)]
    inputs += [knots.two_bridge_complex(p, q, "f2t")
               for p, q in ((7, 3), (9, 2), (13, 5), (17, 5))]
    seen = set()
    for k, C in enumerate(inputs):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(scomplex.to_dict(C)))
        for twisted in (False, True):
            argv = ["sharp", "--in", str(path)] + ["--twisted"] * twisted
            code, out, err = run(argv + ["--json"])
            try:
                gens, D = scomplex.sharp_complex(C, twisted)
            except scomplex.SComplexError as e:
                assert (code, out, err) == (2, "", f"refused: {e}\n")
                assert run(argv) == (code, out, err)
                seen.add("refused")
                continue
            want = {"generators": len(gens), "twisted": twisted}
            table = [f"generators\t{len(gens)}"]
            if twisted or not rings.is_euclidean(C.ring):
                r = len(gens) - 2 * linalg.rank(D)
                want["rank_over_fractions"] = r
                table.append(f"rank_over_fractions\t{r}")
            else:
                H = linalg.homology(D)
                torsion = [t.to_str() for t in H.torsion]
                want.update(free_rank=H.free_rank, torsion=torsion)
                table += [f"free_rank\t{H.free_rank}",
                          "torsion\t" + (", ".join(torsion) or "none")]
                seen.add("torsion" if torsion else "free")
            assert (code, json.loads(out), err) == (0, want, ""), C.ring
            assert run(argv) == (0, "".join(f"{line}\n" for line in table), "")
    assert seen == {"refused", "torsion", "free"}


def test_hat_presentation_over_the_universal_ring(tmp_path):
    # the presentation ring adjoins x to the universal ring of the file
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, err = run(["hat-presentation", "--in", str(path), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["ring"] == {
        "tag": "POLY_X", "inner": {"tag": "UNIV", "denom": 3}}


def test_model_check(tmp_path):
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    code, out, _ = run(["model-check", "--in", str(path),
                        "--truncation", "4"])
    assert code == 0 and "ok\ttrue" in out


def test_model_check_prints_each_failure(monkeypatch):
    # model-check refuses what validate refuses, so the failing complex,
    # the trefoil pair with a delta1 entry bumped, comes in past that gate
    C = scomplex.tensor(knots.two_bridge_complex(3, 1, "zt"),
                        knots.two_bridge_complex(3, -1, "zt"))
    bump = linalg.Matrix.from_entries(C.ring, 1, C.n,
                                      [(0, 3, rings.one(C.ring))])
    C = scomplex.SComplex(C.ring, C.gens, C.d, C.v, C.delta1 + bump,
                          C.delta2, C.v_trusted)
    monkeypatch.setattr(cli, "_input_complex", lambda args: C)
    failures = equivariant.verify_model_equivalence(C, 3).failures
    assert failures
    argv = ["model-check", "--in", "unread.json", "--truncation", "3"]
    code, out, err = run(argv)
    assert (code, err) == (2, "")
    assert out.splitlines() == ["ok\tfalse", "truncation\t3"] + [
        f"failure\t{f}" for f in failures]
    code, out, err = run(argv + ["--json"])
    assert (code, err) == (2, "")
    assert json.loads(out) == {"ok": False, "truncation": 3,
                               "failures": failures}


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


@pytest.mark.parametrize("argv, code, err", [
    (["gamma", "--in", "T1.json"], 1,
     "usage error: gamma needs --k or --min/--max\n"),
    (["h", "--in", "T1.json", "--specialize", "T=1"], 1,
     "usage error: specializations keeping U need an explicit --ring\n"),
    (["jideals", "--in", "T1.json"], 2,
     "refused: ideal sequences over Ring(UNIV) are not computable here\n"),
    (["gamma", "--k", "0", "--in", "ungraded.json"], 2,
     "refused: Gamma needs the instanton grading\n")])
def test_refusals_of_the_invariant_verbs(tmp_path, monkeypatch, argv, code,
                                         err):
    # the trefoil over the universal ring, and with every deg_I null
    monkeypatch.chdir(tmp_path)
    doc = json.loads(Path(_trefoil(tmp_path)).read_text())
    Path("T1.json").write_text(json.dumps(doc))
    doc["generators"] = [{**g, "deg_I": None} for g in doc["generators"]]
    Path("ungraded.json").write_text(json.dumps(doc))
    assert run(argv) == (code, "", err)


def test_a_missing_batch_file_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["batch", "--file", "missing.txt"])
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("usage error: cannot read missing.txt: ")


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


def _package_exceptions():
    """Every Exception subclass defined in a module of the package."""
    found = {}
    for module in (rings, linalg, scomplex, equivariant, knots, cli):
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


def _expected_outcome(cls):
    """(exit code, stderr prefix) that ``cli.run`` gives an exception."""
    if cls is cli._HelpShown:
        return 0, ""
    if issubclass(cls, cli.UsageError):
        return 1, "usage error: "
    if issubclass(cls, (rings.ParseError, scomplex.SchemaError)):
        return 1, "input error: "
    return 2, "refused: "


def test_the_exception_walk_finds_every_family():
    names = {cls.__name__ for cls in _package_exceptions()}
    assert {"UsageError", "ParseError", "SchemaError", "LinalgError",
            "RingMismatchError", "UntrustedVError", "UnsupportedRingError",
            "InconsistentComplexError", "CheckFailedError"} <= names


@pytest.mark.parametrize("cls", _package_exceptions(),
                         ids=lambda cls: cls.__name__)
def test_every_package_exception_has_its_exit_code(tmp_path, monkeypatch,
                                                   cls):
    # usage and input errors exit 1, refusals 2, and none shows a traceback
    path = tmp_path / "t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])

    def failing(C):
        raise cls("the failing relation")

    monkeypatch.setattr(equivariant, "h_invariant", failing)
    code, out, err = run(["h", "--in", str(path)])
    want_code, prefix = _expected_outcome(cls)
    assert (code, out) == (want_code, "")
    assert err == (f"{prefix}the failing relation\n" if code else "")
    assert "Traceback" not in err


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
    # without --out the document goes to stdout
    code, out, err = run(["fixture", "--name", "trefoil"])
    assert (code, err) == (0, "")
    assert out == json.dumps(scomplex.to_dict(knots.fixture("trefoil")),
                             indent=2) + "\n"


def test_specialize_t_to_x_lands_in_f4(tmp_path, monkeypatch):
    path = tmp_path / "trefoil_f2t.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--ring", "f2t",
         "--out", str(path)])
    seen, h_invariant = [], equivariant.h_invariant

    def recording(C):
        seen.append(C.ring)
        return h_invariant(C)

    monkeypatch.setattr(equivariant, "h_invariant", recording)
    code, out, err = run(["h", "--in", str(path), "--specialize", "T=x"])
    assert (code, out, err) == (0, "1\n", "")
    assert seen == [rings.F4]


# ---------------------------------------------------------------------------
# the one front door: parser, input path, refusals


def _trefoil(tmp_path, **changes):
    path = tmp_path / "trefoil.json"
    run(["two-bridge", "--p", "3", "--q", "-1", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["h", "--specialize", "U=1", "--ring", "f2t"],
    ["jideals", "--ring", "f2t"],
    ["gamma", "--k", "1"],
    ["model-check"]])
def test_invariant_verbs_refuse_an_invalid_complex(tmp_path, argv):
    # d*d = 1 != 0: validate rejects the file, so no invariant is defined
    path = _trefoil(tmp_path, d=[["1"]], delta1=["0"])
    code, out, err = run(argv + ["--in", path])
    assert code == 2 and out == ""
    assert err.startswith("refused: not an S-complex: d*d != 0")
    assert err.count("\n") == 1


def test_only_the_invariant_verbs_validate_first(tmp_path):
    # K(13,5) over F2[T^+-1] stores v = 0, which fails the v relation;
    # euler, dual and sharp still read it, h refuses it by that relation
    path = str(tmp_path / "k13.json")
    code, _, _ = run(["two-bridge", "--p", "13", "--q", "5", "--ring", "f2t",
                      "--out", path])
    assert code == 0
    assert run(["validate", "--in", path])[0] == 2
    assert run(["euler", "--in", path])[:2] == (0, "0\n")
    assert run(["dual", "--in", path])[0] == 0
    assert run(["sharp", "--in", path]) == (
        2, "", "refused: cone differential does not square to zero: "
        "d*v - v*d - delta2*delta1 != 0; this complex only assumes v\n")
    code, out, err = run(["h", "--in", path])
    assert (code, out) == (2, "")
    assert err == "refused: not an S-complex: d*v - v*d - delta2*delta1 != 0\n"


def _generator(**changes):
    return [dict({"name": "xi1", "gr_mod4": 1, "deg_I": "1/3",
                  "hol": None}, **changes)]


@pytest.mark.parametrize("changes, prefix", [
    ({"ring": "Z"}, "ring: "),
    ({"ring": {"tag": "UNIV", "denom": "x"}}, "ring: "),
    ({"ring": {"tag": "UNIV", "denom": 1.5}}, "ring: "),
    ({"ring": {"tag": "POLY_X", "inner": "Z"}}, "ring: "),
    ({"ring": {"tag": ["Z"]}}, "ring: "),
    ({"generators": _generator(name=["a"])}, "generators[0].name: "),
    ({"generators": _generator(gr_mod4=True)}, "generators[0].gr_mod4: "),
    ({"generators": _generator(deg_I=["1/3"])}, "generators[0].deg_I: "),
    ({"generators": _generator(deg_I=float("inf"))},
     "generators[0].deg_I: "),
    # Fraction would read the decimal exponent and not finish
    ({"generators": _generator(deg_I="1e30000000")},
     "generators[0].deg_I: "),
    # integers longer than int() converts, as a coefficient and a power
    ({"delta1": ["1" * 5000]}, "delta1[0]: "),
    ({"delta1": ["T^" + "1" * 5000]}, "delta1[0]: ")])
def test_hostile_documents_are_input_errors(tmp_path, changes, prefix):
    path = _trefoil(tmp_path, **changes)
    code, out, err = run(["validate", "--in", path])
    assert (code, out) == (1, "")
    assert err.startswith("input error: " + prefix)
    assert err.count("\n") == 1


def test_json_booleans_and_floats_are_not_levels(tmp_path):
    # Fraction would read true as 1 and 0.1 as a 17-digit rational
    for key in ("deg_I", "hol"):
        for value in (True, False, 0.1, 1e300, 2.0):
            path = _trefoil(tmp_path, generators=_generator(**{key: value}))
            assert run(["validate", "--in", path]) == (
                1, "", f"input error: generators[0].{key}: bad rational "
                f"{value!r}\n")
    # integers and the strings to_dict writes still read
    path = _trefoil(tmp_path)
    for value, level in ((1, 1), ("1", 1), ("-2/3", Fraction(-2, 3))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["generators"] = _generator(deg_I=value, hol=value)
        g = scomplex.from_dict(doc).gens[0]
        assert g.deg_I == g.hol == level


def test_long_refused_levels_are_cut_in_the_message(tmp_path):
    for value in ("7" * 4999 + "x", "1/" + "0" * 5000, list(range(2000))):
        path = _trefoil(tmp_path, generators=_generator(deg_I=value))
        code, out, err = run(["validate", "--in", path])
        assert (code, out) == (1, "")
        assert err.startswith(
            f"input error: generators[0].deg_I: bad rational {repr(value)[:40]}")
        assert f"({len(repr(value))} characters)" in err
        assert len(err) < 200


def test_unreadable_files_are_usage_errors(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path in (binary, deep):
        code, out, err = run(["validate", "--in", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {path} is not JSON: ")
    script = tmp_path / "cmds.txt"
    script.write_text("lens --p 9 --q 2\nh --in 'unclosed\n")
    code, out, err = run(["batch", "--file", str(script)])
    assert code == 1 and "total\t0" in out
    assert err.startswith(f"usage error: {script}: No closing quotation")


def test_an_unwritable_out_is_a_usage_error(tmp_path):
    path = _trefoil(tmp_path)
    argvs = (["fixture", "--name", "trefoil"],
             ["two-bridge", "--p", "3", "--q", "1"],
             ["tensor", "--a", path, "--b", path], ["dual", "--in", path])
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "out.json"):
        for argv in argvs:
            code, out, err = run(argv + ["--out", str(target)])
            assert (code, out) == (1, ""), argv
            assert err.startswith(f"usage error: cannot write {target}: ")
            assert err.count("\n") == 1 and err.endswith("\n"), err


def test_specializing_a_missing_variable_is_a_usage_error(tmp_path):
    path = _trefoil(tmp_path)
    code, out, err = run(["h", "--in", path, "--specialize", "U=1",
                          "--specialize", "t=1"])
    assert (code, out) == (1, "")
    assert err == ("usage error: --specialize t=1: ring UNIV has no "
                   "variable 't' (its variables: U, T)\n")
    # a value that does not parse is named with its argument
    for value, why in (("@", "bad character at '@'"),
                       ("1" * 5000, "integer of 5000 digits is too long")):
        code, out, err = run(["h", "--in", path, "--specialize", "U=1",
                              "--specialize", "T=" + value])
        assert (code, out) == (1, "")
        assert err == f"usage error: --specialize T={value}: {why}\n"
    code, out, _ = run(["h", "--in", path, "--specialize", "U=1",
                        "--specialize", "T=1"])
    assert (code, out) == (0, "0\n")


def test_help_goes_to_out_and_a_batch_goes_on(tmp_path, capsys):
    code, out, err = run(["--help"])
    assert code == 0 and err == "" and out.startswith("usage: scx ")
    code, out, err = run(["h", "--help"])
    assert code == 0 and err == "" and out.startswith("usage: scx h ")
    script = tmp_path / "cmds.txt"
    script.write_text("lens --p 9 --q 2\nh --help\nlens --p 3 --q 1\n")
    code, out, err = run(["batch", "--file", str(script)])
    assert code == 0 and err == ""
    assert "usage: scx h " in out
    assert "lens\tL(9,2)" in out and "lens\tL(3,1)" in out
    assert capsys.readouterr() == ("", "")


def test_scx_help_is_printed_on_stdout():
    src = os.path.dirname(os.path.dirname(os.path.abspath(scx.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "scx.cli", "--help"], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
        timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the description is the first two paragraphs of the cli docstring
    assert proc.stdout.startswith(
        "usage: scx [-h] VERB ...\n\n"
        "Command-line front end. Verbs: two-bridge, lens, torus, fixture,"
        " validate,\ntensor, dual, h, jideals, gamma, euler, sharp,"
        " hat-presentation, bn-\npresentation, model-check, batch. Reports"
        " are TSV tables by default and JSON\nwith ``--json``. Exit status 0"
        " on success, 1 on usage or input errors, 2 on\nvalidation failures"
        " and refused computations.\n\n")


def test_the_parser_is_built_once(tmp_path):
    # the table's view is built once; argparse's parser only for an argv
    # the view does not read, and then once
    path = _trefoil(tmp_path)
    script = tmp_path / "cmds.txt"
    script.write_text("lens --p 9 --q 2\ntorus --p 3 --q 5\n"
                      f"h --in {shlex.quote(path)} --specialize U=1\n")
    cli._verb_view.cache_clear()
    cli._build_parser.cache_clear()
    for argv in (["lens", "--p", "9", "--q", "2"], ["h", "--in", path],
                 ["batch", "--file", str(script)], ["gamma", "--in", path,
                                                    "--k", "1"]):
        assert run(argv)[0] == 0
    assert cli._verb_view.cache_info().misses == 1
    assert cli._build_parser.cache_info().misses == 0
    assert run(["lens", "--help"])[0] == 0
    assert cli._build_parser.cache_info().misses == 1
    assert run(["lens", "--p", "9"])[0] == 1
    assert run(["--help"])[0] == 0
    assert cli._build_parser.cache_info()[:2] == (2, 1)
    assert cli._verb_view.cache_info().misses == 1


def test_values_do_not_leak_between_calls(tmp_path):
    path = _trefoil(tmp_path)
    calls = [["gamma", "--in", path, "--k", "1", "--k", "2"],
             ["gamma", "--in", path, "--k", "0"],
             ["h", "--in", path, "--specialize", "U=1", "--specialize",
              "T=1", "--ring", "q"],
             ["h", "--in", path, "--specialize", "U=1"],
             ["h", "--in", path, "--specialize", "U=1", "--ring", "f2t"],
             ["jideals", "--in", path, "--specialize", "U=1", "--min", "0"],
             ["jideals", "--in", path, "--specialize", "U=1"]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [run(argv) for argv in calls] == fresh
    assert fresh[1] == (0, "gamma(0)\t0\n", "")
    assert fresh[3] == (0, "1\n", "")


# (nargs, const, action) of the three kinds of option scx declares
_FLAG = (0, True, "_StoreTrueAction")
_STORE = (None, None, "_StoreAction")
_APPEND = (None, None, "_AppendAction")
_JSON = {"--json": ("json", False, False, None, None, *_FLAG)}
_IN = {"--in": ("infile", True, None, None, None, *_STORE)}
_SPECIALIZE = {
    "--specialize": ("specialize", False, [], None, None, *_APPEND),
    "--ring": ("ring", False, None, None, None, *_STORE)}
_P_Q = {"--p": ("p", True, None, None, "int", *_STORE),
        "--q": ("q", True, None, None, "int", *_STORE)}
_OUT = {"--out": ("out", False, None, None, None, *_STORE)}
_RANGE = {"--min": ("min", False, None, None, "int", *_STORE),
          "--max": ("max", False, None, None, "int", *_STORE)}
# option -> (dest, required, default, choices, type, nargs, const,
# action) of every verb, in the order scx --help lists them, as recorded
# before each verb was declared in one place
VERB_OPTIONS = {
    "two-bridge": {**_JSON, **_P_Q, **_OUT, "--ring": (
        "ring", False, "universal", None, None, *_STORE)},
    "lens": {**_JSON, **_P_Q},
    "torus": {**_JSON, **_P_Q},
    "fixture": {**_JSON, **_OUT, "--name": (
        "name", True, None, ("trivial", "trefoil", "t34", "t35"), None,
        *_STORE)},
    "validate": {**_JSON, **_IN},
    "tensor": {**_JSON, **_OUT,
               "--a": ("a", True, None, None, None, *_STORE),
               "--b": ("b", True, None, None, None, *_STORE)},
    "dual": {**_JSON, **_IN, **_OUT, "--grading": (
        "grading", False, "reverse", ("reverse",), None, *_STORE)},
    "h": {**_JSON, **_IN, **_SPECIALIZE},
    "euler": {**_JSON, **_IN, **_SPECIALIZE},
    "jideals": {**_JSON, **_IN, **_SPECIALIZE, **_RANGE},
    "gamma": {**_JSON, **_IN, **_RANGE, "--k": (
        "k", False, [], None, "int", *_APPEND)},
    "sharp": {**_JSON, **_IN, **_SPECIALIZE, "--twisted": (
        "twisted", False, False, None, None, *_FLAG)},
    "hat-presentation": {**_JSON, **_IN, **_SPECIALIZE},
    "bn-presentation": {**_JSON, **_IN, **_SPECIALIZE, "--target": (
        "target", False, "bn", ("bn", "sharp"), None, *_STORE)},
    "model-check": {**_JSON, **_IN, "--truncation": (
        "truncation", False, None, None, "int", *_STORE)},
    "batch": {**_JSON,
              "--file": ("file", True, None, None, None, *_STORE)},
}


def _verb_parsers():
    """Each verb's parser in the parser built from cli._VERBS."""
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_verb_keeps_its_options():
    # the parser built from the table, and so each verb's help text
    verbs = _verb_parsers()
    assert list(verbs) == list(VERB_OPTIONS)
    for name, parser in verbs.items():
        options = {}
        for a in parser._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            assert len(a.option_strings) == 1, (name, a.option_strings)
            options[a.option_strings[0]] = (
                a.dest, a.required, a.default,
                tuple(a.choices) if a.choices else None,
                a.type.__name__ if a.type else None, a.nargs, a.const,
                type(a).__name__)
        assert options == VERB_OPTIONS[name], name


def test_every_ring_name_each_verb_accepts(tmp_path):
    # one table of names in rings: the specializing verbs add sbn and
    # two-bridge adds universal; names match in any case
    path = _trefoil(tmp_path)
    top, verbs = cli._build_parser(), _verb_parsers()
    specializing = [name for name, parser in verbs.items()
                    if "--specialize" in parser._option_string_actions]
    assert specializing == ["h", "euler", "jideals", "sharp",
                            "hat-presentation", "bn-presentation"]
    names = {**rings.RING_NAMES, "sbn": rings.S_BN}
    for verb in specializing:
        for name, ring in names.items():
            for spelled in (name, name.upper()):
                args = top.parse_args([verb, "--in", path, "--ring", spelled])
                assert cli._input_complex(args).ring == ring, (verb, spelled)
        assert run([verb, "--in", path, "--ring", "universal"]) == (
            1, "", "usage error: unknown ring 'universal'\n")
    names = {**rings.RING_NAMES, "universal": rings.universal(3)}
    for name, ring in names.items():
        for spelled in (name, name.upper()):
            code, out, err = run(["two-bridge", "--p", "3", "--q", "1",
                                  "--ring", spelled])
            assert code == 0, err
            assert out.splitlines()[1] == f"ring\t{ring.tag}"
    assert run(["two-bridge", "--p", "3", "--q", "1", "--ring", "sbn"]) == (
        2, "", "refused: unknown ring name 'sbn'\n")


# ---------------------------------------------------------------------------
# the plain-argv reader: argparse's reading or nothing


def _bench_argv():
    """Every argv of eight seed-1 decks of each bench workload, from
    bench/jobs.py, which is only read."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import jobs
    finally:
        sys.path.remove(bench)
    argvs = []
    for workload in jobs.WORKLOADS:
        pool = jobs.pool(workload, 1)
        for index in range(8):
            argvs += [job["argv"]
                      for job in jobs.deck(workload, 1, index, pool)]
    return argvs


def _argparse_args(parser, argv):
    """argparse's Namespace of ``argv``, or None when it refuses it or
    shows a help text."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return parser.parse_args(argv)
    except (cli.UsageError, cli._HelpShown):
        return None


class _Workdir:
    """A directory holding the trefoil under every input name of ``argvs``;
    ``outcome`` is what ``scx argv`` gives there, a raised exception
    included.  The files are written afresh before each run that may
    write one, so that both runs of an argv read the same inputs."""

    def __init__(self, path, argvs):
        self.path = path
        self.text = json.dumps(scomplex.to_dict(knots.fixture("trefoil")))
        self.names = sorted({argv[i + 1] for argv in argvs
                             for i, a in enumerate(argv[:-1])
                             if a in ("--in", "--a", "--b")})
        self.restore()

    def restore(self):
        for name in self.names:
            (self.path / name).write_text(self.text)

    def outcome(self, argv):
        # --out, its abbreviations and its =-joined forms begin "--o"
        if any(a[:3] == "--o" for a in argv):
            self.restore()
        try:
            return run(argv)
        except Exception as e:  # the same failure either way
            return type(e).__name__, str(e)


def _same_with_and_without_the_reader(monkeypatch, workdir, argv):
    # the reader returns argparse's attributes or nothing, and scx says
    # the same with it as with argparse alone
    read = cli._read_plain(argv, cli._verb_view())
    if read is not None:
        expected = _argparse_args(_separate_parser(), argv)
        assert expected is not None and vars(read) == vars(expected), argv
    with_reader = workdir.outcome(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_plain", lambda argv, view: None)
        assert workdir.outcome(argv) == with_reader, argv
    return read


_separate_parser = functools.cache(cli._build_parser.__wrapped__)


def test_the_reader_reads_every_bench_argv_as_argparse_does(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = _bench_argv()
    workdir = _Workdir(tmp_path, argvs)
    negative = 0
    for argv in argvs:
        # every one is plain, "--min -2" and the like included
        assert _same_with_and_without_the_reader(
            monkeypatch, workdir, argv) is not None, argv
        negative += any(a[:1] == "-" and a[1:].isdigit() for a in argv)
    assert negative


# values argparse reads in different ways: negative and float-like
# numbers, "-"-leading strings, spaces, choices and other words
_ODD_VALUES = ["-2", "-0", "-17", "-2\n", "-1.5", "-.5", ".5", "1.5", "1e3",
               "0x1", "-", "--", "---", "-x", "-h", "--help", "- 1", "-2 ",
               "", "x", "bn", "sharp", "reverse", "trefoil", "U=1", "7", "0",
               "-\u0663", "-\u00b2"]
_OTHER_VERBS = ["hh", "H", "gam", "help", "", "-h", "--help", "--json"]


def test_the_reader_agrees_with_argparse_on_every_odd_value(tmp_path,
                                                            monkeypatch):
    # each value of one bench argv per verb and set of options, replaced
    # by each odd value: a choice, a type or a "-" that the reader left
    # unchecked would show here
    monkeypatch.chdir(tmp_path)
    argvs = _bench_argv()
    workdir = _Workdir(tmp_path, argvs)
    shapes = {}
    for argv in argvs:
        shapes.setdefault((argv[0], *(a for a in argv if a[:2] == "--")),
                          argv)
    for argv in shapes.values():
        for i in range(2, len(argv)):
            if argv[i - 1][:2] == "--" and argv[i][:2] != "--":
                for value in _ODD_VALUES:
                    _same_with_and_without_the_reader(
                        monkeypatch, workdir, argv[:i] + [value] + argv[i + 1:])


def test_the_reader_agrees_with_argparse_on_mutated_argv(tmp_path,
                                                         monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)
    argvs = _bench_argv()
    workdir = _Workdir(tmp_path, argvs)
    view = cli._verb_view()
    options = sorted({s for verb in view.values() for s in verb[0]})
    # no "/" or NUL, so that an --out file stays in the directory
    tokens = st.one_of(st.sampled_from(_ODD_VALUES + options),
                       st.integers(-200, 200).map(str),
                       st.text(st.characters(blacklist_characters="/\x00"),
                               max_size=3))

    def groups(argv):
        """The tokens after the verb, one list per option and its values."""
        out = []
        for a in argv[1:]:
            if a[:2] == "--" or not out:
                out.append([a])
            else:
                out[-1].append(a)
        return out

    def index(draw, argv, lo=0, extra=0):
        return draw(st.integers(lo, len(argv) - 1 + extra))

    def drop(draw, argv):
        i = index(draw, argv)
        return argv[:i] + argv[i + 1:]

    def cut(draw, argv):
        return argv[:index(draw, argv, extra=1)]

    def repeat(draw, argv):
        return argv + draw(st.sampled_from(groups(argv)))

    def reorder(draw, argv):
        return argv[:1] + sum(draw(st.permutations(groups(argv))), [])

    def abbreviate(draw, argv):
        i = draw(st.sampled_from([i for i, a in enumerate(argv)
                                  if a[:2] == "--" and len(a) > 2]))
        return (argv[:i] + [argv[i][:draw(st.integers(2, len(argv[i]) - 1))]]
                + argv[i + 1:])

    def join(draw, argv):
        i = draw(st.sampled_from([i for i, a in enumerate(argv[:-1])
                                  if a[:2] == "--"]))
        return argv[:i] + [argv[i] + "=" + argv[i + 1]] + argv[i + 2:]

    def replace(draw, argv):
        i = index(draw, argv, lo=1)
        return argv[:i] + [draw(tokens)] + argv[i + 1:]

    def insert(draw, argv):
        i = index(draw, argv, extra=1)
        return argv[:i] + [draw(tokens)] + argv[i:]

    def reverb(draw, argv):
        verb = draw(st.one_of(st.sampled_from(_OTHER_VERBS + list(view)),
                              st.text(max_size=4)))
        return [verb] + argv[1:]

    @st.composite
    def mutated(draw):
        # a bench argv, mutated while it still has a verb and then an
        # option of more than two characters with a value after it
        argv = list(draw(st.sampled_from(argvs)))
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from([drop, cut, repeat, reorder, abbreviate,
                                       join, replace, insert, reverb]))
            if len(argv) >= 3 and argv[1][:2] == "--" and len(argv[1]) > 2:
                argv = op(draw, argv)
        return argv

    @hypothesis.settings(max_examples=400, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(mutated())
    def check(argv):
        _same_with_and_without_the_reader(monkeypatch, workdir, argv)

    check()


def test_the_verb_table_holds_every_verb_and_option():
    view, verbs = cli._verb_view(), _verb_parsers()
    assert list(view) == list(verbs)
    for name, parser in verbs.items():
        assert set(view[name][0]) == (
            set(parser._option_string_actions) - {"-h", "--help"}), name


@pytest.mark.parametrize("keywords", [
    {"nargs": 2}, {"action": "store_const", "const": 1}, {"action": "count"},
    {"type": int, "const": 3}])
def test_the_view_refuses_an_option_it_does_not_model(monkeypatch, keywords):
    monkeypatch.setattr(cli, "_VERBS", cli._VERBS + (
        ("odd", cli._cmd_lens, "an odd verb", False,
         (("--odd", keywords),)),))
    cli._verb_view.cache_clear()
    try:
        with pytest.raises(ValueError, match="--odd"):
            cli._verb_view()
    finally:
        cli._verb_view.cache_clear()


# ---------------------------------------------------------------------------
# one read per input: the prepared complexes a process keeps


def _trefoil_squared(tmp_path):
    t1 = _trefoil(tmp_path)
    t2 = str(tmp_path / "t2.json")
    assert run(["tensor", "--a", t1, "--b", t1, "--out", t2])[0] == 0
    return t1, t2


def _reading_verbs(t1, t2):
    """One call of every verb that reads a complex file."""
    return [["validate", "--in", t2], ["dual", "--in", t2],
            ["tensor", "--a", t1, "--b", t2], ["h", "--in", t2],
            ["h", "--in", t2, "--specialize", "U=1"],
            ["euler", "--in", t2, "--json"],
            ["jideals", "--in", t2, "--specialize", "U=1", "--ring", "f2t"],
            ["gamma", "--in", t2, "--min", "-1", "--max", "2"],
            ["sharp", "--in", t2],
            ["sharp", "--in", t2, "--specialize", "U=1", "--ring", "f2t"],
            ["sharp", "--in", t2, "--twisted", "--specialize", "U=1",
             "--ring", "qt"],
            ["hat-presentation", "--in", t1],
            ["bn-presentation", "--in", t1, "--specialize", "U=1",
             "--ring", "f2t"],
            ["model-check", "--in", t2, "--truncation", "2"]]


def _text(path):
    return Path(path).read_text()


def _count_reads(monkeypatch):
    """The list that the scomplex functions of reading an input append
    their names to when called."""
    reads = []
    for name in ("from_dict", "validate", "base_change_complex"):
        def counted(*a, _f=getattr(scomplex, name), _name=name, **kw):
            reads.append(_name)
            return _f(*a, **kw)
        monkeypatch.setattr(scomplex, name, counted)
    return reads


def test_a_kept_input_answers_as_a_fresh_read(tmp_path, monkeypatch):
    t1, t2 = _trefoil_squared(tmp_path)
    reads = _count_reads(monkeypatch)
    for argv in _reading_verbs(t1, t2):
        cli._inputs.clear()
        fresh = run(argv)
        assert fresh[0] == 0, (argv, fresh)
        del reads[:]
        assert run(argv) == fresh, argv
        # the second call parses, checks and specializes nothing again;
        # the validate verb still validates what it read
        assert reads == (["validate"] if argv[0] == "validate" else []), argv


def test_each_text_is_parsed_once_whatever_the_options(tmp_path,
                                                       monkeypatch):
    t1, t2 = _trefoil_squared(tmp_path)
    reads = _count_reads(monkeypatch)
    cli._inputs.clear()
    for argv in _reading_verbs(t1, t2):
        assert run(argv)[0] == 0, argv
    # one parse of each of the two texts; t2 validated once for the
    # checking verbs (h, jideals, gamma, model-check) besides the
    # validation of the validate verb itself; one base change per (text,
    # --specialize, --ring)
    assert reads.count("from_dict") == 2
    assert reads.count("validate") == 2
    assert reads.count("base_change_complex") == 4
    # a ring name in capitals is the same ring
    del reads[:]
    assert run(["jideals", "--in", t2, "--specialize", "U=1",
                "--ring", "F2T"])[0] == 0
    assert reads == []


def test_a_rewritten_file_is_read_again(tmp_path):
    t1, t2 = _trefoil_squared(tmp_path)
    path = tmp_path / "k.json"
    for source, h in ((t1, "1\n"), (t2, "2\n"), (t1, "1\n")):
        path.write_text(Path(source).read_text())
        assert run(["h", "--in", str(path)]) == (0, h, "")


def test_refusals_are_not_kept(tmp_path):
    t1 = _trefoil(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    (tmp_path / "invalid").mkdir()
    invalid = _trefoil(tmp_path / "invalid", d=[["1"]], delta1=["0"])
    cases = [(["h", "--in", str(broken)], 1, f"usage error: {broken} is not "
              "JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)\n"),
             (["h", "--in", invalid], 2,
              "refused: not an S-complex: d*d != 0; "),
             (["h", "--in", t1, "--specialize", "U=0", "--ring", "qt"], 1,
              "usage error: --specialize U=0: cannot raise non-monomial to "
              "fractional power 1/3\n")]
    cli._inputs.clear()
    for argv, code, err in cases:
        first = run(argv)
        assert run(argv) == first
        assert first[:2] == (code, "") and first[2].startswith(err), first
    # the two files that parse are kept parsed, and the trefoil's pass of
    # validate; no refused validation and no refused specialization is
    assert list(cli._inputs) == [_text(invalid), _text(t1),
                                 (_text(t1), "checked")]


def test_verbs_leave_kept_complexes_unchanged(tmp_path):
    # the kept complexes are shared: no verb may change one in place
    t1, t2 = _trefoil_squared(tmp_path)
    cli._inputs.clear()
    for argv in _reading_verbs(t1, t2):
        assert run(argv)[0] == 0, argv
    kept = dict(cli._inputs)
    paths = {_text(p): p for p in (t1, t2)}
    specialized = [key for key in kept
                   if isinstance(key, tuple) and key[1] != "checked"]
    assert set(kept) == {*paths, (_text(t2), "checked"), *specialized}
    assert len(specialized) == 4
    for text, path in paths.items():
        C = kept[text][0]
        assert scomplex.to_dict(C) == json.loads(Path(path).read_text())
    cli._inputs.clear()
    for text, specialize, ring in specialized:
        C = kept[text, specialize, ring][0]
        again = cli._load_complex(paths[text], False, specialize, ring)
        assert again is not C
        assert scomplex.to_dict(C) == scomplex.to_dict(again)
        assert C.gens == again.gens


def _numbered_files(tmp_path, count):
    """``count`` files of the trefoil, each with its own generator name."""
    doc = json.loads(Path(_trefoil(tmp_path)).read_text())
    paths = []
    for i in range(count):
        doc["generators"][0]["name"] = f"g{i}"
        paths.append(tmp_path / f"g{i}.json")
        paths[-1].write_text(json.dumps(doc))
    return [str(p) for p in paths]


def test_the_kept_inputs_stay_within_their_count(tmp_path):
    paths = _numbered_files(tmp_path, cli.INPUT_MEMO_LIMIT + 5)
    cli._inputs.clear()
    for path in paths[:cli.INPUT_MEMO_LIMIT]:
        assert run(["euler", "--in", path]) == (0, "-1\n", "")
    # a hit makes g0 the most recently used, so g1 to g5 go first
    assert run(["euler", "--in", paths[0]]) == (0, "-1\n", "")
    for path in paths[cli.INPUT_MEMO_LIMIT:]:
        assert run(["euler", "--in", path]) == (0, "-1\n", "")
    assert list(cli._inputs) == [_text(p) for p in
                                 paths[6:cli.INPUT_MEMO_LIMIT] + [paths[0]]
                                 + paths[cli.INPUT_MEMO_LIMIT:]]


def test_the_kept_inputs_stay_within_their_size(tmp_path, monkeypatch):
    paths = _numbered_files(tmp_path, 5)
    size = len(Path(paths[0]).read_text())
    monkeypatch.setattr(cli, "INPUT_MEMO_CHARS", 3 * size)
    cli._inputs.clear()
    for path in paths:
        assert run(["euler", "--in", path]) == (0, "-1\n", "")
    assert list(cli._inputs) == [_text(p) for p in paths[2:]]
    # a specialization weighs as much as a parse; a validate mark nothing
    assert run(["h", "--in", paths[4], "--specialize", "U=1"]) == (
        0, "1\n", "")
    assert list(cli._inputs) == [
        _text(paths[3]), _text(paths[4]), (_text(paths[4]), "checked"),
        (_text(paths[4]), ("U=1",), None)]
    # an input larger than the whole table is not kept
    monkeypatch.setattr(cli, "INPUT_MEMO_CHARS", size - 1)
    cli._inputs.clear()
    assert run(["euler", "--in", paths[0]]) == (0, "-1\n", "")
    assert not cli._inputs


def test_specialize_refusals_name_their_argument(tmp_path):
    path = _trefoil(tmp_path)
    for argv, why in (
            (["--specialize", "U=0", "--ring", "qt"],
             "--specialize U=0: cannot raise non-monomial to fractional "
             "power 1/3"),
            (["--specialize", "U=2", "--ring", "qt"],
             "--specialize U=2: fractional power of monomial with "
             "coefficient 2"),
            (["--specialize", "U=T", "--ring", "qt"],
             "--specialize U=T: fractional power leaves T-exponent 1/3"),
            (["--specialize", "U=1", "--specialize", "T=2", "--ring", "z"],
             "--specialize T=2: 2 is not a unit")):
        assert run(["h", "--in", path] + argv) == (
            1, "", f"usage error: {why}\n")
