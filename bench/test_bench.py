"""Tests of the benchmark's own logic: the tail rule, self times, the
tracer and the answer oracles.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import jobs
import oracles
import stats
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


# ---------------------------------------------------------------------------
# percentile rule


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100, 0, -1))
    value, pct, n = stats.tail(values)
    assert n == 100
    assert sum(1 for v in values if v > value) == 10
    assert pct == 90.0


def test_tail_of_eleven_samples_is_the_minimum():
    value, pct, n = stats.tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# ---------------------------------------------------------------------------
# self times


def _trace(spans, job=0):
    """spans: (name, parent, start, end) tuples."""
    t = tracing.Trace()
    for name, parent, start, end in spans:
        t.name.append(name)
        t.parent.append(parent)
        t.job.append(job)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_subtracts_the_children():
    t = _trace([("cli.run", -1, 0, 100), ("linalg.matmul", 0, 10, 40),
                ("rings.mul", 1, 20, 30), ("rings.add", 0, 50, 90)])
    own = tracing.self_times(t.parent, t.start, t.end)
    assert own == [30, 20, 10, 40]
    assert sum(own) == 100


def test_layer_self_times_and_untraced_time_add_up_to_the_wall():
    t = _trace([("cli.import", -1, 5, 25), ("cli.run", -1, 30, 110),
                ("rings.mul", 1, 40, 70)])
    assert tracing.check_spans(t, {0: (0, 120)}) == []
    metrics = tracing.layer_metrics(t, {0: (0, 120)}, 0, 1.0)
    assert metrics["rings.mul.self_s"] == pytest.approx(30e-9)
    assert metrics["cli.run.self_s"] == pytest.approx(50e-9)
    assert metrics["cli.import_s"] == pytest.approx(20e-9)
    assert metrics["cli.process_s"] == pytest.approx(20e-9)
    shares = sum(metrics[m + ".self_share"] for m in tracing.MODULES)
    assert shares + metrics["untraced.share"] == pytest.approx(1.0)


def test_span_check_rejects_a_child_outside_its_parent():
    t = _trace([("cli.run", -1, 0, 50), ("rings.mul", 0, 40, 60)])
    assert len(tracing.check_spans(t, {0: (0, 100)})) == 1


def test_span_check_rejects_overlapping_siblings():
    t = _trace([("cli.run", -1, 0, 100), ("linalg.matmul", 0, 10, 40),
                ("rings.mul", 0, 30, 50)])
    [problem] = tracing.check_spans(t, {0: (0, 100)})
    assert "overlap" in problem


def test_span_check_rejects_overlapping_root_spans_of_a_job():
    t = _trace([("cli.import", -1, 0, 30), ("cli.run", -1, 20, 90)])
    [problem] = tracing.check_spans(t, {0: (0, 100)})
    assert "overlap" in problem
    # the same spans in two different jobs are fine
    t.job[1] = 1
    assert tracing.check_spans(t, {0: (0, 100), 1: (0, 100)}) == []


def test_span_check_rejects_root_spans_outside_any_timed_job():
    t = _trace([("cli.run", -1, 0, 150)])
    assert "outside" in tracing.check_spans(t, {0: (0, 100)})[0]
    assert "no timed job" in tracing.check_spans(t, {1: (0, 200)})[0]


def test_counters_are_recorded_inside_their_span():
    tracer = tracing.Tracer()
    seen = []

    def after(tr, args, result):
        seen.append(tr.end[0])       # still open: end is filled at close
        tr.add("n", result)

    tracer.wrap("rings.add", lambda x: x + 1, after)(1)
    assert seen == [0]
    assert tracer.counters == {"n": 2}
    assert tracer.end[0] >= tracer.start[0]


def test_gamma_kernel_calls_counts_kernels_under_gamma_only():
    t = _trace([("cli.run", -1, 0, 100),
                ("equivariant.gamma", 0, 1, 40),
                ("linalg.kernel_fraction_field", 1, 2, 10),
                ("linalg.kernel_fraction_field", 1, 11, 20),
                ("equivariant.h_invariant", 0, 50, 90),
                ("linalg.kernel_basis", 4, 51, 60)])
    metrics = tracing.layer_metrics(t, {0: (0, 100)}, 0, 1.0)
    assert metrics["equivariant.gamma.kernel_calls"] == 2


def test_tracer_round_trip(tmp_path):
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    inner = tracer.wrap("rings.add", inner)
    outer = tracer.wrap("cli.run", lambda x: inner(x) * 2)
    tracer.current_job = 7
    assert outer(1) == 4
    path = str(tmp_path / "spans")
    tracer.dump(path)
    t = tracing.load([path])
    assert t.name == ["cli.run", "rings.add"]
    assert t.parent == [-1, 0]
    assert t.job == [7, 7]
    assert t.start[0] <= t.start[1] <= t.end[1] <= t.end[0]


def test_install_patches_every_binding_site():
    code = """
import scx, scx.linalg, scx.rings, scx.cli, tracing
orig = scx.rings.divide
sites = tracing.install(tracing.Tracer(), scx)
assert scx.linalg.divide is scx.rings.divide is scx.divide
assert scx.linalg.divide is not orig
assert sites["rings.divide"] == 3, sites
assert all(sites.get(name) for name in tracing.SPAN_NAMES), sites
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


# ---------------------------------------------------------------------------
# oracles


def test_parse_laurent():
    assert oracles.parse_laurent("T^4 - 3*T + 1 - T^-2") == {
        4: 1, 1: -3, 0: 1, -2: -1}
    assert oracles.parse_laurent("-T^2 + 1/2*T^-1") == {
        2: -1, -1: Fraction(1, 2)}
    assert oracles.parse_laurent("0") == {}


def test_torus_signature_matches_the_rational_count():
    for p, q in ((3, 5), (5, 7), (3, 10), (7, 9)):
        s = 0
        for i in range(1, p):
            for j in range(1, q):
                x = Fraction(i, p) + Fraction(j, q)
                s += -1 if Fraction(1, 2) < x < Fraction(3, 2) else 1
        assert oracles.torus_signature(p, q) == s
    assert oracles.torus_signature(2, 3) == -2


def test_torus_alexander_check():
    trefoil_35 = {4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1}
    assert oracles.torus_alexander_ok(3, 5, trefoil_35)
    assert not oracles.torus_alexander_ok(3, 5, {**trefoil_35, 0: 1})
    assert not oracles.torus_alexander_ok(3, 5, {0: 1})


def test_two_bridge_signature():
    assert oracles.two_bridge_signature(3, 1) == 2
    assert oracles.two_bridge_signature(3, -1) == -2
    for p in range(3, 40, 2):
        # K(p, 1) is the (2, p) torus knot, up to mirror image
        assert (abs(oracles.two_bridge_signature(p, 1))
                == abs(oracles.torus_signature(2, p)))
        for q in range(1, p):
            assert (oracles.two_bridge_signature(p, -q)
                    == -oracles.two_bridge_signature(p, q))


def test_nested_ideals():
    good = "J[3]\t0\nJ[2]\tT^8 + 1\nJ[1]\tT^4 + 1\nJ[0]\tring\n"
    assert oracles.check_nested(good, "f2t") is None
    bad = "J[2]\tT^8 + T\nJ[1]\tT^4 + 1\nJ[0]\tring\n"
    assert oracles.check_nested(bad, "f2t") is not None
    # over Q, T^4 - 1 divides T^8 - 2T^4 + 1 = (T^4 - 1)^2
    qt = "J[2]\tT^8 - 2*T^4 + 1\nJ[1]\tT^4 - 1\nJ[0]\tring\n"
    assert oracles.check_nested(qt, "qt") is None
    assert oracles.check_nested("J[1]\tring\nJ[0]\t2\n", "z") is not None


def _result(check, stdout, exit_code=0, info=None, key="k"):
    return {"check": check, "stdout": stdout, "stderr": "",
            "exit": exit_code, "info": info or {}, "key": key}


def test_gamma_rules():
    checker = oracles.Checker({}, ".")
    out = ("gamma(-1)\t0\ngamma(0)\t0\ngamma(1)\t1/3\n"
           "gamma(2)\tinfinity\n")
    res = _result("gamma", out, info={"h": 1, "trefoil": True})
    checker.digests = {"k": oracles.digest_of(0, out)}
    assert checker.failure(res, [res]) is None
    wrong = out.replace("1/3", "1/2")
    res = _result("gamma", wrong, info={"h": 1, "trefoil": True})
    checker.digests = {"k": oracles.digest_of(0, wrong)}
    assert "trefoil" in checker.failure(res, [res])
    finite_past_h = out.replace("infinity", "2")
    res = _result("gamma", finite_past_h, info={"h": 1})
    checker.digests = {"k": oracles.digest_of(0, finite_past_h)}
    assert "finite" in checker.failure(res, [res])


def test_h_and_digest_checks():
    checker = oracles.Checker({"k": oracles.digest_of(2, "")}, ".")
    assert checker.failure(_result("h", "3\n", info={"h": 3}), []) is None
    assert checker.failure(_result("h", "2\n", info={"h": 3}), [])
    # an expected refusal: the digest records exit 2
    assert checker.failure(_result("digest", "", exit_code=2), []) is None
    assert checker.failure(_result("digest", "", exit_code=0), [])


def _crash(check, last_line, key="k"):
    res = _result(check, "", exit_code=1, key=key)
    res.update(stderr="Traceback (most recent call last):\n  ...\n"
               + last_line + "\n", skipped=False, deck=0, phase="untraced")
    return res


def test_crash_is_a_failure():
    res = _crash("torus", oracles.KNOWN_DEFECT)
    reason = oracles.Checker({}, ".").failure(res, [res])
    assert reason.startswith("crashed: AssertionError")


def test_only_the_known_torus_defect_keeps_the_run_correct():
    import run
    known = _crash("torus", oracles.KNOWN_DEFECT, key="torus --p 7 --q 199")
    assert oracles.known_defect(known)
    failures = run.check_answers([known], ".")
    assert [f["job"] for f in failures] == ["torus --p 7 --q 199"]
    assert run.verdict(failures, [])
    assert not run.verdict(failures, ["a broken trace"])
    other = [_crash("digest", "ZeroDivisionError: division by zero"),
             _crash("torus", "AssertionError: something else"),
             _crash("digest", oracles.KNOWN_DEFECT)]
    for res in other:
        assert not oracles.known_defect(res)
        failures = run.check_answers([known, res], ".")
        assert len(failures) == 2
        assert not run.verdict(failures, [])


def test_validate_of_an_assumed_v_complex_may_refuse():
    source = _result("two_bridge", "invariant\tv_trusted\tFalse\n")
    res = _result("validate_two_bridge",
                  "ok\tfalse\nfailure\td*v + v*d != 0 at [1,2]\n",
                  exit_code=2)
    res.update(index=1, pos=1, needs=0)
    checker = oracles.Checker({}, ".")
    assert checker.failure(res, [source, res]) is None
    source["stdout"] = "invariant\tv_trusted\tTrue\n"
    assert checker.failure(res, [source, res]) is not None


def test_tensor_size_rule(tmp_path):
    for name, n in (("a.json", 1), ("b.json", 4), ("c.json", 13),
                    ("d.json", 12)):
        (tmp_path / name).write_text(json.dumps({"generators": [0] * n}))
    checker = oracles.Checker({}, str(tmp_path))
    ok = _result("tensor", "", info={"a": "a.json", "b": "b.json",
                                     "out": "c.json"})
    assert checker.failure(ok, [ok]) is None
    bad = _result("tensor", "", info={"a": "a.json", "b": "b.json",
                                      "out": "d.json"})
    assert checker.failure(bad, [bad]) is not None


# ---------------------------------------------------------------------------
# workloads


def test_decks_are_reproducible_and_keep_dependencies_in_order():
    for workload in jobs.WORKLOADS:
        pool = jobs.pool(workload, 3)
        first = jobs.deck(workload, 3, 2, pool)
        assert first == jobs.deck(workload, 3, 2, jobs.pool(workload, 3))
        for i, job in enumerate(first):
            if "needs" in job:
                assert job["needs"] < i
                assert first[job["needs"]]["argv"][0] == "two-bridge"


def test_every_digest_checked_job_is_in_the_catalogue():
    keys = {j["key"] for j in jobs.generate_catalog()
            + jobs.invariants_catalog()}
    for workload in ("generate", "invariants"):
        for seed in range(5):
            pool = jobs.pool(workload, seed)
            for index in range(3):
                for job in jobs.deck(workload, seed, index, pool):
                    if job["check"] in ("digest", "jideals", "gamma",
                                        "two_bridge"):
                        assert job["key"] in keys, job["key"]


def test_known_defects_stay_in_every_generate_deck():
    pool = jobs.pool("generate", 1)
    for index in range(4):
        keys = {j["key"] for j in jobs.deck("generate", 1, index, pool)}
        for p, q in jobs.KNOWN_DEFECT_TORUS:
            assert f"torus --p {p} --q {q}" in keys


def test_every_generate_deck_draws_three_torus_pairs_over_the_cap():
    pool = jobs.pool("generate", 1)
    for seed in range(6):
        for index in range(4):
            drawn = [tuple(int(a) for a in j["argv"][2::2])
                     for j in jobs.deck("generate", seed, index, pool)
                     if j["argv"][0] == "torus"]
            # the fixed ones: the known defects and the README's T(3, 5)
            for fixed in (*jobs.KNOWN_DEFECT_TORUS, (3, 5)):
                drawn.remove(fixed)
            assert sorted(p for p, _q in drawn) == list(jobs.TORUS_PS)
            assert sum(q in pool["over_cap"][p] for p, q in drawn) == 3


def test_four_generate_decks_pair_every_ring_with_every_band_once():
    pool = jobs.pool("generate", 1)
    pairs = set()
    for index in range(4):
        for j in jobs.deck("generate", 1, index, pool):
            if j["argv"][0] == "two-bridge":
                p, ring = j["info"]["p"], j["info"]["ring"]
                band = [b for b in jobs.TB_BANDS if b[0] <= p <= b[1]]
                pairs.add((ring, band[0]))
    assert pairs == {(r, b) for r in jobs.TB_RINGS for b in jobs.TB_BANDS}


def test_jobs_per_s_divides_the_jobs_by_their_summed_walls():
    import run
    walls = [1.0, 1.0, 0.5] + [0.1] * 9
    metrics, tail = run.timings(walls, 0.2)
    assert metrics["jobs_per_s"] == pytest.approx(12 / 3.4)
    assert metrics["setup_s"] == 0.2 and tail["samples"] == 12


def test_normalize_scales_by_the_median_reference_around_each_job():
    walls = [1.0] * 12
    refs = [2.0] * 6 + [4.0] * 6
    # jobs 0..4 use the first window, refs 0..8 (median 2), and jobs
    # 7..11 the last, refs 3..11 (median 4); job 5's window is 1..9 and
    # job 6's is 2..10
    out = stats.normalize(walls, refs, 2.0, window=9)
    assert out == [1.0] * 6 + [0.5] * 6
    assert stats.normalize([3.0], [1.5], 1.0) == [2.0]
    with pytest.raises(ValueError):
        stats.normalize([1.0], [], 1.0)


def test_unparseable_output_is_a_failure_not_an_error():
    res = _result("torus", "signature\tnot a number\n", info={"p": 3, "q": 5})
    reason = oracles.Checker({}, ".").failure(res, [res])
    assert reason.startswith("output not in the expected form")
