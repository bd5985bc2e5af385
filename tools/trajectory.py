"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

    python3 tools/trajectory.py --n 26 --seeds 1 2 3

For each workload that ``BENCHMARK.json`` declares and each seed, this
runs ``bench/run.py --workload W --seed S --seconds 22 --trace 0`` as a
subprocess, one run at a time, and keeps the end-to-end metrics of its
last output line.  The file it writes holds every run, the median and
spread (quartiles, minimum and maximum) of each metric per workload, the
machine, the Python version, the commit and the ``src/scx`` line count.

``--root`` names the checkout to measure (by default the one holding
this script); the runs use that checkout's ``bench/`` and ``src/``, and
the file goes to the root of the repository holding this script.  The
script only reads ``bench/``; each run leaves its result file in the
checkout's ``.bench_results/``, as a run by hand does.

``--parent DIR`` measures alternated pairs, because the machine's speed
drifts between records: for each workload and seed it runs the checkout
in DIR and the measured one back to back, the parent first on odd seeds
and the change first on even ones.  The file then also holds the
parent's commit, line count and summary, and per workload and metric
the number of seeds on which the change read better than the parent.
Make the parent a git checkout of its commit, with ``git worktree add``
(or ``git clone``):

    git worktree add ../parent HEAD~1
    python3 tools/trajectory.py --n 27 --seeds 1 2 3 4 --parent ../parent

Both ``--root`` and ``--parent`` must name the top of a git checkout,
so that the record holds the commit it measured; the script refuses any
other directory, such as a ``git archive`` export, before it runs.

Every record also holds, under ``layers``, the in-process layer
microbenchmarks of each checkout it measures, run in a fresh process on
that checkout's ``src/``: the median seconds of ``LAYER_REPEAT`` timed
calls each of ``equivariant.gamma`` over k = -2..5 on the trefoil powers
T1-T4, and of ``h_invariant``, ``j_ideals`` (over F2[T-Laurent], i =
-1..5) and ``verify_model_equivalence`` (truncation 2) on T4, of
``j_ideals`` on T3 over Q[T-Laurent] (i = -1..4), on the two-bridge knot
K(41, 3) over Z (i = -1..3) and on T5 over F2[T-Laurent] (i = -1..5), of
``verify_model_equivalence`` on T2 at truncation 5, the depth of most
model-check jobs of the bench, and on T3 at truncation 3, the bench's
mid-size model check, of ``h_invariant`` on T4 over
Q[T-Laurent], of the product d*d, of ``validate``, of ``to_dict`` and of
the JSON writer ``cli._dumps`` on the 121-generator M32 = T3 (x)
dual(T2) over the universal ring, of ``cli._parse_argv``, the step of
``scx.cli.run`` from argv to its Namespace, over the distinct argv of
the first seed-1 ``invariants`` deck of ``bench/jobs.py`` (``gamma
--min -2`` among them), and of four verbs through ``scx.cli.run``: two
``sharp`` jobs of the invariants bench, T4 twisted over Q[T-Laurent] and
the two-bridge knot K(47, 7) over F2[T-Laurent], ``h --in T1`` on a warm
input memo, and ``tensor --a T3 --b D2 --out M32`` with the input memo
emptied before each call, with inputs written once to a temporary
directory.  One layer times start-up: a fresh ``python -c ENTRY torus
--p 3 --q 5`` process, with ``ENTRY`` the code of the ``scx`` console
script that ``bench/run.py`` runs, on the same ``src/`` and with
``PYTHONDONTWRITEBYTECODE=1``.
One round of them runs per side after each seed's bench runs, in that
seed's order, so the layers alternate as the bench runs do; each side
keeps every round's medians and, per layer, the median over the rounds.
With ``--parent`` the file also holds, under ``layer_wins``, per layer
the rounds in which the change ran faster than the parent, out of the
pairs of rounds run after the same seed, and the median over those
pairs of the change's time over the parent's (``ratio``).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the run length BENCHMARK.json sets
SECONDS = 22
# timed calls per layer microbenchmark
LAYER_REPEAT = 25


def summarize(values):
    """Median, quartiles, minimum and maximum of one metric's runs."""
    values = sorted(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def src_lines(root):
    src = os.path.join(root, "src", "scx")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def is_checkout(root):
    """Whether ``root`` is the top directory of a git checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=root, capture_output=True,
                             text=True).stdout.strip()
    except OSError:
        return False
    return bool(top) and os.path.samefile(top, root)


def commit(root):
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(root, workload, seed):
    """One bench run: its exit code and its last JSON line, or None."""
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    return proc.returncode, last


def measure(roots, workloads, seeds):
    """Every run, workload by workload and seed by seed, and per side the
    layer rounds; ``roots`` maps each side ("parent", "change") to its
    checkout, in the order odd seeds run them (even seeds reverse it),
    and each run names its side.  After each seed's bench runs one round
    of :func:`run_layers` runs per side, in the same order."""
    runs, rounds = [], {side: [] for side in roots}
    for workload in workloads:
        for seed in seeds:
            order = list(roots)[::1 if seed % 2 else -1]
            for side in order:
                code, last = run_once(roots[side], workload, seed)
                run = {"workload": workload, "seed": seed, "side": side,
                       "exit": code}
                if last is not None:
                    run.update(correct=last["correct"],
                               attempted=last["attempted"],
                               failed=last["failed"],
                               metrics={k: v["value"] for k, v
                                        in last["metrics"].items()})
                runs.append(run)
                print(json.dumps(run), flush=True)
            for side in order:
                rounds[side].append(run_layers(roots[side]))
    return runs, rounds


def bench_entry():
    """``ENTRY`` of ``bench/run.py``, which is only read: the code that
    each of the bench's fresh scx processes runs."""
    with open(os.path.join(HERE, "bench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "ENTRY")


def layer_medians(repeat):
    """The median seconds of ``repeat`` timed calls of each layer
    microbenchmark, on the scx that ``sys.path`` finds."""
    from scx import cli, equivariant as E, knots, rings, scomplex as S
    T1 = knots.fixture("trefoil")
    T2 = S.tensor(T1, T1)
    powers = [T1, T2, S.tensor(T2, T1), S.tensor(T2, T2)]
    T4 = powers[-1]
    M32 = S.tensor(powers[2], S.dual(T2))

    def over(C, ring):
        return S.base_change_complex(
            C, S.standard_assignment(C.ring, ring, U="1"), ring)

    ks = list(range(-2, 6))
    cases = {f"equivariant.gamma.T{i}": (E.gamma, C, ks)
             for i, C in enumerate(powers, 1)}
    cases["equivariant.h_invariant.T4"] = (E.h_invariant, T4)
    cases["equivariant.h_invariant.T4_qt"] = (
        E.h_invariant, over(T4, rings.QT))
    cases["equivariant.j_ideals.T4_f2t"] = (
        E.j_ideals, over(T4, rings.F2T), -1, 5)
    cases["equivariant.j_ideals.T3_qt"] = (
        E.j_ideals, over(powers[2], rings.QT), -1, 4)
    cases["equivariant.j_ideals.tbz_41_3"] = (
        E.j_ideals, knots.two_bridge_complex(41, 3, "z"), -1, 3)
    cases["equivariant.j_ideals.T5_f2t"] = (
        E.j_ideals, over(S.tensor(T4, T1), rings.F2T), -1, 5)
    cases["equivariant.verify_model_equivalence.T4"] = (
        E.verify_model_equivalence, T4, 2)
    cases["equivariant.verify_model_equivalence.T2_d5"] = (
        E.verify_model_equivalence, T2, 5)
    cases["equivariant.verify_model_equivalence.T3_d3"] = (
        E.verify_model_equivalence, powers[2], 3)
    cases["linalg.matmul.M32_dd"] = (M32.d.__mul__, M32.d)
    cases["scomplex.validate.M32"] = (S.validate, M32)
    cases["scomplex.to_dict.M32"] = (S.to_dict, M32)
    cases["cli._dumps.M32"] = (cli._dumps, S.to_dict(M32))

    sys.path.insert(0, os.path.join(HERE, "bench"))
    try:
        import jobs
    finally:
        del sys.path[0]
    deck = jobs.deck("invariants", 1, 0, jobs.pool("invariants", 1))
    shapes = list(dict.fromkeys(tuple(job["argv"]) for job in deck))
    def parse(argvs):
        sink = io.StringIO()
        for argv in argvs:
            cli._parse_argv(list(argv), sink)

    cases["cli.parse.invariants"] = (parse, shapes)

    def verb(*argv):
        if cli.run(list(argv), io.StringIO(), io.StringIO()):
            raise RuntimeError(f"{argv} failed")

    entry = bench_entry()
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCX_")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")

    def process(*argv):
        # a fresh scx process on this src/, start-up and import included
        subprocess.run([sys.executable, "-c", entry, *argv], env=env,
                       stdout=subprocess.DEVNULL, check=True)

    cases["cli.process.torus"] = (process, "torus", "--p", "3", "--q", "5")

    def tensor(*argv):
        # a cold input memo: both operands are read and parsed
        cli._inputs.clear()
        verb("tensor", *argv)

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        t1, t3, d2, t4, tb = (os.path.join(tmp, f"{name}.json")
                              for name in ("T1", "T3", "D2", "T4", "tb"))
        K = knots.two_bridge_complex(47, 7, "f2t")
        for path, C in ((t1, T1), (t3, powers[2]), (d2, S.dual(T2)),
                        (t4, T4), (tb, K)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(S.to_dict(C), fh)
        cases["cli.sharp.T4_qt_twisted"] = (
            verb, "sharp", "--in", t4, "--twisted", "--specialize", "U=1",
            "--ring", "qt")
        cases["cli.sharp.tbf2t_47_7"] = (verb, "sharp", "--in", tb)
        cases["cli.h.T1"] = (verb, "h", "--in", t1)
        cases["cli.tensor.M32"] = (tensor, "--a", t3, "--b", d2, "--out",
                                   os.path.join(tmp, "M32.json"))
        for name, (fn, *args) in cases.items():
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                fn(*args)
                times.append(time.perf_counter() - start)
            out[name] = statistics.median(times)
    return out


def run_layers(root, repeat=LAYER_REPEAT):
    """:func:`layer_medians` in a fresh process on the ``src/`` of the
    checkout ``root``; None when that process fails."""
    paths = [os.path.join(root, "src"), os.path.join(HERE, "tools")]
    code = (f"import json, sys; sys.path[:0] = {paths!r}; "
            f"import trajectory; "
            f"print(json.dumps(trajectory.layer_medians({repeat})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode:
        return None
    return json.loads(proc.stdout)


def layers(rounds):
    """One side's layer record: each round's medians (None for a round
    whose process failed) and, per layer, the median over the rounds."""
    done = [r for r in rounds if r is not None]
    return {"repeat": LAYER_REPEAT, "rounds": rounds,
            "median_s": {name: statistics.median(r[name] for r in done)
                         for name in (done[0] if done else ())}}


def layer_wins(rounds):
    """Per layer, the rounds in which the change ran faster than the
    parent (a tie counts for neither) out of the pairs of rounds run
    after the same seed in which both sides ran it, and ``ratio``, the
    median over those pairs of change time / parent time: the pairs ran
    back to back, so unlike ``median_s`` it compares rounds that saw the
    same machine speed.  ``rounds`` maps each side to its rounds, as
    :func:`measure` returns them."""
    pairs = {}
    for parent, change in zip(rounds["parent"], rounds["change"]):
        for name in parent or ():
            if name in (change or ()):
                pairs.setdefault(name, []).append((parent[name], change[name]))
    return {name: {"won": sum(c < p for p, c in both), "pairs": len(both),
                   "ratio": statistics.median(c / p for p, c in both)}
            for name, both in pairs.items()}


def wins(runs, better):
    """Per workload and metric, the seeds on which the change read better
    than the parent (a tie counts for neither) out of the seeds where
    both sides printed it; ``better`` maps each metric to "higher" or
    "lower"."""
    values = {}
    for r in runs:
        for name, value in r.get("metrics", {}).items():
            values.setdefault((r["workload"], name, r["seed"]), {})[
                r["side"]] = value
    out = {}
    for (workload, name, _seed), pair in values.items():
        if name not in better or len(pair) < 2:
            continue
        sign = 1 if better[name] == "higher" else -1
        entry = out.setdefault(workload, {}).setdefault(
            name, {"won": 0, "pairs": 0})
        entry["pairs"] += 1
        entry["won"] += sign * (pair["change"] - pair["parent"]) > 0
    return out


def record(runs, units):
    """The summary of ``runs`` per workload and end-to-end metric; a run
    that printed no metrics counts in ``failed_runs`` only."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        done = [r for r in mine if r.get("metrics")]
        entry = {"runs": len(done), "failed_runs": len(mine) - len(done)}
        for name, unit in units.items():
            values = [r["metrics"][name] for r in done if name in r["metrics"]]
            if values:
                entry[name] = dict(summarize(values), unit=unit)
        summary[workload] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True,
                    help="write BENCH_<n>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--root", default=HERE,
                    help="the checkout to measure (default: this one)")
    ap.add_argument("--parent",
                    help="a checkout to run in alternated pairs with it")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    roots = {"change": root}
    if args.parent:
        roots = {"parent": os.path.abspath(args.parent), "change": root}
    for side, path in roots.items():
        if not is_checkout(path):
            ap.error(f"{'--root' if side == 'change' else '--parent'} "
                     f"{path} is not the top of a git checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    runs, rounds = measure(roots, [w["name"] for w in bench["workloads"]],
                           args.seeds)
    mine = [r for r in runs if r["side"] == "change"]
    doc = {
        "n": args.n,
        "command": (f"bench/run.py --workload W --seed S --seconds "
                    f"{SECONDS} --trace 0"),
        "commit": commit(root),
        "src_scx_lines": src_lines(root),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seeds": args.seeds,
        "summary": record(mine, units),
        "layers": layers(rounds["change"]),
    }
    if args.parent:
        parent = roots["parent"]
        doc["parent"] = {
            "commit": commit(parent), "src_scx_lines": src_lines(parent),
            "summary": record([r for r in runs if r["side"] == "parent"],
                              units),
            "layers": layers(rounds["parent"])}
        doc["wins"] = wins(runs, {m["name"]: m["better"]
                                  for m in bench["end_to_end"]})
        doc["layer_wins"] = layer_wins(rounds)
    doc["runs"] = runs
    out = os.path.join(HERE, f"BENCH_{args.n}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if all(r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
