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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the run length BENCHMARK.json sets
SECONDS = 22


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
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    runs = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            code, last = run_once(root, workload, seed)
            run = {"workload": workload, "seed": seed, "exit": code}
            if last is not None:
                run.update(correct=last["correct"],
                           attempted=last["attempted"],
                           failed=last["failed"],
                           metrics={k: v["value"] for k, v
                                    in last["metrics"].items()})
            runs.append(run)
            print(json.dumps(run), flush=True)

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
        "summary": record(runs, units),
        "runs": runs,
    }
    out = os.path.join(HERE, f"BENCH_{args.n}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if all(r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
