"""Steadiness mode: run each workload several times, each with another
seed, and print every end-to-end metric's spread against its bound.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME]

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady when its spread is below a third of the bound
``BENCHMARK.json`` gives it; ``setup_s`` is listed but not held to it.
The values of every run are kept in ``.bench_results/steady-*.json`` so
that two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        path = os.path.join(out_dir, f"steady-{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        print(f"{'metric':16s} {'median':>12s} {'spread':>8s} "
              f"{'bound':>6s}  steady")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = stats.spread(values)
            ok = s < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"{name:16s} {statistics.median(values):12.6g} "
                  f"{s:8.4f} {bound:6.3f}  {'yes' if ok else 'NO'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
