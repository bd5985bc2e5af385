"""The scx benchmark.

    python3 bench/run.py --workload generate --seed 1 --seconds 22 --trace 0

Builds the workload's inputs from the seed (timed as ``setup_s``), runs
its jobs in a closed loop with one client for about ``--seconds`` (a
fixed number of whole decks; every job waits for the previous one),
checks every answer outside the timed region, prints each metric with
its unit, writes a result file to ``.bench_results/`` and prints one
JSON object as the last line.  The times it reports are wall times
scaled to a fixed machine speed, measured by the reference of
``reference.py`` next to every job and build; the raw wall-time figures
are printed and kept in the result file too.

With ``--trace 1`` it runs one deck untraced and then traced, with
wrappers around the public functions of each ``scx`` module, and reports
the per-layer metrics instead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import jobs
import oracles
import reference
import stats
import tracing
import worker

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
REFERENCE = os.path.join(BENCH, "reference.py")
# what the ``scx`` console script runs
ENTRY = ("import sys; sys.argv[0] = 'scx'; from scx.cli import main; "
         "sys.exit(main())")

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
    "job_tail_s": "s", "pass_ratio": "ratio", "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def child_env():
    """The environment of every scx process: no SCX_* settings, and the
    package imported from this checkout's src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCX_")}
    env["PYTHONPATH"] = SRC
    return env


def wait_child(cmd, cwd, stdout, stderr):
    """Run cmd to completion; returns (exit code, start ns, end ns,
    peak RSS MiB of that child)."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=stderr)
    _pid, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024


def process_reference():
    """Seconds one run of the reference process takes."""
    code, t0, t1, _rss = wait_child([sys.executable, REFERENCE], ROOT,
                                    subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise BenchError(f"the speed reference exited with {code}")
    return (t1 - t0) / 1e9


def setup(workload, seed, base, tag):
    """Build the inputs SETUP_REPEATS times in fresh directories, with a
    reference process before each build and after the last.  Returns the
    seconds of each build, for each build the mean seconds of the
    references just before and after it, and the last build's directory."""
    times, refs = [], [process_reference()]
    for i in range(SETUP_REPEATS):
        run_dir = os.path.join(base, f"{tag}{i}")
        os.makedirs(run_dir)
        with open(os.path.join(base, "setup.err"), "w+b") as err:
            code, t0, t1, _rss = wait_child(
                [sys.executable, os.path.join(BENCH, "setup_inputs.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--dir", run_dir], run_dir, subprocess.DEVNULL, err)
            err.seek(0)
            message = err.read().decode("utf-8", "replace")
        if code != 0:
            raise BenchError(f"input set-up failed:\n{message}")
        times.append((t1 - t0) / 1e9)
        refs.append(process_reference())
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(run_dir)
    return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])], run_dir


class ProcessJobs:
    """Executor of the generate workload: one scx process per job."""

    def __init__(self, run_dir, base):
        self.run_dir = run_dir
        self.base = base
        self.peak_rss = 0.0
        self.spans = []
        self.traced = False

    def trace(self):
        self.traced = True

    def __call__(self, job, job_id):
        if self.traced:
            spans = os.path.join(self.base, f"spans{job_id}")
            cmd = [sys.executable, os.path.join(BENCH, "launcher.py"),
                   "--spans", spans, "--job", str(job_id), "--",
                   *job["argv"]]
            self.spans.append(spans)
        else:
            cmd = [sys.executable, "-c", ENTRY, *job["argv"]]
        out_path = os.path.join(self.base, "job.out")
        err_path = os.path.join(self.base, "job.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            code, start, end, rss = wait_child(cmd, self.run_dir, out, err)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        if not self.traced:
            self.peak_rss = max(self.peak_rss, rss)
        return {"exit": code, "stdout": stdout, "stderr": stderr,
                "start_ns": start, "end_ns": end}


def run_jobs(workload, seed, seconds, trace, run_dir, base):
    """The timed loop; returns the worker document (results, decks,
    peak_rss_mib, spans)."""
    if workload == "generate":
        execute = ProcessJobs(run_dir, base)
        results, decks = worker.run_decks(
            workload, seed, seconds, run_dir, execute, process_reference,
            execute.trace if trace else None)
        return {"results": results, "decks": decks,
                "peak_rss_mib": execute.peak_rss,
                "spans": execute.spans}
    result = os.path.join(base, "worker.json")
    with open(os.path.join(base, "worker.err"), "w+b") as err:
        code, _t0, _t1, _rss = wait_child(
            [sys.executable, os.path.join(BENCH, "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--result", result], run_dir, subprocess.DEVNULL, err)
        err.seek(0)
        message = err.read().decode("utf-8", "replace")
    if code != 0:
        raise BenchError(f"worker failed:\n{message}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def check_answers(results, run_dir):
    """Check every attempted job; returns the list of failures."""
    checker = oracles.Checker(
        oracles.load_digests(os.path.join(BENCH, "digests.json")), run_dir)
    failures = []
    for res in results:
        if res["skipped"]:
            continue
        reason = checker.failure(res, results)
        if reason is not None:
            failures.append({"job": res["key"], "deck": res["deck"],
                             "phase": res["phase"], "reason": reason,
                             "known_defect": oracles.known_defect(res)})
    return failures


def verdict(failures, problems):
    """``correct``: no broken trace, and no failure but the known defect
    (a wrong answer, a refusal nobody expected or any other crash)."""
    return not problems and all(f["known_defect"] for f in failures)


def timings(walls, setup_s):
    """The timing metrics of one set of wall times."""
    value, pct, n = stats.tail(walls)
    return {
        "setup_s": setup_s,
        # the speed references between jobs are not timed
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": value,
    }, {"percentile": pct, "samples": n}


def end_to_end(workload, doc, setup_walls, setup_refs, failed):
    """(metrics at the reference speed, the same from raw wall times,
    tail percentile and sample count)."""
    ran = [r for r in doc["results"] if not r["skipped"]]
    walls = [r["wall_s"] for r in ran]
    nominal = (reference.NOMINAL_PROCESS_S if workload == "generate"
               else reference.NOMINAL_KERNEL_S)
    scaled = stats.normalize(walls, [r["ref_s"] for r in ran], nominal)
    setup_scaled = [w * reference.NOMINAL_PROCESS_S / r
                    for w, r in zip(setup_walls, setup_refs)]
    metrics, tail_info = timings(scaled, statistics.median(setup_scaled))
    metrics["pass_ratio"] = (len(ran) - failed) / len(ran)
    metrics["peak_rss_mib"] = doc["peak_rss_mib"]
    raw, _ = timings(walls, statistics.median(setup_walls))
    return metrics, raw, tail_info


def per_layer(workload, doc):
    """Per-layer metrics of a traced run, and problems found in them."""
    traced = [r for r in doc["results"]
              if r["phase"] == "traced" and not r["skipped"]]
    plain = {r["pos"]: r for r in doc["results"]
             if r["phase"] == "untraced" and not r["skipped"]}
    pairs = [(plain[r["pos"]], r) for r in traced if r["pos"] in plain]
    overhead = (sum(t["wall_s"] for _p, t in pairs)
                / sum(p["wall_s"] for p, _t in pairs))
    trace = tracing.load(doc["spans"])
    walls = {r["index"]: (r["start_ns"], r["end_ns"]) for r in traced}
    # without these, self times and untraced time would not add up to
    # each job's wall time
    problems = tracing.check_spans(trace, walls)
    metrics = tracing.layer_metrics(
        trace, walls, sum(r["bytes"] for r in traced), overhead)
    seen = tracing.modules_seen(trace)
    problems += [f"the traced run saw no span of scx.{m}"
                 for m in tracing.EXPECTED_MODULES[workload] if m not in seen]
    return metrics, problems


def src_lines():
    total = 0
    pkg = os.path.join(SRC, "scx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, doc):
    commit, dirty = git_state()
    verbs = {}
    for r in doc["results"]:
        if not r["skipped"]:
            verbs[r["argv"][0]] = verbs.get(r["argv"][0], 0) + 1
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit,
            "dirty": dirty, "decks": doc["decks"], "jobs_by_verb": verbs,
            "src_scx_lines": src_lines()}


def run(args):
    if not os.path.isfile(os.path.join(SRC, "scx", "cli.py")):
        raise BenchError(f"no scx sources under {SRC}")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    base = os.path.join(tmp_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(base)
    try:
        setup_walls, setup_refs, run_dir = setup(args.workload, args.seed,
                                                 base, "run")
        doc = run_jobs(args.workload, args.seed, args.seconds, args.trace,
                       run_dir, base)
        failures = check_answers(doc["results"], run_dir)
        problems = []
        if args.trace:
            metrics, problems = per_layer(args.workload, doc)
            units = {k: u for k, (u, _b) in tracing.LAYER_METRICS.items()}
            tail_info = raw = None
        else:
            # As many builds again after the timed loop: the median then
            # samples the machine at both ends of the run, not only in
            # one of its slow spells.
            after_walls, after_refs, _dir = setup(args.workload, args.seed,
                                                  base, "after")
            metrics, raw, tail_info = end_to_end(
                args.workload, doc, setup_walls + after_walls,
                setup_refs + after_refs, len(failures))
            units = END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    attempted = sum(1 for r in doc["results"] if not r["skipped"])
    failed = len(failures)
    correct = verdict(failures, problems)
    meta = metadata(args, doc)
    report = {"metadata": meta, "correct": correct, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted,
              "failures": failures, "problems": problems,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    if tail_info:
        report["job_tail"] = tail_info
        report["raw_wall_metrics"] = raw
    report["jobs"] = [[r["key"], r["deck"], r["phase"], r["exit"],
                       r["wall_s"], r["ref_s"]]
                      for r in doc["results"] if not r["skipped"]]
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_file = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# scx benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} decks={meta['decks']}")
    print(f"# {meta['cpu']}  nproc={meta['nproc']}  python={meta['python']}"
          f"  commit={meta['commit']} dirty={meta['dirty']}"
          f"  src/scx lines={meta['src_scx_lines']}")
    for name, m in report["metrics"].items():
        extra = ""
        if name == "job_tail_s":
            extra = (f"  (p{tail_info['percentile']:.2f} of "
                     f"{tail_info['samples']} jobs)")
        if raw and name in raw:
            extra += f"  (raw wall time: {raw[name]:.6g})"
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'fail_ratio':48s} {report['fail_ratio']:.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    counts = {}
    for f in failures:
        counts[(f["job"], f["reason"])] = counts.get((f["job"], f["reason"]),
                                                     0) + 1
    for (job, reason), n in counts.items():
        print(f"failed {n}x: {job}  [{reason}]")
    for p in problems[:20]:
        print(f"problem: {p}")
    if len(problems) > 20:
        print(f"problem: ... {len(problems) - 20} more in the result file")
    print(f"# result file: {os.path.relpath(out_file, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
