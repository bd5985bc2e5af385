"""The closed job loop, and the in-process worker that runs it.

``run_decks`` runs ``jobs.deck_count`` whole decks, about ``seconds`` of
work, one job at a time; every job waits for the one before it.  Just
before each job it times the machine-speed reference (``reference.py``),
outside the job's own wall time.  A traced run instead runs deck 0
twice: untraced, then traced, so that the overhead of the spans can be
measured on the same jobs.

Run as a script, this is the measured worker of the in-process workloads:

    PYTHONPATH=src python bench/worker.py --workload invariants \
        --seed 1 --seconds 22 --trace 0 --result result.json

from inside a directory that holds the workload's input files.  It
imports only ``scx``, the standard library and the benchmark's own
standard-library modules, and calls ``scx.cli.run(argv)`` for each job,
which is the dispatch ``scx batch`` uses.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback

import jobs
import reference


def file_bytes(argv, run_dir):
    """Bytes of the JSON files a job read and wrote, from file sizes."""
    total = 0
    for flag in ("--in", "--a", "--b", "--out"):
        if flag in argv:
            path = os.path.join(run_dir, argv[argv.index(flag) + 1])
            if os.path.exists(path):
                total += os.path.getsize(path)
    return total


def run_decks(workload, seed, seconds, run_dir, execute, time_reference,
              traced_phase=None):
    """Run the loop in ``run_dir``; ``execute(job, job_id)`` runs one job
    and returns a result dict with at least ``exit``, ``stdout``,
    ``stderr``, ``start_ns`` and ``end_ns``; ``time_reference()`` runs the
    speed reference and returns its seconds, kept in the job's ``ref_s``.

    With ``traced_phase`` (a callable that turns tracing on), deck 0 runs
    untraced and then again traced.  Returns (results, decks run).
    """
    pool = jobs.pool(workload, seed)
    results = []

    def one_deck(index, phase):
        ran = []
        for pos, job in enumerate(jobs.deck(workload, seed, index, pool)):
            base = {"index": len(results) + len(ran), "deck": index,
                    "pos": pos, "phase": phase, **job}
            need = job.get("needs")
            if need is not None and ran[need].get("exit") != 0:
                ran.append(dict(base, skipped=True))
                continue
            ref_s = time_reference()
            res = execute(job, base["index"])
            res["ref_s"] = ref_s
            res["wall_s"] = (res["end_ns"] - res["start_ns"]) / 1e9
            res["bytes"] = file_bytes(job["argv"], run_dir)
            ran.append(dict(base, skipped=False, **res))
        results.extend(ran)

    if traced_phase is None:
        decks = jobs.deck_count(workload, seconds)
        for index in range(decks):
            one_deck(index, "untraced")
    else:
        one_deck(0, "untraced")
        traced_phase()
        one_deck(0, "traced")
        decks = 1
    return results, decks


def _in_process(cli):
    def execute(job, job_id):
        out, err = io.StringIO(), io.StringIO()
        tb = None
        start = time.perf_counter_ns()
        try:
            code = cli.run(list(job["argv"]), out, err)
        except Exception:  # the job's failure is the measurement
            code = 1
            tb = traceback.format_exc()
        end = time.perf_counter_ns()
        stderr = err.getvalue() + (tb or "")
        return {"exit": code, "stdout": out.getvalue(), "stderr": stderr,
                "start_ns": start, "end_ns": end}
    return execute


def time_kernel():
    start = time.perf_counter_ns()
    reference.kernel()
    return (time.perf_counter_ns() - start) / 1e9


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import scx.cli

    execute = _in_process(scx.cli)
    tracer = traced_phase = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def traced_phase():
            tracing.install(tracer, sys.modules["scx"])

        plain = execute

        def execute(job, job_id):
            tracer.current_job = job_id
            return plain(job, job_id)

    results, decks = run_decks(args.workload, args.seed, args.seconds,
                               os.getcwd(), execute, time_kernel,
                               traced_phase)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc = {"results": results, "decks": decks,
           "peak_rss_mib": rss_kib / 1024}
    if tracer is not None:
        spans = args.result + ".spans"
        tracer.dump(spans)
        doc["spans"] = [spans]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
