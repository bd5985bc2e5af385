"""Record ``digests.json``: exit code and stdout digest of every
digest-checked job that any seed of any workload can draw; and
``torus_cap.json``: the torus knots of the seeded draw whose Alexander
division exceeds the rings.divide iteration cap.

    PYTHONPATH=src python3 bench/record_digests.py

Run it only when the program's output is meant to change; the digests
pin the answers of the commit they were recorded at.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import traceback

import jobs
import oracles
import setup_inputs

DIGESTED = ("digest", "jideals", "gamma", "two_bridge")
NOTE = ("Exit code and first 16 hex digits of the SHA-256 of stdout, per "
        "job key, recorded with bench/record_digests.py.  Gamma values of "
        "trefoil powers are under audit: these digests pin the values of "
        "the recording commit, they do not vouch for them.")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "digests.json")
CAP_NOTE = ("Per p, the q of the generate workload's torus draw whose "
            "torus_alexander(p, q) failed its exact-division assertion "
            "(the rings.divide iteration cap), recorded with "
            "bench/record_digests.py.")


def record_torus_cap(scx):
    over = {}
    for p in jobs.TORUS_PS:
        over[str(p)] = []
        for q in jobs.torus_qs(p):
            try:
                scx.knots.torus_alexander(p, q)
            except AssertionError:
                over[str(p)].append(q)
    with open(jobs.TORUS_CAP_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"note": ' + json.dumps(CAP_NOTE) + ',\n "over_cap": {\n')
        fh.write(",\n".join(f"  {json.dumps(p)}: {json.dumps(qs)}"
                             for p, qs in over.items()))
        fh.write("\n}}\n")
    print(f"{sum(map(len, over.values()))} torus pairs over the cap in "
          f"{jobs.TORUS_CAP_PATH}")


def main():
    import scx
    import scx.cli

    record_torus_cap(scx)
    catalog = jobs.generate_catalog() + jobs.invariants_catalog()
    recipes = dict(jobs.fixed_inputs("generate"))
    recipes.update(jobs.invariants_catalog_inputs())
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        setup_inputs.write_inputs(scx, recipes, tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for n, job in enumerate(catalog):
                if job["check"] not in DIGESTED:
                    continue
                out, err = io.StringIO(), io.StringIO()
                try:
                    code = scx.cli.run(list(job["argv"]), out, err)
                except Exception:
                    print(f"not recorded, raised: {job['key']}\n"
                          f"{traceback.format_exc()}", file=sys.stderr)
                    continue
                digests[job["key"]] = oracles.digest_of(code, out.getvalue())
                if n % 100 == 0:
                    print(f"{n}/{len(catalog)}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write('{"note": ' + json.dumps(NOTE) + ',\n "digests": {\n')
        fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(digests[k])}"
                            for k in sorted(digests)))
        fh.write("\n}}\n")
    print(f"{len(digests)} digests in {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
