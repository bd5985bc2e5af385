"""Build a workload's input complexes with the public ``scx`` API.

    PYTHONPATH=src python bench/setup_inputs.py --workload invariants \
        --seed 1 --dir DIR

writes every input file the workload's decks can read into DIR, in the
JSON wire format the ``scx`` command line writes.  The benchmark times
this whole process, interpreter start-up and ``import scx`` included, as
the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import jobs


class Complexes:
    """Builds recipes from ``jobs.inputs``; shared pieces are built once."""

    def __init__(self, scx):
        self.scx = scx
        self._powers = {}

    def power(self, k):
        """trefoil^k, grouped as the model-check workload's tensor jobs
        group it: T2 = T1 T1, T3 = T2 T1, T4 = T2 T2."""
        if k not in self._powers:
            tensor = self.scx.scomplex.tensor
            if k == 1:
                C = self.scx.knots.fixture("trefoil")
            elif k == 4:
                C = tensor(self.power(2), self.power(2))
            else:
                C = tensor(self.power(k - 1), self.power(1))
            self._powers[k] = C
        return self._powers[k]

    def _to_ring(self, C, ring):
        rings, scomplex = self.scx.rings, self.scx.scomplex
        target = {"zt": rings.ZT, "f2t": rings.F2T}[ring]
        values = {"U": "1"} if C.ring.udenom else {}
        assignment = scomplex.standard_assignment(C.ring, target, **values)
        return scomplex.base_change_complex(C, assignment, target)

    def primitive(self, name, ring):
        knots, dual = self.scx.knots, self.scx.scomplex.dual
        base = {"tref": lambda: knots.fixture("trefoil"),
                "dtref": lambda: knots.fixture("trefoil"),
                "mtref": lambda: knots.two_bridge_complex(3, 1),
                "t34": lambda: knots.fixture("t34"),
                "dt34": lambda: knots.fixture("t34")}[name]()
        C = self._to_ring(base, ring)
        return dual(C) if name.startswith("d") else C

    def build(self, recipe):
        kind, *args = recipe
        sc = self.scx.scomplex
        if kind == "power":
            return self.power(*args)
        if kind == "mixed":
            a, b = args
            return sc.tensor(self.power(a), sc.dual(self.power(b)))
        if kind == "fixture":
            return self.scx.knots.fixture(*args)
        if kind == "two-bridge":
            return self.scx.knots.two_bridge_complex(*args)
        if kind == "random":
            ring, a, b, dual = args
            C = sc.tensor(self.primitive(a, ring), self.primitive(b, ring))
            return sc.dual(C) if dual else C
        raise ValueError(f"unknown recipe {recipe!r}")


def write_inputs(scx, recipes, directory):
    complexes = Complexes(scx)
    for name, recipe in recipes.items():
        doc = scx.scomplex.to_dict(complexes.build(recipe))
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    import scx
    recipes = jobs.inputs(args.workload, args.seed)
    # the first deck's job list is part of the set-up a user would pay
    jobs.deck(args.workload, args.seed, 0, jobs.pool(args.workload, args.seed))
    write_inputs(scx, recipes, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
