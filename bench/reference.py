"""The benchmark's machine-speed reference.

A fixed pure-Python kernel that uses nothing from ``scx``: a product of
matrices of sparse polynomials with terms keyed as scx keys them, a json
round trip and products of int-coefficient dicts, the kind of work scx
does.  The benchmark times it next to every job:

  * in the worker of the in-process workloads, ``kernel()`` runs in the
    worker itself just before each job;
  * for the ``generate`` workload and for the input set-up, which run
    ``scx`` as fresh processes, this file runs as a process of its own,

    python3 bench/reference.py

    which starts an interpreter, imports the standard-library modules
    ``scx`` imports and runs the kernel once.

The machine this benchmark was built on is a shared VM whose speed
drifts by up to 2x in spells of tens of seconds.  Scaling each job's
wall time by the nominal reference time over the reference times
measured around it (``stats.normalize``) removes most of that drift
from the reported figures, and no change under ``src/`` can move the
reference.
"""

import argparse  # noqa: F401  (imported as scx imports it)
import dataclasses  # noqa: F401
import functools  # noqa: F401
import json
import re  # noqa: F401
import shlex  # noqa: F401
from fractions import Fraction

# Nominal reference times, in seconds: one kernel() call in a warm
# process, and one run of this file as a process.  They are round
# figures of the order of the build machine's readings (Intel Xeon, 2
# vCPUs, Python 3.11) and set only the scale: the reported times are
# wall times at the speed where the reference takes these times.
NOMINAL_KERNEL_S = 0.005
NOMINAL_PROCESS_S = 0.06
SIZE = 6


class Poly:
    """A sparse polynomial keyed like scx's terms, (x, Fraction, tuple)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for (x, u, ts), c in terms.items():
            if c == 0:
                continue
            if not isinstance(u, Fraction):
                u = Fraction(u)
            clean[(x, u, ts)] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for (x1, u1, t1), c1 in self.terms.items():
            for (x2, u2, t2), c2 in other.terms.items():
                k = (x1 + x2, u1 + u2, tuple(p + q for p, q in zip(t1, t2)))
                out[k] = out.get(k, 0) + c1 * c2
        return Poly(out)


def _poly(seed, n):
    return Poly({(0, Fraction(0), ((seed * 7 + i * 3) % 11 - 5,)):
                 (seed * 31 + i * 17) % 7 - 3 for i in range(n)})


def kernel():
    """A dense product of SIZE x SIZE matrices of polynomials, written
    out through json and read back, then products of int-coefficient
    dicts."""
    a = [[_poly(i * SIZE + j, 1 + (i + j) % 3) for j in range(SIZE)]
         for i in range(SIZE)]
    b = [[_poly(i * SIZE + j + 5, 1 + (i * j) % 3) for j in range(SIZE)]
         for i in range(SIZE)]
    rows = []
    for i in range(SIZE):
        row = []
        for j in range(SIZE):
            acc = Poly({})
            for k in range(SIZE):
                acc = acc + a[i][k] * b[k][j]
            row.append({f"{x},{u},{ts}": c
                        for (x, u, ts), c in acc.terms.items()})
        rows.append(row)
    json.loads(json.dumps(rows, sort_keys=True))
    p = {i: (i * 7919) % 1009 - 504 for i in range(40)}
    q = {i: (i * 104729) % 997 - 498 for i in range(40)}
    for _ in range(12):
        out = {}
        for i, x in p.items():
            for j, y in q.items():
                out[i + j] = out.get(i + j, 0) + x * y


if __name__ == "__main__":
    kernel()
