"""Summary statistics shared by `run.py` and the steadiness mode."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values):
    """The value at the highest percentile that has at least ten samples
    beyond it, with that percentile and the sample count.

    With n sorted samples the value of rank n - 10 (nearest-rank
    percentile 100 (n - 10) / n) has exactly ten samples ranked above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {n}")
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


REF_WINDOW = 9


def normalize(walls, refs, nominal, window=REF_WINDOW):
    """Each wall time scaled to the reference speed: times ``nominal``
    over the median reference time of the ``window`` jobs around it
    (``refs[i]`` was measured just before job i)."""
    n = len(walls)
    if n != len(refs) or n == 0:
        raise ValueError("one reference time per job is needed")
    out = []
    for i, wall in enumerate(walls):
        lo = max(0, min(i - window // 2, n - window))
        out.append(wall * nominal / statistics.median(refs[lo:lo + window]))
    return out
