"""Spans and counters around the public functions of each ``scx`` module,
installed from outside the package.

``install`` replaces each traced function at every place it is bound:
its defining module, every other ``scx`` module that imported it by name
and the package namespace.  Methods are replaced on their class, which
every binding site shares.  Each call records one span (name, start,
end, parent span, job) in flat arrays that stay in memory until
``Tracer.dump`` writes them once.  Counters are recorded in the same
wrappers, before the span ends, so that their cost stays in the span
they describe.

The analysis half (``load``, ``self_times``, ``layer_metrics``) runs in
``run.py``, which does not import ``scx``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("cli", "knots", "rings", "linalg", "scomplex", "equivariant")

# (module, attribute, span name).  Dotted attributes are methods.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("knots", "two_bridge_complex", "knots.two_bridge_complex"),
    ("knots", "two_bridge_report", "knots.two_bridge_report"),
    ("knots", "torus_signature", "knots.torus_signature"),
    ("knots", "torus_alexander", "knots.torus_alexander"),
    ("knots", "lens_sasahira", "knots.lens_sasahira"),
    ("rings", "LaurentPoly.__mul__", "rings.mul"),
    ("rings", "LaurentPoly.__add__", "rings.add"),
    ("rings", "LaurentPoly.__sub__", "rings.add"),
    ("rings", "LaurentPoly.__neg__", "rings.add"),
    ("rings", "divide", "rings.divide"),
    ("rings", "gcd", "rings.gcd"),
    ("rings", "base_change", "rings.base_change"),
    ("rings", "parse", "rings.parse"),
    ("linalg", "Matrix.__mul__", "linalg.matmul"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "homology", "linalg.homology"),
    ("linalg", "kernel_fraction_field", "linalg.kernel_fraction_field"),
    ("linalg", "rank_fraction_field", "linalg.rank_fraction_field"),
    ("linalg", "det", "linalg.det"),
    ("scomplex", "validate", "scomplex.validate"),
    ("scomplex", "from_dict", "scomplex.from_dict"),
    ("scomplex", "to_dict", "scomplex.to_dict"),
    ("scomplex", "tensor", "scomplex.tensor"),
    ("scomplex", "dual", "scomplex.dual"),
    ("scomplex", "base_change_complex", "scomplex.base_change_complex"),
    ("scomplex", "sharp_complex", "scomplex.sharp_complex"),
    ("equivariant", "h_invariant", "equivariant.h_invariant"),
    ("equivariant", "j_ideals", "equivariant.j_ideals"),
    ("equivariant", "gamma", "equivariant.gamma"),
    ("equivariant", "hat_presentation", "equivariant.hat_presentation"),
    ("equivariant", "bn_presentation", "equivariant.bn_presentation"),
    ("equivariant", "verify_model_equivalence",
     "equivariant.verify_model_equivalence"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _m, _a, name in TARGETS))
IMPORT_SPAN = "cli.import"
KERNELS = ("linalg.kernel_basis", "linalg.kernel_fraction_field")

# Per-layer metrics reported by a traced run: name -> (unit, better).
LAYER_METRICS = {
    "cli.process_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
}
for _name in SPAN_NAMES:
    LAYER_METRICS[_name + ".calls"] = ("count", "lower")
    LAYER_METRICS[_name + ".self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "rings.divide.none_ratio": ("ratio", "lower"),
    "linalg.matmul.entry_products": ("count", "lower"),
    "linalg.matmul.nonzero_share": ("ratio", "higher"),
    "linalg.kernel_fraction_field.max_entry_terms": ("count", "lower"),
    "scomplex.json_bytes": ("bytes", "lower"),
    "equivariant.gamma.kernel_calls": ("count", "lower"),
})
for _m in MODULES:
    LAYER_METRICS[_m + ".self_share"] = ("ratio", "lower")
LAYER_METRICS["untraced.share"] = ("ratio", "lower")
LAYER_METRICS["trace_overhead_ratio"] = ("ratio", "lower")

# The modules each workload is meant to exercise inside its jobs.
EXPECTED_MODULES = {
    "generate": MODULES,
    "invariants": ("cli", "rings", "linalg", "scomplex", "equivariant"),
    "model-check": ("cli", "rings", "linalg", "scomplex", "equivariant"),
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = {}
        self.current_job = -1
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name, fn, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
            finally:
                self.close(idx)
            return result

        return traced

    def dump(self, path):
        """Write the spans once: a JSON header and the raw arrays."""
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "n": len(self.start),
                       "counters": self.counters}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.job, self.start,
                        self.end):
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# counters, recorded inside the span they describe


def _after_divide(tracer, args, result):
    tracer.add("rings.divide.none", result is None)


def _after_matmul(tracer, args, result):
    a, b = args
    if not hasattr(b, "data"):
        return                      # matrix times scalar
    inner = a.cols
    tracer.add("linalg.matmul.entry_products", a.rows * inner * b.cols)
    useful = 0
    for k in range(inner):
        col = sum(1 for row in a.data if row[k])
        if col:
            useful += col * sum(1 for e in b.data[k] if e)
    tracer.add("linalg.matmul.useful_products", useful)


def _after_kernel_ff(tracer, args, result):
    terms = max((len(e.terms_dict()) for row in result.data for e in row),
                default=0)
    tracer.high("linalg.kernel_fraction_field.max_entry_terms", terms)


AFTER = {"rings.divide": _after_divide, "linalg.matmul": _after_matmul,
         "linalg.kernel_fraction_field": _after_kernel_ff}


def install(tracer, scx):
    """Wrap every target at every binding site; returns the number of
    sites patched per span name."""
    mods = {m: importlib.import_module(f"{scx.__name__}.{m}")
            for m in MODULES}
    namespaces = [scx] + list(mods.values())
    sites = {}
    for mod_name, attr, name in TARGETS:
        owner = mods[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, AFTER.get(name)))
            sites[name] = sites.get(name, 0) + 1
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, AFTER.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    sites[name] = sites.get(name, 0) + 1
    return sites


# ---------------------------------------------------------------------------
# analysis


class Trace:
    """Spans merged from one or more dumps, job ids kept."""

    def __init__(self):
        self.name, self.parent, self.job = [], [], []
        self.start, self.end = [], []
        self.counters = {}

    def extend(self, path):
        with open(path + ".json", encoding="utf-8") as fh:
            head = json.load(fh)
        n = head["n"]
        arrays = [array(t) for t in ("H", "i", "i", "q", "q")]
        with open(path + ".bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        names, parent, job, start, end = arrays
        offset = len(self.start)
        self.name.extend(head["names"][i] for i in names)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.job.extend(job)
        self.start.extend(start)
        self.end.extend(end)
        for key, value in head["counters"].items():
            if key.endswith("max_entry_terms"):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value
        return self


def load(paths):
    trace = Trace()
    for path in paths:
        trace.extend(path)
    return trace


def self_times(parent, start, end):
    """Each span's duration minus the time its child spans cover (child
    spans of one parent never overlap: they come from one call stack)."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def check_spans(trace, walls):
    """Problems with the spans, as a list of messages.

    A span must close, lie inside its parent and, if it is a root span,
    inside its job's wall interval (``walls``: job id -> (start_ns,
    end_ns)).  Spans with one parent, and the root spans of one job, must
    not overlap.  When all this holds, no self time is negative and each
    job's self times plus its untraced time add up to its wall time.
    """
    problems, siblings = [], {}
    for i, p in enumerate(trace.parent):
        s, e = trace.start[i], trace.end[i]
        if e < s:
            problems.append(f"span {i} ({trace.name[i]}) never closed")
            continue
        if p >= 0:
            if s < trace.start[p] or e > trace.end[p]:
                problems.append(f"span {i} ({trace.name[i]}) leaves its "
                                f"parent {trace.name[p]}")
            siblings.setdefault(("span", p), []).append(i)
            continue
        job = trace.job[i]
        if job not in walls:
            problems.append(f"root span {i} ({trace.name[i]}) belongs to "
                            f"no timed job")
            continue
        j0, j1 = walls[job]
        if s < j0 or e > j1:
            problems.append(f"root span {i} ({trace.name[i]}) lies outside "
                            f"job {job}")
        siblings.setdefault(("job", job), []).append(i)
    for (kind, owner), spans in siblings.items():
        spans.sort(key=lambda i: (trace.start[i], trace.end[i]))
        for a, b in zip(spans, spans[1:]):
            if trace.start[b] < trace.end[a]:
                problems.append(f"spans {a} ({trace.name[a]}) and {b} "
                                f"({trace.name[b]}) of {kind} {owner} "
                                f"overlap")
    return problems


def layer_metrics(trace, walls, json_bytes, overhead_ratio):
    """Per-layer metrics of a traced run.

    ``walls`` maps job id -> (start_ns, end_ns) of the job as the
    benchmark timed it; the part of a job's wall time outside its root
    spans is the untraced time (process start-up and exit, the harness).
    The shares add up to 1 when ``check_spans`` finds no problem.
    """
    own = self_times(trace.parent, trace.start, trace.end)
    calls, self_ns = {}, {}
    rooted = 0
    for i, name in enumerate(trace.name):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[i]
        if trace.parent[i] < 0:
            rooted += trace.end[i] - trace.start[i]
    wall_total = sum(t1 - t0 for t0, t1 in walls.values()) or 1
    untraced = wall_total - rooted

    kernel_in_gamma = 0
    for i, name in enumerate(trace.name):
        if name in KERNELS:
            p = trace.parent[i]
            while p >= 0 and trace.name[p] != "equivariant.gamma":
                p = trace.parent[p]
            kernel_in_gamma += p >= 0

    m = {"cli.process_s": untraced / 1e9,
         "cli.import_s": self_ns.get(IMPORT_SPAN, 0) / 1e9}
    for name in SPAN_NAMES:
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_ns.get(name, 0) / 1e9
    c = trace.counters
    m["rings.divide.none_ratio"] = (c.get("rings.divide.none", 0)
                                    / max(calls.get("rings.divide", 0), 1))
    products = c.get("linalg.matmul.entry_products", 0)
    m["linalg.matmul.entry_products"] = products
    m["linalg.matmul.nonzero_share"] = (
        c.get("linalg.matmul.useful_products", 0) / products if products
        else 0.0)
    m["linalg.kernel_fraction_field.max_entry_terms"] = c.get(
        "linalg.kernel_fraction_field.max_entry_terms", 0)
    m["scomplex.json_bytes"] = json_bytes
    m["equivariant.gamma.kernel_calls"] = (
        kernel_in_gamma / max(calls.get("equivariant.gamma", 0), 1))
    for mod in MODULES:
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == mod)
        m[mod + ".self_share"] = ns / wall_total
    m["untraced.share"] = untraced / wall_total
    m["trace_overhead_ratio"] = overhead_ratio
    return m


def modules_seen(trace):
    return sorted({name.split(".")[0] for name in trace.name})
