"""Workload definitions: seeded input pools, job decks and the finite
catalogues the answer digests are recorded over.

A job is a dict with
  argv   the scx arguments, file names relative to the run directory;
  key    the digest key: argv with any ``--out`` value replaced by OUT;
  check  the name of the answer check in ``oracles.py``;
  info   what that check needs to know (expected values, files);
  needs  (optional) index, within the deck, of a job that must exit 0
         first, as a shell script would chain them with ``&&``.

A run is a fixed number of decks (``deck_count``).  Deck ``i`` of a seed
is drawn from its own ``random.Random`` stream, so decks are
reproducible one by one.  Every deck of a workload has the same job
templates; the seed only varies parameters of similar cost, so the
per-run figures stay comparable across seeds.

This module uses only the standard library: the measured worker and the
answer checker both import it.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("generate", "invariants", "model-check")

# ---------------------------------------------------------------------------
# generate: one fresh scx process per job

TB_RINGS = ("f2t", "f4", "z", "universal")
# p is drawn in four bands, one per ring and deck, so that every deck
# pays for one small, two middling and one large generator run (the cost
# of two-bridge grows steeply with p).  The bands rotate over the rings
# from deck to deck, so every run makes the same ring-band pairs whatever
# the seed (four decks make all sixteen).
TB_BANDS = ((3, 39), (41, 77), (79, 115), (117, 151))
TORUS_PS = (3, 5, 7, 9, 11, 13, 15)
TORUS_Q_MAX = 300
# Torus knots whose Alexander division exceeds the rings.divide iteration
# cap at this commit.  They stay in every deck so that the defect shows.
KNOWN_DEFECT_TORUS = ((3, 599), (7, 199))
# The q <= TORUS_Q_MAX over that cap, per p, as recorded by
# record_digests.py.  The seeded torus draw takes every other p (in
# turns by deck) from these and the rest from the q under the cap, so
# every deck keeps three crashing draws whatever the seed: the defect
# shows, and pass_ratio does not move with the seed.  Within its list
# the q comes from one of TORUS_SLICES slices of the list, a different
# one in consecutive decks, so that a run spans the whole q range.
TORUS_SLICES = 4
TORUS_CAP_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "torus_cap.json")
LENS_P_MAX = 61

# The README trefoil verbs, with every option spelled out.
README_JOBS = (
    (["h", "--in", "trefoil.json", "--specialize", "U=1"],
     "h", {"h": 1}),
    (["jideals", "--in", "trefoil.json", "--specialize", "U=1",
      "--min", "-1", "--max", "2"], "jideals", {}),
    (["gamma", "--in", "trefoil.json", "--min", "-1", "--max", "2"],
     "gamma", {"h": 1, "trefoil": True}),
    (["sharp", "--in", "trefoil.json", "--twisted", "--specialize", "U=1",
      "--ring", "qt"], "digest", {}),
    (["bn-presentation", "--in", "trefoil.json", "--specialize", "U=1",
      "--ring", "f2t", "--target", "bn"], "digest", {}),
    (["model-check", "--in", "trefoil.json", "--truncation", "5"],
     "ok_report", {}),
    (["validate", "--in", "trefoil.json"], "ok_report", {}),
    (["torus", "--p", "3", "--q", "5"], "torus", {"p": 3, "q": 5}),
    (["lens", "--p", "9", "--q", "2"], "digest", {}),
)


def _odd(lo, hi):
    return [p for p in range(lo, hi + 1) if p % 2]


def tb_qs(p):
    """The q values for K(p, q) that the digests cover."""
    qs = [q for q in (-7, -5, -3, 3, 5, 7)
          if abs(q) < p and math.gcd(p, q) == 1]
    return qs or [-1, 1]


def tb_draw(rng, lo, hi):
    """K(p, q) with odd p in [lo, hi] and q = +-(the least of 3, 5, 7
    prime to p).  The cost of two-bridge grows with the continued
    fraction of p/q, so a fixed |q| keeps it a function of p alone; the
    seed draws p and the sign (a mirror image, of the same cost)."""
    ps = [p for p in _odd(lo, hi) if tb_qs(p) != [-1, 1]]
    p = rng.choice(ps)
    q = next(q for q in (3, 5, 7) if math.gcd(p, q) == 1)
    return p, rng.choice((q, -q))


def torus_qs(p):
    return [q for q in range(p + 1, TORUS_Q_MAX + 1) if math.gcd(p, q) == 1]


def over_cap():
    """p -> the set of q drawn by ``torus_qs`` whose T(p, q) exceeded the
    rings.divide cap when ``torus_cap.json`` was recorded."""
    with open(TORUS_CAP_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(p): set(qs) for p, qs in doc["over_cap"].items()}


def lens_pairs():
    return [(p, q) for p in _odd(3, LENS_P_MAX) for q in range(1, p)
            if math.gcd(p, q) == 1]


def job(argv, check, info=None):
    argv = [str(a) for a in argv]
    key = list(argv)
    if "--out" in key:
        key[key.index("--out") + 1] = "OUT"
    return {"argv": argv, "key": " ".join(key), "check": check,
            "info": info or {}}


def _tb_job(p, q, ring, out):
    return job(["two-bridge", "--p", p, "--q", q, "--ring", ring,
                "--out", out], "two_bridge",
               {"p": p, "q": q, "ring": ring, "out": out})


def generate_deck(rng, pool, index):
    # Jobs come in groups; a two-bridge job and the validate of the file
    # it wrote form one group, so they stay together when groups shuffle.
    groups = []
    for k, ring in enumerate(TB_RINGS):
        p, q = tb_draw(rng, *TB_BANDS[(k + index) % len(TB_BANDS)])
        out = f"tb_{ring}.json"
        groups.append([_tb_job(p, q, ring, out),
                       job(["validate", "--in", out], "validate_two_bridge")])
    for i, p in enumerate(TORUS_PS):
        over = pool["over_cap"].get(p, set())
        qs = [q for q in torus_qs(p)
              if (q in over) == (bool(over) and (index + i) % 2 == 1)]
        k = (index + i) % TORUS_SLICES
        q = rng.choice(qs[k * len(qs) // TORUS_SLICES:
                          (k + 1) * len(qs) // TORUS_SLICES])
        groups.append([job(["torus", "--p", p, "--q", q], "torus",
                           {"p": p, "q": q})])
    for p, q in KNOWN_DEFECT_TORUS:
        groups.append([job(["torus", "--p", p, "--q", q], "torus",
                           {"p": p, "q": q})])
    for p, q in rng.sample(lens_pairs(), 2):
        groups.append([job(["lens", "--p", p, "--q", q], "digest")])
    for argv, check, info in README_JOBS:
        groups.append([job(argv, check, info)])
    rng.shuffle(groups)
    deck = []
    for group in groups:
        first = len(deck)
        deck.extend(group)
        for dependent in group[1:]:
            dependent["needs"] = first
    return deck


# ---------------------------------------------------------------------------
# invariants: in-process scx.cli.run jobs over prepared complexes

INV_TB_PS = _odd(35, 51)
INV_TB_QS = (3, 5, 7, 9, 11, 13)
# One two-bridge complex per ring from each p band; deck i uses band
# i mod 4, so every run of four or more decks costs about the same.
INV_TB_BANDS = ((35, 37), (39, 43), (45, 47), (49, 51))
U1 = ["--specialize", "U=1"]
UT1 = ["--specialize", "U=1", "--specialize", "T=1"]
# (a, b) of trefoil^a (x) dual(trefoil^b); h is a - b.
MIXED = ((1, 1), (2, 1), (1, 2), (3, 2))


def inv_tb_pairs():
    return [(p, q) for p in INV_TB_PS for q in INV_TB_QS
            if q < p and math.gcd(p, q) == 1]


def invariants_pool(seed):
    rng = random.Random(f"{seed}:invariants:pool")
    pairs = inv_tb_pairs()
    return {ring: [rng.choice([(p, q) for p, q in pairs if lo <= p <= hi])
                   for lo, hi in INV_TB_BANDS]
            for ring in ("z", "f2t")}


def fixed_inputs(workload):
    """Input file name -> recipe shared by every seed."""
    if workload == "generate":
        return {"trefoil.json": ("power", 1)}
    if workload == "model-check":
        return {"T1.json": ("power", 1), "t34.json": ("fixture", "t34"),
                "t35.json": ("fixture", "t35")}
    out = {f"T{k}.json": ("power", k) for k in range(1, 5)}
    out.update({f"M{a}{b}.json": ("mixed", a, b) for a, b in MIXED})
    out["t34.json"] = ("fixture", "t34")
    out["t35.json"] = ("fixture", "t35")
    return out


def tb_name(ring, p, q):
    return f"tb{ring}_{p}_{q}.json"


def invariants_inputs(seed):
    out = fixed_inputs("invariants")
    for ring, pairs in invariants_pool(seed).items():
        for p, q in pairs:
            out[tb_name(ring, p, q)] = ("two-bridge", p, q, ring)
    return out


def _inv_templates(z, f):
    """The invariants jobs of one deck, given its two-bridge complexes
    ``z`` (over Z, trusted v) and ``f`` (over F2[T^±1])."""
    tbz, tbf = tb_name("z", *z), tb_name("f2t", *f)
    out = []
    # h of trefoil^3 over f2t and qt costs about what euler of trefoil^4
    # does: with them the median job of a run falls inside a group of
    # twelve jobs of like cost, not on a step between two costs.
    for name, ring, h in (("T4", "f2t", 4), ("T4", "qt", 4), ("T3", "zt", 3),
                          ("T3", "f2t", 3), ("T3", "qt", 3),
                          ("M21", "f2t", 1), ("M12", "qt", -1),
                          ("M11", "zt", 0)):
        out.append(job(["h", "--in", f"{name}.json", *U1, "--ring", ring],
                       "h", {"h": h}))
    out.append(job(["h", "--in", "T4.json", *UT1, "--ring", "q"], "digest"))
    out.append(job(["h", "--in", tbz], "digest"))
    for name in ("t34.json", "t35.json"):
        out.append(job(["h", "--in", name], "digest"))
    out.append(job(["jideals", "--in", "T4.json", *U1, "--ring", "f2t",
                    "--min", "-1", "--max", "5"], "jideals", {"ring": "f2t"}))
    out.append(job(["jideals", "--in", "T3.json", *U1, "--ring", "qt",
                    "--min", "-1", "--max", "4"], "jideals", {"ring": "qt"}))
    out.append(job(["jideals", "--in", tbz, "--min", "-1", "--max", "3"],
                   "jideals", {"ring": "z"}))
    for k in range(1, 5):
        out.append(job(["gamma", "--in", f"T{k}.json", "--min", "-2",
                        "--max", "5"], "gamma",
                       {"h": k, "trefoil": k == 1}))
    for k in (3, 4):
        out.append(job(["sharp", "--in", f"T{k}.json", "--twisted", *U1,
                        "--ring", "qt"], "digest"))
    out.append(job(["sharp", "--in", tbf], "digest"))
    out.append(job(["hat-presentation", "--in", "T1.json", *U1, "--ring",
                    "f2t"], "digest"))
    # trefoil^2 has a nonzero small-model differential: an expected refusal
    out.append(job(["hat-presentation", "--in", "T2.json", *U1, "--ring",
                    "f2t"], "digest"))
    out.append(job(["hat-presentation", "--in", tbz], "digest"))
    out.append(job(["bn-presentation", "--in", "T1.json", *U1, "--ring",
                    "f2t", "--target", "bn"], "digest"))
    for name in ("M32.json", tbf, "T4.json"):
        out.append(job(["euler", "--in", name], "digest"))
    return out


def invariants_deck(rng, pool, index):
    band = index % len(INV_TB_BANDS)
    deck = _inv_templates(pool["z"][band], pool["f2t"][band])
    rng.shuffle(deck)
    return deck


def invariants_catalog():
    """Every invariants job any seed can draw."""
    seen = {}
    pairs = inv_tb_pairs()
    for z, f in zip(pairs, pairs[1:] + pairs[:1]):
        for j in _inv_templates(z, f):
            seen[j["key"]] = j
    return list(seen.values())


def invariants_catalog_inputs():
    out = fixed_inputs("invariants")
    for p, q in inv_tb_pairs():
        out[tb_name("z", p, q)] = ("two-bridge", p, q, "z")
        out[tb_name("f2t", p, q)] = ("two-bridge", p, q, "f2t")
    return out


# ---------------------------------------------------------------------------
# model-check: in-process tensor / dual / validate / model-check jobs

MC_ONE = ("tref", "dtref", "mtref")      # one-generator primitives
MC_THREE = ("t34", "dt34")               # three-generator primitives
# The random complexes' slots: ring and shape are fixed, so that every
# seed pays for the same work; the seed draws only the primitives, their
# order and a final dual, choices whose model-check costs are the same
# within the machine's noise.  Every deck checks the six small complexes
# (4 generators) and three medium ones (10 generators; 2n+1 is
# multiplicative under tensor product).  In a run of three decks these
# counts put the median job inside the class of the small ones, and the
# tail rank inside that of the medium ones, not on the edge between two
# classes of job cost.
MC_SMALL_RINGS = ("zt", "zt", "zt", "f2t", "f2t", "f2t")
MC_MEDIUM_RINGS = ("zt", "f2t", "zt")


def mc_random_name(ring, a, b, dual):
    return f"R_{ring}_{a}_{b}{'_d' if dual else ''}.json"


def model_check_pool(seed):
    rng = random.Random(f"{seed}:model-check:pool")

    def draw(ring, others):
        a, b = rng.choice(MC_ONE), rng.choice(others)
        if rng.random() < 0.5:
            a, b = b, a
        return ring, a, b, rng.random() < 0.5

    return {"small": [draw(r, MC_ONE) for r in MC_SMALL_RINGS],
            "medium": [draw(r, MC_THREE) for r in MC_MEDIUM_RINGS]}


def model_check_inputs(seed):
    out = fixed_inputs("model-check")
    for entries in model_check_pool(seed).values():
        for ring, a, b, d in entries:
            out[mc_random_name(ring, a, b, d)] = ("random", ring, a, b, d)
    return out


def model_check_deck(rng, pool, index):
    deck = [
        job(["tensor", "--a", "T1.json", "--b", "T1.json", "--out", "T2.json"],
            "tensor", {"a": "T1.json", "b": "T1.json", "out": "T2.json"}),
        job(["tensor", "--a", "T2.json", "--b", "T1.json", "--out", "T3.json"],
            "tensor", {"a": "T2.json", "b": "T1.json", "out": "T3.json"}),
        job(["tensor", "--a", "T2.json", "--b", "T2.json", "--out", "T4.json"],
            "tensor", {"a": "T2.json", "b": "T2.json", "out": "T4.json"}),
        job(["dual", "--in", "T2.json", "--out", "D2.json", "--grading",
             "reverse"], "dual", {"in": "T2.json", "out": "D2.json"}),
        job(["tensor", "--a", "T3.json", "--b", "D2.json", "--out",
             "M32.json"], "tensor",
            {"a": "T3.json", "b": "D2.json", "out": "M32.json"}),
    ]
    for name in ("T3.json", "T4.json", "M32.json"):
        deck.append(job(["validate", "--in", name], "ok_report"))
    names = [mc_random_name(*e) for e in pool["small"] + pool["medium"]]
    checks = []
    for name in names + ["t34.json", "t35.json", "T2.json"]:
        checks.append((name, 5))
    checks += [("T3.json", 3), ("T4.json", 1)]
    rng.shuffle(checks)
    for name, trunc in checks:
        deck.append(job(["model-check", "--in", name, "--truncation", trunc],
                        "ok_report"))
    return deck


# ---------------------------------------------------------------------------


def inputs(workload, seed):
    """Input file name -> recipe, built by ``setup_inputs.py``."""
    if workload == "invariants":
        return invariants_inputs(seed)
    if workload == "model-check":
        return model_check_inputs(seed)
    return fixed_inputs(workload)


def pool(workload, seed):
    if workload == "invariants":
        return invariants_pool(seed)
    if workload == "model-check":
        return model_check_pool(seed)
    return {"over_cap": over_cap()}


_DECKS = {"generate": generate_deck, "invariants": invariants_deck,
          "model-check": model_check_deck}
# Wall time of one deck, with the speed references between its jobs, on
# the 2-vCPU machine the benchmark was tuned on, in a fast spell.  A run
# of 22 seconds is three decks of generate and model-check and four of
# invariants.
NOMINAL_DECK_S = {"generate": 7.3, "invariants": 5.9, "model-check": 7.4}


def deck_count(workload, seconds):
    """Whole decks in a run of about ``seconds``: fixed per workload and
    run length, so that every run does the same jobs whatever the speed
    of the machine, and the tail percentile always falls on the same
    kind of job."""
    return max(2, round(seconds / NOMINAL_DECK_S[workload]))


def deck(workload, seed, index, pool_):
    rng = random.Random(f"{seed}:{workload}:deck{index}")
    return _DECKS[workload](rng, pool_, index)


def generate_catalog():
    """Every digest-checked generate job any seed can draw."""
    out = []
    for lo, hi in TB_BANDS:
        for p in _odd(lo, hi):
            for q in tb_qs(p):
                for ring in TB_RINGS:
                    out.append(_tb_job(p, q, ring, "tb.json"))
    for p, q in lens_pairs():
        out.append(job(["lens", "--p", p, "--q", q], "digest"))
    for argv, check, info in README_JOBS:
        out.append(job(argv, check, info))
    return out
