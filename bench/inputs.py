"""Seeded inputs of the four benchmark workloads.

Inputs are plain spec-shaped dicts, as the command line reads them, so the
program receives only generated data.  This module imports neither the
program nor mpmath: the set-up timing imports it after the program.
"""

from __future__ import annotations

import random
from itertools import combinations

# the bundled specs, each with the subcommand that runs it; fixed so that
# a spec added later does not change the workload between two commits
CLI_SPECS = (
    ("distortion", "specs/fgm_distortion_table.json"),
    ("check-order", "specs/margins_check_order.json"),
    ("verify", "specs/fgm_lfr_verify.json"),
    ("verify", "specs/gumbel_exp_verify.json"),
    ("simulate", "specs/series3_simulate.json"),
    ("corollary", "specs/corollary_indices.json"),
)

# verify-audit: random pairs drawn per relation in one round
AUDIT_PAIRS = 70
# kofn-corollary: every k-out-of-n with n <= KOFN_MAX_N.  All have at most
# 20 = C(6, 3) minimal path sets, the program's MAX_PATH_SETS.
KOFN_MAX_N = 6
KOFN_MARGINS = {
    "c_star": ({"family": "exp", "rate": 2.0}, {"family": "exp", "rate": 3.0}),
    "b_star": ({"family": "exp", "rate": 3.0}, {"family": "exp", "rate": 2.0}),
}


def _system(n, paths, copula, margin):
    return {"structure": {"n": n, "paths": [sorted(p) for p in paths]}, "copula": copula, "margin": margin}


def corollary_holds(k, n, l, m, relation):
    """The paper's index predicate for k-out-of-n vs l-out-of-m."""
    if relation == "c_star":
        return k <= l and m - l <= n - k
    return l <= k and n - k <= m - l


# the twelve (structure, copula, margin) triples of acceptance criteria 5 and 7
_PAIR_SERIES = [[1, 2], [1, 3]]
_BRIDGE = [[1, 2], [3, 4], [1, 4]]


def _kofn_paths(k, n):
    return [list(c) for c in combinations(range(1, n + 1), k)]


GOLDEN = (
    ("fgm-pair-series", 3, _PAIR_SERIES, {"copula": "fgm", "theta": 1.0}, {"family": "lfr", "alpha": 1.0, "beta": 1.0}),
    ("series3-indep", 3, [[1, 2, 3]], {"copula": "independence"}, {"family": "lfr", "alpha": 2.0, "beta": 1.0}),
    ("gumbel-series4", 4, [[1, 2, 3, 4]], {"copula": "gumbel", "theta": 2.0}, {"family": "exp", "rate": 3.0}),
    ("gumbel-series2", 2, [[1, 2]], {"copula": "gumbel", "theta": 2.0}, {"family": "exp", "rate": 2.0}),
    ("parallel2-indep", 2, [[1], [2]], {"copula": "independence"}, {"family": "exp", "rate": 1.0}),
    ("two-of-three-indep", 3, _kofn_paths(2, 3), {"copula": "independence"}, {"family": "weibull", "shape": 2.0, "scale": 1.0}),
    ("fgm-two-of-three", 3, _kofn_paths(2, 3), {"copula": "fgm", "theta": -0.5}, {"family": "lfr", "alpha": 1.0, "beta": 0.5}),
    ("clayton-series3", 3, [[1, 2, 3]], {"copula": "clayton", "theta": 1.0}, {"family": "exp", "rate": 2.0}),
    ("clayton-parallel3", 3, [[1], [2], [3]], {"copula": "clayton", "theta": 2.0}, {"family": "weibull", "shape": 0.8, "scale": 2.0}),
    ("gumbel-two-of-three", 3, _kofn_paths(2, 3), {"copula": "gumbel", "theta": 1.5}, {"family": "exp", "rate": 1.0}),
    ("bridge-indep", 4, _BRIDGE, {"copula": "independence"}, {"family": "lfr", "alpha": 2.0, "beta": 1.0}),
    ("gumbel-two-of-four", 4, _kofn_paths(2, 4), {"copula": "gumbel", "theta": 2.0}, {"family": "exp", "rate": 2.0}),
)
# triples whose integral identity check runs in the oracle round.  All
# twelve take 41 s on a 2-CPU machine, longer than a run; these five cover
# all four copula families and take about 7 s.  Of the seven left out,
# bridge-indep takes 1.6 s and the others (Gumbel with theta = 1.5 or with
# the non-integer powers j^(1/theta) of theta = 2 on a series of two, the
# Clayton parallel, the FGM pair series) 2.6-8.4 s each.
IDENTITY_TRIPLES = (
    "series3-indep",
    "gumbel-series4",
    "parallel2-indep",
    "clayton-series3",
    "fgm-two-of-three",
)


def golden_triples():
    return [
        {"name": name, "system": _system(n, paths, copula, margin), "identity": name in IDENTITY_TRIPLES}
        for name, n, paths, copula, margin in GOLDEN
    ]


def _random_structure(rng, n):
    for _ in range(20):
        cand = set()
        for _ in range(rng.randint(1, 3)):
            cand.add(frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))))
        minimal = [a for a in cand if not any(b < a for b in cand)]
        if set().union(*minimal) == set(range(1, n + 1)):
            return sorted(sorted(p) for p in minimal)
    return [list(range(1, n + 1))]


def _random_copula(rng, n):
    kinds = ["independence", "gumbel", "clayton"] + (["fgm"] if n == 3 else [])
    kind = rng.choice(kinds)
    if kind == "independence":
        return {"copula": "independence"}
    if kind == "gumbel":
        return {"copula": "gumbel", "theta": rng.uniform(1.0, 3.0)}
    if kind == "clayton":
        return {"copula": "clayton", "theta": rng.uniform(0.3, 3.0)}
    return {"copula": "fgm", "theta": rng.uniform(-1.0, 1.0)}


def _random_margin(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return {"family": "exp", "rate": rng.uniform(0.3, 3.0)}
    if kind == 1:
        return {"family": "lfr", "alpha": rng.uniform(0.3, 3.0), "beta": rng.uniform(0.0, 2.0)}
    return {"family": "weibull", "shape": rng.uniform(0.6, 3.0), "scale": rng.uniform(0.4, 2.5)}


def _random_margin_pair(rng, relation):
    """Margin pairs biased so that a good share meets condition (iv)."""
    roll = rng.random()
    if relation == "c_star":
        if roll < 0.4:
            alpha, beta, scale = rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0), rng.uniform(1.0, 3.0)
            return ({"family": "lfr", "alpha": alpha, "beta": beta},
                    {"family": "lfr", "alpha": alpha * scale, "beta": beta})
        if roll < 0.7:
            shape, lam = rng.uniform(0.6, 3.0), rng.uniform(0.5, 2.0)
            return ({"family": "weibull", "shape": shape, "scale": lam},
                    {"family": "weibull", "shape": shape, "scale": lam / rng.uniform(1.0, 2.5)})
    elif roll < 0.7:
        rate = rng.uniform(0.5, 3.0)
        return {"family": "exp", "rate": rate * rng.uniform(1.0, 3.0)}, {"family": "exp", "rate": rate}
    return _random_margin(rng), _random_margin(rng)


def _random_item(rng, relation):
    m1, m2 = _random_margin_pair(rng, relation)
    blocks = []
    for margin in (m1, m2):
        n = rng.randint(2, 4)
        blocks.append(_system(n, _random_structure(rng, n), _random_copula(rng, n), margin))
    return {"system1": blocks[0], "system2": blocks[1], "relation": relation}


def audit_items(seed):
    rng = random.Random(seed)
    return [_random_item(rng, rel) for _ in range(AUDIT_PAIRS) for rel in ("c_star", "b_star")]


def kofn_items():
    systems = [(k, n) for n in range(1, KOFN_MAX_N + 1) for k in range(1, n + 1)]
    items = []
    for k, n in systems:
        for l, m in systems:
            if (k, n) == (l, m):
                continue
            for relation, (mx, my) in KOFN_MARGINS.items():
                if corollary_holds(k, n, l, m, relation):
                    items.append({
                        "system1": _system(n, _kofn_paths(k, n), {"copula": "independence"}, mx),
                        "system2": _system(m, _kofn_paths(l, m), {"copula": "independence"}, my),
                        "relation": relation,
                        "kofn": [k, n, l, m],
                    })
    return items


def make(workload, seed):
    """The workload's operations for one round, in the seed's order.

    Only verify-audit draws its systems from the seed.  The other
    workloads have fixed inputs, so that the operations the kept fault hits
    do not depend on the seed; the seed orders them, and picks the
    simulation seeds.
    """
    rng = random.Random(seed)
    if workload == "cli-specs":
        items = [{"command": c, "spec": s} for c, s in CLI_SPECS]
        sim_seed = rng.randrange(2**32)
        for item in items:
            if item["command"] == "simulate":
                item["seed"] = sim_seed
    elif workload == "verify-audit":
        items = audit_items(seed)
    elif workload == "kofn-corollary":
        items = kofn_items()
    elif workload == "oracle":
        items = golden_triples()
        for item in items:
            item["seed"] = rng.randrange(2**32)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items

