"""Shared randomized-instance generators, the golden triple corpus, the
benchmark's verify-audit systems, the full copula K(p_1, ..., p_n) that the
exchangeable reductions are tested against, and their 50-digit closed forms
K_j and K_j'."""

import importlib.util
from pathlib import Path

import numpy as np
from mpmath import mpf

from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence, copula_from_dict
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.systems import Structure, SystemModel, build_distortion, k_of_n_paths
from coherent_age.verifier import verify_bstar, verify_cstar


def random_structure(rng, n):
    for _ in range(20):
        count = int(rng.integers(1, 4))
        cand = set()
        for _ in range(count):
            size = int(rng.integers(1, n + 1))
            members = rng.choice(np.arange(1, n + 1), size=size, replace=False)
            cand.add(frozenset(int(i) for i in members))
        minimal = {a for a in cand if not any(b < a for b in cand)}
        if set().union(*minimal) == set(range(1, n + 1)):
            return Structure.from_paths(n, minimal)
    return Structure.series(n)


def random_copula(rng, n):
    kinds = ["independence", "gumbel", "clayton"] + (["fgm"] if n == 3 else [])
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "independence":
        return Independence(n)
    if kind == "gumbel":
        return GumbelHougaard(theta=float(rng.uniform(1.0, 3.0)), dim=n)
    if kind == "clayton":
        return ClaytonOakes(theta=float(rng.uniform(0.3, 3.0)), dim=n)
    return FGM(theta=float(rng.uniform(-1.0, 1.0)))


def random_margin_pair(rng, relation):
    """Margin pairs biased so a decent share satisfies the order hypotheses."""
    roll = rng.random()
    if relation == "c_star":
        if roll < 0.4:
            alpha = float(rng.uniform(0.3, 2.0))
            beta = float(rng.uniform(0.0, 2.0))
            scale = float(rng.uniform(1.0, 3.0))
            return LinearFailureRate(alpha, beta), LinearFailureRate(alpha * scale, beta)
        if roll < 0.7:
            shape = float(rng.uniform(0.6, 3.0))
            lam = float(rng.uniform(0.5, 2.0))
            return Weibull(shape, lam), Weibull(shape, lam / float(rng.uniform(1.0, 2.5)))
    else:
        if roll < 0.7:
            rate = float(rng.uniform(0.5, 3.0))
            return Exponential(rate * float(rng.uniform(1.0, 3.0))), Exponential(rate)
    makers = [
        lambda: Exponential(float(rng.uniform(0.3, 3.0))),
        lambda: LinearFailureRate(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.0, 2.0))),
        lambda: Weibull(float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.4, 2.5))),
    ]
    return makers[int(rng.integers(0, 3))](), makers[int(rng.integers(0, 3))]()


def random_instance(rng, relation):
    n1 = int(rng.integers(2, 5))
    n2 = int(rng.integers(2, 5))
    mx, my = random_margin_pair(rng, relation)
    sys1 = SystemModel(random_structure(rng, n1), random_copula(rng, n1), mx)
    sys2 = SystemModel(random_structure(rng, n2), random_copula(rng, n2), my)
    return sys1, sys2


def audit_distortions(seed):
    """The distortions of both systems of each item of the benchmark's
    verify-audit round at seed, from its inputs module, which imports
    nothing of the program."""
    spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = []
    for item in inputs.audit_items(seed):
        for block in (item["system1"], item["system2"]):
            n = block["structure"]["n"]
            structure = Structure.from_paths(n, block["structure"]["paths"])
            out.append(build_distortion(structure, copula_from_dict(block["copula"], n)))
    return out


def clayton_pairs(rng, count):
    """(verify, system1, system2) for count random Clayton-Oakes pairs with
    theta log-uniform on [0.05, 8], then parallel(5) under Exp(3) against
    parallel(8) under Exp(2) at theta 0.05 and at theta 8."""
    pairs = []
    for i in range(count):
        relation = ("c_star", "b_star")[i % 2]
        mx, my = random_margin_pair(rng, relation)
        systems = []
        for margin in (mx, my):
            n = int(rng.integers(2, 7))
            theta = float(np.exp(rng.uniform(np.log(0.05), np.log(8.0))))
            systems.append(SystemModel(random_structure(rng, n), ClaytonOakes(theta, n), margin))
        pairs.append((verify_cstar if relation == "c_star" else verify_bstar, *systems))
    for theta in (0.05, 8.0):
        sys1 = SystemModel(Structure.parallel(5), ClaytonOakes(theta, 5), Exponential(3.0))
        sys2 = SystemModel(Structure.parallel(8), ClaytonOakes(theta, 8), Exponential(2.0))
        pairs.append((verify_bstar, sys1, sys2))
    return pairs


def golden_corpus():
    """Twelve (structure, copula, margin) triples spanning all families,
    including the two fully worked setups."""
    pair_series = Structure.from_paths(3, [[1, 2], [1, 3]])
    bridge_ish = Structure.from_paths(4, [[1, 2], [3, 4], [1, 4]])
    return [
        ("fgm-pair-series", pair_series, FGM(1.0), LinearFailureRate(1.0, 1.0)),
        ("series3-indep", Structure.series(3), Independence(3), LinearFailureRate(2.0, 1.0)),
        ("gumbel-series4", Structure.series(4), GumbelHougaard(2.0, 4), Exponential(3.0)),
        ("gumbel-series2", Structure.series(2), GumbelHougaard(2.0, 2), Exponential(2.0)),
        ("parallel2-indep", Structure.parallel(2), Independence(2), Exponential(1.0)),
        ("two-of-three-indep", k_of_n_paths(2, 3), Independence(3), Weibull(2.0, 1.0)),
        ("fgm-two-of-three", k_of_n_paths(2, 3), FGM(-0.5), LinearFailureRate(1.0, 0.5)),
        ("clayton-series3", Structure.series(3), ClaytonOakes(1.0, 3), Exponential(2.0)),
        ("clayton-parallel3", Structure.parallel(3), ClaytonOakes(2.0, 3), Weibull(0.8, 2.0)),
        ("gumbel-two-of-three", k_of_n_paths(2, 3), GumbelHougaard(1.5, 3), Exponential(1.0)),
        ("bridge-indep", bridge_ish, Independence(4), LinearFailureRate(2.0, 1.0)),
        ("gumbel-two-of-four", k_of_n_paths(2, 4), GumbelHougaard(2.0, 4), Exponential(2.0)),
    ]


def _independence_k(cop, pts):
    return np.prod(pts, axis=-1)


def _fgm_k(cop, pts):
    return np.prod(pts, axis=-1) * (1.0 + cop.theta * np.prod(1.0 - pts, axis=-1))


def _gumbel_k(cop, pts):
    out = np.zeros(pts.shape[0])
    alive = np.all(pts > 0.0, axis=-1)
    if np.any(alive):
        with np.errstate(divide="ignore"):
            t = -np.log(pts[alive])
        tmax = np.max(t, axis=-1)
        # max-normalised power sum keeps t**theta from overflowing
        pos = tmax > 0.0
        s = np.zeros_like(tmax)
        if np.any(pos):
            ratio = t[pos] / tmax[pos, None]
            s[pos] = tmax[pos] * np.sum(ratio**cop.theta, axis=-1) ** (1.0 / cop.theta)
        out[alive] = np.exp(-s)
    return out


def _clayton_k(cop, pts):
    out = np.zeros(pts.shape[0])
    alive = np.all(pts > 0.0, axis=-1)
    if np.any(alive):
        with np.errstate(divide="ignore"):
            w = -cop.theta * np.log(pts[alive])  # = ln p^-theta >= 0
        wmax = np.max(w, axis=-1)
        n = pts.shape[-1]
        # ln(sum e^w - (n-1)) computed relative to the max exponent
        inner = np.sum(np.exp(w - wmax[:, None]), axis=-1) - (n - 1) * np.exp(-wmax)
        log_s = wmax + np.log(inner)
        out[alive] = np.exp(-log_s / cop.theta)
    return out


_COPULA_K = {Independence: _independence_k, FGM: _fgm_k, GumbelHougaard: _gumbel_k, ClaytonOakes: _clayton_k}


def copula_eval(cop, p):
    """K(p_1, ..., p_n) of ``cop`` at a length-n point (a float) or at a
    batch of points, one per row (an array)."""
    pa = np.asarray(p, dtype=float)
    if pa.shape[-1:] != (cop.dim,):
        raise ValueError(f"expected point(s) of dimension {cop.dim}, got shape {pa.shape}")
    if np.any((pa < 0.0) | (pa > 1.0)):
        raise ValueError("copula arguments must lie in [0, 1]")
    out = _COPULA_K[type(cop)](cop, np.atleast_2d(pa))
    return float(out[0]) if pa.ndim == 1 else out


def exact_exch(cop, t, j):
    """K_j and K_j' at an mpmath point t, from each family's closed form."""
    if isinstance(cop, ClaytonOakes):
        theta = mpf(cop.theta)
        base = j * t**-theta - (j - 1)
        return base ** (-1 / theta), j * t ** (-theta - 1) * base ** (-1 / theta - 1)
    if isinstance(cop, FGM) and j == 3:
        theta = mpf(cop.theta)
        tail = 1 + theta * (1 - t) ** 3
        return t**3 * tail, 3 * t**2 * tail - 3 * theta * t**3 * (1 - t) ** 2
    # independence, FGM below j = 3, and Gumbel-Hougaard: K_j = t^power
    power = mpf(j) ** (1 / mpf(cop.theta)) if isinstance(cop, GumbelHougaard) else j
    return t**power, power * t ** (power - 1)
