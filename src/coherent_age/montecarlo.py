"""Copula-sampling oracle validating distortions and system survival curves.

Sampling is split across independent substreams spawned from one 64-bit seed
(numpy SeedSequence); the substreams run in order and their blocks are
concatenated in stream order, so output is bit-identical for a fixed
(seed, stream_count).

Samplers: the independence law (Independence, Gumbel-Hougaard at theta = 1,
FGM at theta = 0) draws directly; the trivariate FGM uses rejection against
independence with density bound 1 + |theta|; Gumbel-Hougaard uses the
positive-stable frailty construction (Chambers-Mallows-Stuck for the stable
variable); Clayton-Oakes uses a gamma frailty.

Rows are uniforms whose joint distribution function is the survival copula
K, so component lifetimes are recovered through the survival inverse
X_i = isf(U_i) and the system survival identity P(tau > x) = h(sf(x)) can be
validated empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .copulas import ClaytonOakes, Copula, FGM, GumbelHougaard, _is_independence
from .distributions import LifetimeDistribution
from .systems import Structure, build_distortion

__all__ = ["SimConfig", "sample_copula", "simulate_system", "SimulationResult"]

_FGM_MAX_ROUNDS = 256


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seed and substream split; output is deterministic in all three."""

    sample_count: int = 100_000
    seed: int = 0
    stream_count: int = 4

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.stream_count < 1:
            raise ValueError("stream_count must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


def sample_copula(copula: Copula, cfg: SimConfig) -> np.ndarray:
    """Sample cfg.sample_count rows from the copula, shape (N, dim)."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.stream_count)
    base, extra = divmod(cfg.sample_count, cfg.stream_count)
    counts = [base + (1 if i < extra else 0) for i in range(cfg.stream_count)]
    chunks = [
        _sample_chunk(copula, count, np.random.default_rng(child))
        for child, count in zip(children, counts)
        if count > 0
    ]
    return np.vstack(chunks)


def _sample_chunk(copula: Copula, count: int, rng: np.random.Generator) -> np.ndarray:
    if _is_independence(copula):
        return rng.random((count, copula.dim))
    if isinstance(copula, FGM):
        return _sample_fgm(copula.theta, count, rng)
    if isinstance(copula, GumbelHougaard):
        return _sample_gumbel(copula.theta, copula.dim, count, rng)
    if isinstance(copula, ClaytonOakes):
        return _sample_clayton(copula.theta, copula.dim, count, rng)
    raise TypeError(f"no sampler for copula type {type(copula).__name__}")


def _sample_fgm(theta: float, count: int, rng: np.random.Generator,
                max_rounds: int = _FGM_MAX_ROUNDS) -> np.ndarray:
    bound = 1.0 + abs(theta)
    out = np.empty((count, 3))
    filled = 0
    proposed = 0
    for _ in range(max_rounds):
        if filled == count:
            break
        need = count - filled
        batch = max(1024, int(1.5 * need * bound))
        u = rng.random((batch, 3))
        # three column temporaries cost less than one (batch, 3) array;
        # the product order, and so every bit, is that of np.prod(axis=1)
        v0, v1, v2 = (1.0 - 2.0 * u[:, i] for i in range(3))
        density = 1.0 + theta * (v0 * v1 * v2)
        accept = rng.random(batch) * bound < density
        proposed += batch
        take = u[np.flatnonzero(accept)[:need]]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    if filled < count:
        rate = filled / max(proposed, 1)
        raise RuntimeError(
            f"FGM rejection sampler hit the round cap with acceptance rate {rate:.3f}"
        )
    return out


def _sample_gumbel(theta: float, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    alpha = 1.0 / theta
    # positive stable frailty with Laplace transform exp(-t^alpha)
    w = rng.uniform(0.0, np.pi, count)
    e0 = rng.standard_exponential(count)
    stable = (np.sin(alpha * w) / np.sin(w) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * w) / e0
    ) ** ((1.0 - alpha) / alpha)
    e = rng.standard_exponential((count, dim))
    return np.exp(-((e / stable[:, None]) ** alpha))


def _sample_clayton(theta: float, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    frailty = rng.gamma(shape=1.0 / theta, scale=1.0, size=count)
    e = rng.standard_exponential((count, dim))
    return (1.0 + e / frailty[:, None]) ** (-1.0 / theta)


def _system_lifetime(lifetimes: np.ndarray, paths) -> np.ndarray:
    """Max over paths of the min within each path, elementwise on column views."""
    columns = lifetimes.T
    path_mins = (reduce(np.minimum, [columns[i - 1] for i in sorted(path)]) for path in paths)
    return reduce(np.maximum, path_mins)


def _count_survivors(tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Count of tau > x for each x, from one sort; a NaN lifetime never counts."""
    ordered = np.sort(tau)
    valid = ordered.size - np.count_nonzero(np.isnan(ordered))
    # NaNs sort last, so entries <= x come first; a NaN x lands past them all
    at_most = np.searchsorted(ordered, x, side="right")
    return valid - np.minimum(at_most, valid)


@dataclass(frozen=True)
class SimulationResult:
    """Empirical vs analytic system survival on an evaluation grid."""

    x: np.ndarray
    empirical_sf: np.ndarray
    analytic_sf: np.ndarray
    std_err: np.ndarray
    sample_count: int
    seed: int
    stream_count: int

    def standardized_deviations(self) -> np.ndarray:
        diff = np.abs(self.empirical_sf - self.analytic_sf)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = diff / self.std_err
        return np.where(self.std_err > 0.0, dev, np.where(diff == 0.0, 0.0, np.inf))

    @property
    def max_standardized_deviation(self) -> float:
        return float(np.max(self.standardized_deviations()))


def simulate_system(
    structure: Structure,
    copula: Copula,
    margin: LifetimeDistribution,
    cfg: SimConfig,
    x_grid: np.ndarray | None = None,
) -> SimulationResult:
    """Empirical survival of the system lifetime against the analytic h(sf(x)).

    Uniform rows are pushed through the survival inverse to give component
    lifetimes; the system lifetime is the best path (max over minimal path
    sets of the min within the path).
    """
    if copula.dim != structure.n:
        raise ValueError(
            f"copula dimension {copula.dim} does not match component count {structure.n}"
        )
    if x_grid is None:
        # component-reliability spread 0.9 -> 0.1 gives an increasing x grid
        # that keeps the empirical curve away from 0 and 1
        x_grid = np.asarray(margin.isf(np.linspace(0.9, 0.1, 20)), dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)

    uniforms = sample_copula(copula, cfg)
    lifetimes = np.asarray(margin.isf(uniforms), dtype=float)
    tau = _system_lifetime(lifetimes, structure.paths)

    emp = _count_survivors(tau, x_grid) / tau.size
    distortion = build_distortion(structure, copula)
    ana = np.asarray(distortion.h(margin.sf(x_grid)), dtype=float)
    se = np.sqrt(emp * (1.0 - emp) / cfg.sample_count)
    return SimulationResult(
        x=x_grid,
        empirical_sf=emp,
        analytic_sf=ana,
        std_err=se,
        sample_count=cfg.sample_count,
        seed=cfg.seed,
        stream_count=cfg.stream_count,
    )
