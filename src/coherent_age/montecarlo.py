"""Copula-sampling oracle validating distortions and system survival curves.

Sampling is split across independent substreams spawned from one 64-bit seed
(numpy SeedSequence); the substreams run in order and their blocks are
concatenated in stream order, so output is bit-identical for a fixed
(seed, stream_count).

Each sampler draws a latent array and a row map to uniforms whose joint
distribution function is the survival copula K.  The independence law
(Independence, Gumbel-Hougaard at theta = 1, FGM at theta = 0) and the
trivariate FGM (rejection against independence, density bound 1 + |theta|)
draw the uniforms themselves.  Gumbel-Hougaard (positive-stable frailty V,
Chambers-Mallows-Stuck) and Clayton-Oakes (gamma frailty V) draw exponentials
E_i and map them to U_i = phi(E_i / V), with phi decreasing.

The system lifetime max_P min_{i in P} isf(U_i) is reduced before any
per-component transform.  isf is decreasing, so it is isf(min_P max_{i in P}
U_i) for the uniform families and isf(phi(max_P min_{i in P} E_i / V)) for
the frailty ones: one map and one isf per row.  This equals inverting every
component where isf(phi(.)) keeps the order of a row's components in floating
point, which no theorem gives (LinearFailureRate(1, 1).isf reverses some
adjacent floats near u = 0.1 by one ulp); the tests pin it on sampled rows.
The survival identity P(tau > x) = h(sf(x)) is then checked empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._num import _integer
from .copulas import ClaytonOakes, Copula, FGM, GumbelHougaard, _is_independence
from .distributions import LifetimeDistribution
from .systems import Structure, build_distortion

__all__ = ["SimConfig", "sample_copula", "simulate_system", "SimulationResult"]

_FGM_MAX_ROUNDS = 256


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seed and substream split; output is deterministic in all three.

    Each is read under the spec rule for integers, as VerifyConfig reads its
    grid size: a bool, a string or a fraction raises ValueError, and 2.0
    reads as 2."""

    sample_count: int = 100_000
    seed: int = 0
    stream_count: int = 4

    def __post_init__(self):
        for key in ("sample_count", "seed", "stream_count"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.stream_count < 1:
            raise ValueError("stream_count must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def sample_copula(copula: Copula, cfg: SimConfig) -> np.ndarray:
    """Sample cfg.sample_count rows from the copula, shape (N, dim)."""
    return np.vstack([u if row_map is None else row_map(u) for u, row_map in _stream_draws(copula, cfg)])


def _stream_draws(copula: Copula, cfg: SimConfig):
    """Each nonempty substream's (latent, row_map) draw, in stream order,
    drawn as it is consumed."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.stream_count)
    base, extra = divmod(cfg.sample_count, cfg.stream_count)
    counts = [base + (1 if i < extra else 0) for i in range(cfg.stream_count)]
    return (_sample_chunk(copula, count, np.random.default_rng(child))
            for child, count in zip(children, counts) if count > 0)


def _sample_chunk(copula: Copula, count: int, rng: np.random.Generator):
    """A (count, dim) latent array and the decreasing row map taking it to
    the copula's uniforms; the map is None where the latent is the uniforms."""
    if _is_independence(copula):
        return rng.random((count, copula.dim)), None
    if isinstance(copula, FGM):
        return _sample_fgm(copula.theta, count, rng), None
    if isinstance(copula, GumbelHougaard):
        return _sample_gumbel(copula.theta, copula.dim, count, rng)
    if isinstance(copula, ClaytonOakes):
        return _sample_clayton(copula.theta, copula.dim, count, rng)
    raise TypeError(f"no sampler for copula type {type(copula).__name__}")


def _sample_fgm(theta: float, count: int, rng: np.random.Generator) -> np.ndarray:
    bound = 1.0 + abs(theta)
    out = np.empty((count, 3))
    filled = 0
    proposed = 0
    for _ in range(_FGM_MAX_ROUNDS):
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
        raise RuntimeError(f"FGM rejection sampler hit the round cap with acceptance rate {rate:.3f}")
    return out


def _sample_gumbel(theta: float, dim: int, count: int, rng: np.random.Generator):
    alpha = 1.0 / theta
    # positive stable frailty with Laplace transform exp(-t^alpha)
    w = rng.uniform(0.0, np.pi, count)
    e0 = rng.standard_exponential(count)
    stable = (np.sin(alpha * w) / np.sin(w) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * w) / e0
    ) ** ((1.0 - alpha) / alpha)
    e = rng.standard_exponential((count, dim))
    return e, lambda t: np.exp(-((t / stable[:, None]) ** alpha))


def _sample_clayton(theta: float, dim: int, count: int, rng: np.random.Generator):
    frailty = rng.gamma(shape=1.0 / theta, scale=1.0, size=count)
    e = rng.standard_exponential((count, dim))
    return e, lambda t: (1.0 + t / frailty[:, None]) ** (-1.0 / theta)


def _system_lifetime(values: np.ndarray, paths, rising: bool = True) -> np.ndarray:
    """Max over paths of the min within each path, elementwise on column views;
    min over paths of the max within each when lifetimes fall as values rise."""
    inner, outer = (np.minimum, np.maximum) if rising else (np.maximum, np.minimum)
    columns = values.T
    path_values = (reduce(inner, [columns[i - 1] for i in sorted(path)]) for path in paths)
    return reduce(outer, path_values)


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

    @property
    def max_standardized_deviation(self) -> float:
        """The largest |empirical - analytic| / std_err; a zero standard error
        counts as 0 where the two agree and as inf where they do not."""
        diff = np.abs(self.empirical_sf - self.analytic_sf)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = diff / self.std_err
        return float(np.max(np.where(self.std_err > 0.0, dev, np.where(diff == 0.0, 0.0, np.inf))))


def simulate_system(structure: Structure, copula: Copula, margin: LifetimeDistribution,
                    cfg: SimConfig) -> SimulationResult:
    """Empirical survival of the system lifetime against the analytic h(sf(x))
    at the 20 points where the component reliability runs from 0.9 to 0.1.

    The system lifetime is the best path (max over minimal path sets of the
    min within the path), reduced on each row's latent draw before its one
    row map and one survival inverse.
    """
    # refuses a copula whose dimension is not the component count
    distortion = build_distortion(structure, copula)
    # component-reliability spread 0.9 -> 0.1 gives an increasing x grid
    # that keeps the empirical curve away from 0 and 1
    x = np.asarray(margin.isf(np.linspace(0.9, 0.1, 20)), dtype=float)

    # isf falls as u rises, and a frailty row map falls as its latent rises:
    # reduce each row to the system's one value before mapping and inverting
    system_u = [
        _system_lifetime(latent, structure.paths, rising=False) if row_map is None
        else row_map(_system_lifetime(latent, structure.paths)[:, None])[:, 0]
        for latent, row_map in _stream_draws(copula, cfg)
    ]
    tau = np.asarray(margin.isf(np.concatenate(system_u)), dtype=float)

    emp = _count_survivors(tau, x) / tau.size
    ana = np.asarray(distortion.h(margin.sf(x)), dtype=float)
    se = np.sqrt(emp * (1.0 - emp) / cfg.sample_count)
    return SimulationResult(x, emp, ana, se, cfg.sample_count, cfg.seed, cfg.stream_count)
