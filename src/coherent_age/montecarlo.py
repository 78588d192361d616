"""Copula-sampling oracle validating distortions and system survival curves.

Sampling is split across independent substreams spawned from one 64-bit seed
(numpy SeedSequence), each with its own generator.  The substreams run
concurrently, dealt round-robin to one thread per CPU this process may run on
(numpy releases the GIL in its generators, ufuncs and sorts), and their
results are joined in stream order, so output is bit-identical for a fixed
(seed, stream_count) whatever the CPU count.  A simulation counts each
stream's survivors and sums the integer counts, which is exact.

Each sampler draws a latent array and a row map to uniforms whose joint
distribution function is the survival copula K.  Gumbel-Hougaard at theta = 1
(the independence law) and the trivariate FGM, which returns them bit for bit
at theta = 0, draw the uniforms themselves.  FGM takes three uniforms per row
by conditional inversion (Nelsen 2006, section 2.9): its pairwise margins
are independent, so U1 and U2 are drawn as they are, and U3 is the root of
its conditional cdf given them, a quadratic taken in its cancellation-free
form; there is no rejection loop.  Gumbel-Hougaard (positive-stable frailty V,
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

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._num import _integer
from .copulas import ClaytonOakes, Copula, FGM, GumbelHougaard
from .distributions import LifetimeDistribution
from .systems import Structure, _members, build_distortion

__all__ = ["SimConfig", "sample_copula", "simulate_system", "SimulationResult"]


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
    u = np.empty((cfg.sample_count, copula.dim))

    # each stream writes its rows in place: no stream's block outlives it
    def fill(rows, latent, row_map):
        u[rows] = latent if row_map is None else row_map(latent)

    _per_stream(copula, cfg, fill)
    return u


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _per_stream(copula: Copula, cfg: SimConfig, finish) -> list:
    """finish(rows, latent, row_map) of each nonempty substream's draw, in
    stream order, with rows the slice of the whole sample the stream holds.

    The streams are dealt round-robin to one worker per CPU, at most one per
    stream; the calling thread is the first worker, so on one CPU no thread
    starts.  Each worker runs in a copy of the caller's context, so an
    np.errstate set by the caller holds on every stream.  Once every worker
    has stopped, a failure is raised in the caller: that of the
    lowest-numbered failing stream.  A worker skips the streams it holds
    after its first failure, which are all higher-numbered.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.stream_count)
    base, extra = divmod(cfg.sample_count, cfg.stream_count)
    starts = [i * base + min(i, extra) for i in range(cfg.stream_count + 1)]
    streams = [(child, slice(a, b)) for child, a, b in zip(children, starts, starts[1:]) if b > a]
    results = [None] * len(streams)
    errors = [None] * len(streams)
    workers = min(len(streams), _cpu_count())

    def work(first: int) -> None:
        for i in range(first, len(streams), workers):
            child, rows = streams[i]
            try:
                draw = _sample_chunk(copula, rows.stop - rows.start, np.random.default_rng(child))
                results[i] = finish(rows, *draw)
            except BaseException as exc:  # re-raised in the caller below
                errors[i] = exc
                return

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, k)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _sample_chunk(copula: Copula, count: int, rng: np.random.Generator):
    """A (count, dim) latent array and the decreasing row map taking it to
    the copula's uniforms; the map is None where the latent is the uniforms."""
    if isinstance(copula, FGM):
        return _sample_fgm(copula.theta, count, rng), None
    if isinstance(copula, GumbelHougaard):
        if copula.theta == 1.0:
            return rng.random((count, copula.dim)), None
        return _sample_gumbel(copula.theta, copula.dim, count, rng)
    if isinstance(copula, ClaytonOakes):
        return _sample_clayton(copula.theta, copula.dim, count, rng)
    raise TypeError(f"no sampler for copula type {type(copula).__name__}")


def _sample_fgm(theta: float, count: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random((count, 3))
    # columns 0 and 1 are independent (K(p1, p2, 1) = p1 p2); column 2 is w,
    # mapped in place to the root of u (1 + b (1 - u)) = w, the conditional
    # cdf of U3 given U1, U2, with b = theta (1 - 2 u1)(1 - 2 u2) in [-1, 1],
    # taken as 4 theta (1/2 - u1)(1/2 - u2)
    w = u[:, 2]
    b = (4.0 * theta) * (0.5 - u[:, 0]) * (0.5 - u[:, 1])
    a = np.abs(b)
    # the discriminant (1 + b)^2 - 4 b w as a sum of nonnegative terms:
    # (1 - b)^2 + 4 b (1 - w) for b >= 0, (1 + b)^2 - 4 b w for b < 0;
    # |w - 1| is 1 - w and |w - 0| is w, both exact
    d = (1.0 - a) ** 2 + 4.0 * a * np.abs(w - (b >= 0.0))
    # w = 0 keeps its root 0, and with it the one 0/0 point, b = -1
    np.divide(2.0 * w, (1.0 + b) + np.sqrt(d), out=w, where=w > 0.0)
    return u


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
    path_values = (reduce(inner, [columns[i - 1] for i in _members(path)]) for path in paths)
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
    def survivors(rows, latent, row_map):
        if row_map is None:
            system_u = _system_lifetime(latent, structure.paths, rising=False)
        else:
            system_u = row_map(_system_lifetime(latent, structure.paths)[:, None])[:, 0]
        return _count_survivors(np.asarray(margin.isf(system_u), dtype=float), x)

    # integer counts: their sum is exact, whatever the split
    emp = sum(_per_stream(copula, cfg, survivors)) / cfg.sample_count
    ana = np.asarray(distortion.h(margin.sf(x)), dtype=float)
    se = np.sqrt(emp * (1.0 - emp) / cfg.sample_count)
    return SimulationResult(x, emp, ana, se, cfg.sample_count, cfg.seed, cfg.stream_count)
