"""Copula-sampling oracle validating distortions and system survival curves.

Sampling is split across independent substreams spawned from one 64-bit seed
(numpy SeedSequence), each with its own generator.  The substreams run
concurrently, dealt round-robin to one thread per CPU this process may run on
(numpy releases the GIL in its generators, ufuncs and sorts), and their
results are joined in stream order, so output is bit-identical for a fixed
(seed, stream_count) whatever the CPU count.  A simulation counts each
stream's survivors and sums the integer counts, which is exact.

Each stream draws from the copula's own ``_draw``: the uniforms U_i, or
exponentials E_i with a decreasing row map phi(E_i / V) to them.  The system
lifetime max_P min_{i in P} isf(U_i) is reduced before any per-component
transform.  isf is decreasing, so it is isf(min_P max_{i in P} U_i) for the
uniforms and isf(phi(max_P min_{i in P} E_i / V)) for the frailty draws: one
map and one isf per row.  This equals inverting every component where
isf(phi(.)) keeps the order of a row's components in floating point, which no
theorem gives (LinearFailureRate(1, 1).isf reverses some adjacent floats near
u = 0.1 by one ulp); the tests pin it on sampled rows.
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
from .copulas import Copula
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
                results[i] = finish(rows, *copula._draw(rows.stop - rows.start, np.random.default_rng(child)))
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
