"""Parametric lifetime distributions with closed-form reliability functions.

Every family exposes the functions used throughout the package: survival
``sf``, distribution ``cdf``, hazard rate ``hazard``, the cumulative
(reversed) hazards ``cum_hazard`` / ``cum_rev_hazard``, and the inverse
survival function ``isf``.  All are exact closed forms; there is no generic
numeric inversion anywhere.  A cumulative hazard past the float range reads
``inf``, and the survival function 0, without a warning, so grid sweeps can
skip and count flagged points; ``isf`` refuses a level outside [0, 1].
``match_input``, ``as_float_array``, ``on_points`` and ``_check_unit``, the
input helpers of every numeric module, live here.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._num import read_fragment

__all__ = [
    "LifetimeDistribution",
    "Exponential",
    "LinearFailureRate",
    "Weibull",
    "distribution_from_dict",
]


def match_input(x, values: np.ndarray):
    """Return a Python float for scalar input, the array otherwise."""
    if np.ndim(x) == 0:
        return float(values)
    return values


def as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def on_points(f, xa: np.ndarray, *args) -> np.ndarray:
    """f(xa, *args) with xa run as a 1-D array and the result in xa's shape.

    A scalar runs as a one-point array, so that it gets an array call's
    bits: on a 0-d array an operation returns a numpy scalar, whose ** is
    libm's pow, which can differ from numpy's array kernel in the last ulp.
    """
    return f(xa.reshape(-1), *args).reshape(xa.shape)


def _on_lifetimes(core, x) -> np.ndarray:
    """core on the validated lifetimes x, run by on_points; a value past the
    float range is inf (and so sf is 0) without a warning."""
    xa = as_float_array(x)
    if (xa < 0.0).any():
        raise ValueError("lifetime argument must be nonnegative")
    with np.errstate(over="ignore"):
        return on_points(core, xa)


def _check_unit(x, what: str) -> np.ndarray:
    xa = as_float_array(x)
    if ((xa < 0.0) | (xa > 1.0)).any():
        raise ValueError(f"{what} must lie in [0, 1]")
    return xa


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return value


class LifetimeDistribution(ABC):
    """Nonnegative lifetime law; values are immutable and all methods pure."""

    @abstractmethod
    def _chz(self, xa: np.ndarray) -> np.ndarray:
        """Cumulative hazard -ln sf on a validated array, exact closed form."""

    @abstractmethod
    def _hz(self, xa: np.ndarray) -> np.ndarray:
        """Hazard rate, density over sf, on a validated array."""

    @abstractmethod
    def _isf(self, va: np.ndarray) -> np.ndarray:
        """Inverse survival function on a validated 1-D array of levels."""

    def isf(self, v):
        """Inverse survival function: x such that sf(x) = v; a quantile past
        the float range is +inf, like the one at v = 0."""
        with np.errstate(divide="ignore", over="ignore"):
            return match_input(v, on_points(self._isf, _check_unit(v, "survival level")))

    # every public function validates its argument once, then calls the cores on its points
    def cum_hazard(self, x):
        return match_input(x, _on_lifetimes(self._chz, x))

    def hazard(self, x):
        return match_input(x, _on_lifetimes(self._hz, x))

    def sf(self, x):
        return match_input(x, np.exp(-_on_lifetimes(self._chz, x)))

    def cdf(self, x):
        return match_input(x, -np.expm1(-_on_lifetimes(self._chz, x)))

    def cum_rev_hazard(self, x):
        return match_input(x, _minus_log_cdf(_on_lifetimes(self._chz, x)))


def _minus_log_cdf(delta: np.ndarray) -> np.ndarray:
    """-ln F from delta = -ln sf: the expm1 form is exact for small delta and the log1p form for large, so
    branch at F = 1/2, each evaluated only on its side (+inf at delta = 0, 0 once exp(-delta) underflows)."""
    small = delta <= math.log(2.0)
    large, out = ~small, np.empty_like(delta)
    with np.errstate(divide="ignore"):
        out[small] = -np.log(-np.expm1(-delta[small]))
        out[large] = -np.log1p(-np.exp(-delta[large]))
    return out


@dataclass(frozen=True)
class Exponential(LifetimeDistribution):
    """Constant-hazard lifetime, sf(x) = exp(-rate*x)."""

    rate: float

    def __post_init__(self):
        _positive(self.rate, "rate")

    def _chz(self, xa):
        return self.rate * xa

    def _hz(self, xa):
        return np.where(np.isnan(xa), xa, self.rate)

    def _isf(self, va):
        return -np.log(va) / self.rate


@dataclass(frozen=True)
class LinearFailureRate(LifetimeDistribution):
    """sf(x) = exp(-alpha*(x + beta*x^2)); hazard alpha*(1 + 2*beta*x).

    beta = 0 degenerates exactly to Exponential(alpha).
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        _positive(self.alpha, "alpha")
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be a nonnegative finite real, got {self.beta!r}")

    # beta = 0 takes Exponential(alpha)'s forms, where beta x would read 0 * inf = nan at x = inf
    def _chz(self, xa):
        return self.alpha * (xa + self.beta * xa * xa) if self.beta else self.alpha * xa

    def _hz(self, xa):
        return self.alpha * (1.0 + 2.0 * self.beta * xa) if self.beta else np.where(np.isnan(xa), xa, self.alpha)

    def _isf(self, va):
        # positive root of beta*x^2 + x - t/alpha = 0, written so the
        # beta -> 0 limit needs no branch and small t loses no precision;
        # at v = 0 (t = inf) the form reads inf/inf, so the root +inf is set
        t = -np.log(va)
        with np.errstate(invalid="ignore"):
            scaled = self.alpha * (1.0 + np.sqrt(1.0 + 4.0 * self.beta * t / self.alpha))
            out = np.asarray(2.0 * t / scaled)
            # where alpha*root is not finite (4*beta*t/alpha past the float
            # range, or alpha itself near it), the same root divided through
            # by sqrt(alpha), (2t/sqrt(a)) / (sqrt(a) + sqrt(a + 4bt)), whose
            # terms stay in range: hypot(sqrt(a), 2 sqrt(b) sqrt(t)) is
            # sqrt(a + 4bt) without forming 4bt
            wide = ~np.isfinite(scaled) & np.isfinite(t)
            if np.any(wide):
                ra, tw = math.sqrt(self.alpha), t[wide]
                out[wide] = (2.0 * tw / ra) / (ra + np.hypot(ra, 2.0 * math.sqrt(self.beta) * np.sqrt(tw)))
        out[t == np.inf] = np.inf
        return out


@dataclass(frozen=True)
class Weibull(LifetimeDistribution):
    """sf(x) = exp(-(x/scale)^shape)."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _positive(self.shape, "shape")
        _positive(self.scale, "scale")

    def _chz(self, xa):
        return (xa / self.scale) ** self.shape

    def _hz(self, xa):
        with np.errstate(divide="ignore"):
            return (self.shape / self.scale) * (xa / self.scale) ** (self.shape - 1.0)

    def _isf(self, va):
        return self.scale * (-np.log(va)) ** (1.0 / self.shape)


_FAMILIES = {"exp": Exponential, "lfr": LinearFailureRate, "weibull": Weibull}


def distribution_from_dict(fragment: dict, where: str = "margin") -> LifetimeDistribution:
    """Build a distribution from a JSON fragment, rejecting unknown fields."""
    return read_fragment(fragment, "family", _FAMILIES, where)
