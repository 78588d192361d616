"""Parametric lifetime distributions with closed-form reliability functions.

Every family exposes the functions used throughout the package: survival
``sf``, distribution ``cdf``, hazard rate ``hazard``, reversed hazard rate
``rev_hazard``, the cumulative (reversed) hazards ``cum_hazard`` /
``cum_rev_hazard``, and the inverse survival function ``isf``.  All are exact
closed forms; there is no generic numeric inversion anywhere.  Where a log argument underflows to zero
the affected function returns ``inf`` instead of raising, so grid sweeps can
skip and count flagged points.  ``match_input`` and ``as_float_array``, the
scalar-or-array input helpers of every numeric module, live here.
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


def _check_nonneg(x) -> np.ndarray:
    xa = as_float_array(x)
    if np.any(xa < 0.0):
        raise ValueError("lifetime argument must be nonnegative")
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
    def isf(self, v):
        """Inverse survival function: x such that sf(x) = v."""

    # every public function validates its argument once, then calls the cores
    def cum_hazard(self, x):
        return match_input(x, self._chz(_check_nonneg(x)))

    def hazard(self, x):
        return match_input(x, self._hz(_check_nonneg(x)))

    def sf(self, x):
        xa = _check_nonneg(x)
        return match_input(x, np.exp(-self._chz(xa)))

    def cdf(self, x):
        xa = _check_nonneg(x)
        return match_input(x, -np.expm1(-self._chz(xa)))

    def rev_hazard(self, x):
        xa = _check_nonneg(x)
        delta = self._chz(xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._hz(xa) * np.exp(-delta) / (-np.expm1(-delta))
        return match_input(x, out)

    def cum_rev_hazard(self, x):
        # -ln F(x); the expm1 form is exact for small cumulative hazard and
        # the log1p form for large, so branch at F = 1/2.  +inf at x = 0,
        # exact 0 deep in the right tail once exp underflows.
        xa = _check_nonneg(x)
        delta = self._chz(xa)
        with np.errstate(divide="ignore"):
            small = -np.log(-np.expm1(-delta))
            large = -np.log1p(-np.exp(-delta))
            out = np.where(delta <= math.log(2.0), small, large)
        return match_input(x, out)


@dataclass(frozen=True)
class Exponential(LifetimeDistribution):
    """Constant-hazard lifetime, sf(x) = exp(-rate*x)."""

    rate: float

    def __post_init__(self):
        _positive(self.rate, "rate")

    def _chz(self, xa):
        return self.rate * xa

    def _hz(self, xa):
        return np.full_like(xa, self.rate)

    def isf(self, v):
        va = as_float_array(v)
        # a quantile past the float range is +inf, like the one at v = 0
        with np.errstate(divide="ignore", over="ignore"):
            out = -np.log(va) / self.rate
        return match_input(v, out)


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

    def _chz(self, xa):
        return self.alpha * (xa + self.beta * xa * xa)

    def _hz(self, xa):
        return self.alpha * (1.0 + 2.0 * self.beta * xa)

    def isf(self, v):
        # positive root of beta*x^2 + x - t/alpha = 0, written so the
        # beta -> 0 limit needs no branch and small t loses no precision;
        # at v = 0 (t = inf) the form reads inf/inf, so the root +inf is set,
        # and a root past the float range is a quiet +inf
        va = as_float_array(v)
        with np.errstate(divide="ignore"):
            t = -np.log(va)
        with np.errstate(invalid="ignore", over="ignore"):
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
        return match_input(v, out)


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

    def isf(self, v):
        va = as_float_array(v)
        # a quantile past the float range is +inf, like the one at v = 0
        with np.errstate(divide="ignore", over="ignore"):
            t = -np.log(va)
            out = self.scale * t ** (1.0 / self.shape)
        return match_input(v, out)


_FAMILIES = {"exp": Exponential, "lfr": LinearFailureRate, "weibull": Weibull}


def distribution_from_dict(fragment: dict, where: str = "margin") -> LifetimeDistribution:
    """Build a distribution from a JSON fragment, rejecting unknown fields."""
    return read_fragment(fragment, "family", _FAMILIES, where)
