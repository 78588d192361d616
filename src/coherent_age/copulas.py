"""Exchangeable survival copulas coupling component lifetimes.

Four families: Independence, the trivariate Farlie-Gumbel-Morgenstern (FGM)
perturbation of independence, Gumbel-Hougaard, and Clayton-Oakes.  All are
exchangeable, so evaluating at a point with ``j`` coordinates equal to ``p``
and the rest equal to 1 depends only on ``(p, j)``; that reduction, its
first two derivatives and its complement are what the distortion engine
consumes.
Evaluations switch to log-space wherever the direct form would overflow or
underflow.

Each family defines the reductions once, as array cores ``_exch``,
``_exch_deriv``, ``_exch_second`` and ``_exch_compl`` on an already validated
array with ``1 <= j <= dim``.  The public ``exch``, ``exch_deriv`` and
``exch_compl`` of the base class validate ``(p, j)`` once, answer ``j = 0``
and call the core.  ``_exch_second`` feeds only the elasticity derivatives,
which live on the open interval, and has no public wrapper.

The distortion engine has one entry per evaluation, ``_sum(pa, coeffs,
which)``: the signed sum ``sum_j c_j F_j`` with ``F_j`` one of ``K_j``,
``1 - K_j``, ``K_j'`` and ``K_j''`` (``which`` 0-3).  The base class adds the
per-j cores in coefficient order.

Clayton-Oakes uses the standard exchangeable Archimedean form
``(sum p_i^-theta - (n-1))^(-1/theta)``; it is an extension family here, kept
alongside the three others for breadth of the simulation oracle.  Its terms
share their log-space work: ``ln p``, ``w = -theta ln p``, the mask of points
before the cutoff and ``expm1(w)`` are computed once per ``_sum`` call, and
each term then costs its ``ln S_j = log1p(j expm1(w))`` and one ``exp``.  Its
``_sum`` holds the only copy of each formula, and its per-j cores are the
single-term sums.  The values are bit-identical to a loop over per-j cores.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._num import read_fragment
from .distributions import as_float_array, match_input

__all__ = [
    "Copula",
    "Independence",
    "FGM",
    "GumbelHougaard",
    "ClaytonOakes",
    "copula_from_dict",
]

# above this value of -theta*ln(p), p^-theta has overflowed and the Clayton
# forms are replaced by their exact limits
_CLAYTON_LOG_CUTOFF = 500.0


class Copula(ABC):
    """Exchangeable survival copula of fixed dimension."""

    dim: int

    @abstractmethod
    def _exch(self, pa: np.ndarray, j: int) -> np.ndarray:
        """K with j coordinates at p and n-j at 1, on a validated array, 1 <= j <= dim."""

    @abstractmethod
    def _exch_deriv(self, pa: np.ndarray, j: int) -> np.ndarray:
        """d/dp of ``_exch(pa, j)`` in closed form."""

    @abstractmethod
    def _exch_second(self, pa: np.ndarray, j: int) -> np.ndarray:
        """d^2/dp^2 of ``_exch(pa, j)`` in closed form, for 0 < p < 1."""

    @abstractmethod
    def _exch_compl(self, pa: np.ndarray, j: int) -> np.ndarray:
        """1 - _exch(pa, j), computed without cancellation near p = 1."""

    def _sum(self, pa: np.ndarray, coeffs, which: int) -> np.ndarray:
        """sum_j c_j F_j on a validated array, with F_j = K_j, 1 - K_j, K_j'
        or K_j'' for which = 0, 1, 2, 3: the one entry of the distortion
        engine.  This default adds the per-j cores in coefficient order; a
        family whose terms share work overrides it with the same sums."""
        core = (self._exch, self._exch_compl, self._exch_deriv, self._exch_second)[which]
        out = np.zeros_like(pa)
        for j, c in coeffs:
            out += c * core(pa, j)
        return out

    def exch(self, p, j: int):
        """K with j coordinates at p and n-j at 1; j = 0 gives 1."""
        pa = self._check_exch(p, j)
        return match_input(p, self._exch(pa, j) if j else np.ones_like(pa))

    def exch_deriv(self, p, j: int):
        """d/dp of ``exch(p, j)`` in closed form."""
        pa = self._check_exch(p, j)
        return match_input(p, self._exch_deriv(pa, j) if j else np.zeros_like(pa))

    def exch_compl(self, p, j: int):
        """1 - exch(p, j), computed without cancellation near p = 1."""
        pa = self._check_exch(p, j)
        return match_input(p, self._exch_compl(pa, j) if j else np.zeros_like(pa))

    def _check_exch(self, p, j: int) -> np.ndarray:
        if not isinstance(j, (int, np.integer)) or j < 0 or j > self.dim:
            raise ValueError(f"j must be an integer in [0, {self.dim}], got {j!r}")
        pa = as_float_array(p)
        if np.any((pa < 0.0) | (pa > 1.0)):
            raise ValueError("copula arguments must lie in [0, 1]")
        return pa


@dataclass(frozen=True)
class Independence(Copula):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def _exch(self, pa, j):
        return pa**j

    def _exch_deriv(self, pa, j):
        return j * pa ** (j - 1)

    def _exch_second(self, pa, j):
        return j * (j - 1) * pa ** (j - 2) if j > 1 else np.zeros_like(pa)

    def _exch_compl(self, pa, j):
        return np.where(pa > 0.0, -np.expm1(j * np.log(np.maximum(pa, 1e-300))), 1.0)


@dataclass(frozen=True)
class FGM(Copula):
    """Trivariate FGM: K(p1,p2,p3) = p1 p2 p3 (1 + theta (1-p1)(1-p2)(1-p3)).

    Only the three-dimensional member is defined; higher-order FGM variants
    take many inequivalent forms and are out of scope.
    """

    theta: float
    dim: int = 3

    def __post_init__(self):
        if not math.isfinite(self.theta) or abs(self.theta) > 1.0:
            raise ValueError(f"FGM theta must lie in [-1, 1], got {self.theta!r}")
        if self.dim != 3:
            raise ValueError("FGM copula is defined for dimension 3 only")

    def _exch(self, pa, j):
        if j < 3:
            return pa**j
        return pa**3 * (1.0 + self.theta * (1.0 - pa) ** 3)

    def _exch_deriv(self, pa, j):
        if j < 3:
            return j * pa ** (j - 1)
        return 3.0 * pa**2 + 3.0 * self.theta * pa**2 * (1.0 - pa) ** 2 * (1.0 - 2.0 * pa)

    def _exch_second(self, pa, j):
        if j < 3:
            return j * (j - 1) * pa ** (j - 2) if j > 1 else np.zeros_like(pa)
        # 6p (1 + theta (1-p)(1 - 5p + 5p^2)), regrouped so that theta = -1
        # does not cancel near p = 0; the bracket is positive on [0, 1]
        return 6.0 * pa * ((1.0 + self.theta) - self.theta * pa * (6.0 - 10.0 * pa + 5.0 * pa**2))

    def _exch_compl(self, pa, j):
        q = 1.0 - pa
        if j == 1:
            return q
        if j == 2:
            return q * (1.0 + pa)
        return q * (1.0 + pa + pa**2) - self.theta * pa**3 * q**3


@dataclass(frozen=True)
class GumbelHougaard(Copula):
    """Archimedean family exp{-(sum (-ln p_i)^theta)^(1/theta)}, theta >= 1."""

    theta: float
    dim: int

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta < 1.0:
            raise ValueError(f"Gumbel-Hougaard theta must be >= 1, got {self.theta!r}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def _exponent(self, j: int) -> float:
        return j ** (1.0 / self.theta)

    def _exch(self, pa, j):
        return pa ** self._exponent(j)

    def _exch_deriv(self, pa, j):
        a = self._exponent(j)
        with np.errstate(divide="ignore"):
            return a * pa ** (a - 1.0)

    def _exch_second(self, pa, j):
        # a - 1 = expm1(ln j / theta) keeps its digits as theta grows
        a = self._exponent(j)
        return (a * math.expm1(math.log(j) / self.theta)) * pa ** (a - 2.0)

    def _exch_compl(self, pa, j):
        a = self._exponent(j)
        return np.where(pa > 0.0, -np.expm1(a * np.log(np.maximum(pa, 1e-300))), 1.0)


@dataclass(frozen=True)
class ClaytonOakes(Copula):
    """Archimedean family (sum p_i^-theta - (n-1))^(-1/theta), theta > 0."""

    theta: float
    dim: int

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta <= 0.0:
            raise ValueError(f"Clayton-Oakes theta must be > 0, got {self.theta!r}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def _exch(self, pa, j):
        return self._sum(pa, ((j, 1),), 0)

    def _exch_deriv(self, pa, j):
        return self._sum(pa, ((j, 1),), 2)

    def _exch_second(self, pa, j):
        return self._sum(pa, ((j, 1),), 3)

    def _exch_compl(self, pa, j):
        return self._sum(pa, ((j, 1),), 1)

    def _sum(self, pa, coeffs, which):
        # K_j = S_j^(-1/theta) with ln S_j = log1p(j expm1(w)), w = -theta ln p;
        # at p = 0 and past the cutoff, where p^-theta overflows, the exact
        # limits are written in, only where the input has such points
        theta = self.theta
        # ln 0 = -inf only reaches the p = 0 points, which take the limits
        with np.errstate(divide="ignore"):
            logp = np.log(pa)
        w = -theta * logp
        direct = (pa > 0.0) & (w < _CLAYTON_LOG_CUTOFF)
        limit = None if direct.all() else ~direct
        em = np.expm1(np.minimum(w, _CLAYTON_LOG_CUTOFF))
        if which == 2:
            # K_j' = j p^-(theta+1) S_j^-(1+1/theta); zeroed at the limit
            # points, whose exponent could pass the float range
            power = (theta + 1.0) * logp
            if limit is not None:
                power = np.where(limit, 0.0, power)
        elif which == 3:
            # K_j'' = K_j' (theta+1)(j-1) / (p S_j)
            power = (theta + 2.0) * logp
        out = np.zeros_like(pa)
        for j, c in coeffs:
            if which == 3 and j == 1:
                continue  # K_1'' = 0 would add nothing
            log_s = np.log1p(j * em)
            if which == 3:
                if limit is not None:
                    # past the cutoff S_j = j p^-theta to float precision
                    log_s = np.where(limit, math.log(j) + w, log_s)
                term = np.exp(math.log(j * (j - 1) * (theta + 1.0)) - power - (2.0 + 1.0 / theta) * log_s)
            else:
                if which == 0:
                    term = np.exp(-log_s / theta)
                elif which == 1:
                    term = -np.expm1(-log_s / theta)
                else:
                    term = np.exp(math.log(j) - power - ((theta + 1.0) / theta) * log_s)
                if limit is not None:
                    # K_j -> p j^(-1/theta) and K_j' -> j^(-1/theta)
                    edge = j ** (-1.0 / theta)
                    if which < 2:
                        edge = pa * edge if which == 0 else 1.0 - pa * edge
                    term = np.where(limit, edge, term)
            out += c * term
        return out


def _is_independence(copula: Copula) -> bool:
    """Whether the copula is exactly the independence law: Independence
    itself, GumbelHougaard at theta = 1 or FGM at theta = 0."""
    return (isinstance(copula, Independence) or (isinstance(copula, GumbelHougaard) and copula.theta == 1.0)
            or (isinstance(copula, FGM) and copula.theta == 0.0))


_FAMILIES = {
    "independence": Independence,
    "fgm": FGM,
    "gumbel": GumbelHougaard,
    "clayton": ClaytonOakes,
}


def copula_from_dict(fragment: dict, dim: int, where: str = "copula") -> Copula:
    """Build a copula from a JSON fragment; dimension comes from the structure."""
    return read_fragment(fragment, "copula", _FAMILIES, where, dim=dim)
