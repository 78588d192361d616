"""Exchangeable survival copulas coupling component lifetimes.

Three families: the trivariate Farlie-Gumbel-Morgenstern (FGM) perturbation
of independence, Gumbel-Hougaard, whose theta = 1 member is Independence, and
Clayton-Oakes.  All are exchangeable, so evaluating at a point with ``j``
coordinates equal to ``p`` and the rest equal to 1 depends only on ``(p, j)``;
that reduction ``K_j``, its first two derivatives and its complement are what
the distortion engine consumes.
Evaluations switch to log-space wherever the direct form would overflow or
underflow.

Each family writes its formulas once.  Where h is a polynomial,
``_bernstein(counts)`` gives its Bernstein weights: Gumbel-Hougaard's at
theta = 1, and FGM's, of degree 6, which has no other formula.  Elsewhere
one method ``_sum(p, coeffs, which, xp)`` gives the signed sum
``sum_j c_j F_j`` with ``F_j`` one of ``K_j``, ``1 - K_j``, ``K_j'`` and
``K_j''`` (``which`` 0-3), over the terms in coefficient order.  ``xp`` is
the namespace its logs, exponentials, powers and masks come from.
``_ARRAYS``, the default, runs them on an array, as the grids' distortion
engine does.  ``_FLOATS`` runs them on one Python float,
as the rounds of the distortion inverse do: each log, exponential and power
is numpy's ufunc on the float, which runs the array kernel and so returns
the array sum's bits, and the masks are plain Python.  Python's ``**`` and
``math``, and ``**`` on a numpy scalar, call libm, which can differ in the
last ulp, so the formulas square by a product and leave every other power
of p to ``xp.power``.  The public ``exch``, ``exch_deriv`` and ``exch_compl``
validate ``(p, j)`` once, answer ``j = 0`` and read ``K_j`` as the distortion
of one path set on ``j`` of the components through the distortion engine, so
they take the law's one formula, on a one-point array for a scalar ``p``;
``K_j''`` feeds only the elasticity derivatives, which live on the open
interval, and has no public wrapper.

Each family draws its own sample for the simulation oracle: ``_draw(count,
rng)`` returns a latent array and a row map to uniforms whose joint
distribution function is the survival copula K.  Gumbel-Hougaard at theta = 1
(the independence law) and the trivariate FGM, which returns them bit for bit
at theta = 0, draw the uniforms themselves.  FGM takes three uniforms per row
by conditional inversion (Nelsen 2006, section 2.9): its pairwise margins
are independent, so U1 and U2 are drawn as they are, and U3 is the root of
its conditional cdf given them, a quadratic taken in its cancellation-free
form; there is no rejection loop.  Gumbel-Hougaard (positive-stable frailty V,
Chambers-Mallows-Stuck) and Clayton-Oakes (gamma frailty V) draw exponentials
E_i and map them to U_i = phi(E_i / V), with phi decreasing.

Clayton-Oakes uses the standard exchangeable Archimedean form
``(sum p_i^-theta - (n-1))^(-1/theta)``; it is an extension family here, kept
alongside the two others for breadth of the simulation oracle.  Its terms
share their log-space work: ``ln p``, ``w = -theta ln p``, the mask of points
before the cutoff and ``expm1(w)`` are computed once per ``_sum`` call, and
each term then costs its ``ln S_j = log1p(j expm1(w))`` and one ``exp``.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._num import _integer, read_fragment
from .distributions import _check_unit, match_input

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


def _array_log(x):
    # ln 0 = -inf, without the warning: Gumbel's -expm1(a ln p) reads 1, Clayton's w inf
    with np.errstate(divide="ignore"):
        return np.log(x)


_ARRAYS = SimpleNamespace(
    log=_array_log, exp=np.exp, expm1=np.expm1, log1p=np.log1p, power=operator.pow, where=np.where,
    minimum=np.minimum, any=np.any, zeros_like=np.zeros_like,
)

# numpy's ufuncs on a Python float run the array kernels; minimum carries a
# NaN in its first argument, as numpy's does
_FLOATS = SimpleNamespace(
    log=lambda x: -math.inf if x == 0.0 else float(np.log(x)),
    exp=lambda x: float(np.exp(x)),
    expm1=lambda x: float(np.expm1(x)),
    log1p=lambda x: float(np.log1p(x)),
    power=lambda x, e: float(np.power(x, e)),
    where=lambda mask, a, b: a if mask else b,
    minimum=lambda a, b: b if a > b else a,
    any=bool,
    zeros_like=lambda p: 0.0,
)


class Copula(ABC):
    """Exchangeable survival copula of fixed dimension."""

    dim: int

    def _sum(self, p, coeffs, which: int, xp=_ARRAYS):
        """sum_j c_j F_j at a validated p with 1 <= j <= dim, F_j = K_j,
        1 - K_j, K_j' or K_j'' for which = 0, 1, 2, 3, on an array for
        xp = _ARRAYS or at a Python float for xp = _FLOATS.  1 - K_j is
        computed without cancellation near p = 1, and K_j'' only for
        0 < p < 1.  Only a law whose ``_bernstein`` can give None writes
        it; the others are read from their weights alone."""
        raise TypeError(f"{type(self).__name__} has no signed sum: its distortions read its Bernstein weights")

    @abstractmethod
    def _draw(self, count: int, rng: np.random.Generator):
        """A (count, dim) latent array and the decreasing row map taking it to
        the copula's uniforms; the map is None where the latent is the uniforms."""

    def _check_dim(self) -> None:
        # read under the spec rule for integers, as SimConfig reads its fields
        object.__setattr__(self, "dim", _integer(self.dim, "dimension"))
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def _bernstein(self, counts):
        """Exact weights w_k of h = sum_k w_k p^k (1-p)^(deg-k) for counts N_k, or None: h is ``_sum``."""
        return None

    def exch(self, p, j: int):
        """K with j coordinates at p and n-j at 1; j = 0 gives 1."""
        return self._one_term(p, j, 0)

    def exch_deriv(self, p, j: int):
        """d/dp of ``exch(p, j)`` in closed form."""
        return self._one_term(p, j, 2)

    def exch_compl(self, p, j: int):
        """1 - exch(p, j), computed without cancellation near p = 1."""
        return self._one_term(p, j, 1)

    def _one_term(self, p, j: int, which: int):
        # K_j is the distortion of one path set on j of the dim components,
        # N_k = C(dim - j, k - j), read as any distortion of the law is
        from .systems import Distortion

        pa = self._check_exch(p, j)
        if not j:
            return match_input(p, np.full_like(pa, float(which == 0)))
        counts = (0,) * j + tuple(math.comb(self.dim - j, i) for i in range(self.dim - j + 1))
        return match_input(p, Distortion(self, counts)._evaluate(pa, which))

    def _check_exch(self, p, j: int) -> np.ndarray:
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 0 or j > self.dim:
            raise ValueError(f"j must be an integer in [0, {self.dim}], got {j!r}")
        return _check_unit(p, "copula arguments")


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
        self._check_dim()
        if self.dim != 3:
            raise ValueError("FGM copula is defined for dimension 3 only")

    def _bernstein(self, counts):
        # sum_k N_k p^k q^(3-k) (p + q)^3 + theta c_3 p^3 q^3, c_3 = N_3 - N_2 + N_1, theta exact;
        # fractions (and with it decimal) is imported here, at its one use, so
        # only an FGM distortion with theta != 0 loads it
        if self.theta == 0.0:
            return counts
        from fractions import Fraction

        weights = counts
        for _ in range(3):  # times p + q
            weights = [a + b for a, b in zip((0, *weights), (*weights, 0))]
        weights[3] += Fraction(self.theta) * (counts[3] - counts[2] + counts[1])
        return tuple(weights)

    def _draw(self, count, rng):
        u = rng.random((count, 3))
        # columns 0 and 1 are independent (K(p1, p2, 1) = p1 p2); column 2 is w,
        # mapped in place to the root of u (1 + b (1 - u)) = w, the conditional
        # cdf of U3 given U1, U2, with b = theta (1 - 2 u1)(1 - 2 u2) in [-1, 1],
        # taken as 4 theta (1/2 - u1)(1/2 - u2)
        w = u[:, 2]
        b = (4.0 * self.theta) * (0.5 - u[:, 0]) * (0.5 - u[:, 1])
        a = np.abs(b)
        # the discriminant (1 + b)^2 - 4 b w as a sum of nonnegative terms:
        # (1 - b)^2 + 4 b (1 - w) for b >= 0, (1 + b)^2 - 4 b w for b < 0;
        # |w - 1| is 1 - w and |w - 0| is w, both exact
        d = (1.0 - a) ** 2 + 4.0 * a * np.abs(w - (b >= 0.0))
        # w = 0 keeps its root 0, and with it the one 0/0 point, b = -1
        np.divide(2.0 * w, (1.0 + b) + np.sqrt(d), out=w, where=w > 0.0)
        return u, None


@dataclass(frozen=True)
class GumbelHougaard(Copula):
    """Archimedean family exp{-(sum (-ln p_i)^theta)^(1/theta)}, theta >= 1."""

    theta: float
    dim: int

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta < 1.0:
            raise ValueError(f"Gumbel-Hougaard theta must be >= 1, got {self.theta!r}")
        self._check_dim()

    def _bernstein(self, counts):
        return counts if self.theta == 1.0 else None  # theta = 1: the independence law

    def _draw(self, count, rng):
        if self.theta == 1.0:  # the independence law
            return rng.random((count, self.dim)), None
        alpha = 1.0 / self.theta
        # positive stable frailty S with Laplace transform exp(-t^alpha), kept
        # as scale = S^-alpha, formed from logs: S's own factors, such as
        # sin(w)^theta, underflow once theta passes about 60
        w = rng.uniform(0.0, np.pi, count)
        e0 = rng.standard_exponential(count)
        scale = np.log(np.sin(w))
        scale -= alpha * np.log(np.sin(alpha * w))
        scale -= (1.0 - alpha) * (np.log(np.sin((1.0 - alpha) * w)) - np.log(e0))
        np.exp(scale, out=scale)
        e = rng.standard_exponential((count, self.dim))
        return e, lambda t: np.exp(-(t**alpha) * scale[:, None])

    def _exponent(self, j: int) -> float:
        return j ** (1.0 / self.theta)

    def _sum(self, p, coeffs, which, xp=_ARRAYS):
        # K_j = p^a with a = j^(1/theta) >= 1, and 1 - K_j = -expm1(a ln p)
        if which == 1:
            log_p = xp.log(p)
        out = xp.zeros_like(p)
        for j, c in coeffs:
            a = self._exponent(j)
            if which == 0:
                term = xp.power(p, a)
            elif which == 1:
                term = -xp.expm1(a * log_p)
            elif which == 2:
                term = a * xp.power(p, a - 1.0)
            elif j == 1:
                continue  # K_1'' = 0 would add nothing
            else:
                # a - 1 = expm1(ln j / theta) keeps its digits as theta grows
                term = (a * math.expm1(math.log(j) / self.theta)) * xp.power(p, a - 2.0)
            out += c * term
        return out


@dataclass(frozen=True)
class Independence(GumbelHougaard):
    """The product copula, Gumbel-Hougaard's member at theta = 1."""

    theta: float = field(default=1.0, init=False, repr=False)


@dataclass(frozen=True)
class ClaytonOakes(Copula):
    """Archimedean family (sum p_i^-theta - (n-1))^(-1/theta), theta > 0."""

    theta: float
    dim: int

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta <= 0.0:
            raise ValueError(f"Clayton-Oakes theta must be > 0, got {self.theta!r}")
        self._check_dim()

    def _draw(self, count, rng):
        frailty = rng.gamma(shape=1.0 / self.theta, scale=1.0, size=count)
        e = rng.standard_exponential((count, self.dim))
        return e, lambda t: (1.0 + t / frailty[:, None]) ** (-1.0 / self.theta)

    def _sum(self, p, coeffs, which, xp=_ARRAYS):
        # K_j = S_j^(-1/theta) with ln S_j = log1p(j expm1(w)), w = -theta ln p;
        # at p = 0 and past the cutoff, where p^-theta overflows, the exact
        # limits are written in, only where the input has such points (w = inf at p = 0)
        theta = self.theta
        logp = xp.log(p)
        w = -theta * logp
        limit = w >= _CLAYTON_LOG_CUTOFF
        limit = limit if xp.any(limit) else None
        em = xp.expm1(xp.minimum(w, _CLAYTON_LOG_CUTOFF))
        if which == 2:
            # K_j' = j p^-(theta+1) S_j^-(1+1/theta); zeroed at the limit
            # points, whose exponent could pass the float range
            power = (theta + 1.0) * logp
            if limit is not None:
                power = xp.where(limit, 0.0, power)
        elif which == 3:
            # K_j'' = K_j' (theta+1)(j-1) / (p S_j)
            power = (theta + 2.0) * logp
        out = xp.zeros_like(p)
        for j, c in coeffs:
            if which == 3 and j == 1:
                continue  # K_1'' = 0 would add nothing
            log_s = xp.log1p(j * em)
            if which == 3:
                if limit is not None:
                    # past the cutoff S_j = j p^-theta to float precision
                    log_s = xp.where(limit, math.log(j) + w, log_s)
                term = xp.exp(math.log(j * (j - 1) * (theta + 1.0)) - power - (2.0 + 1.0 / theta) * log_s)
            else:
                if which == 0:
                    term = xp.exp(-log_s / theta)
                elif which == 1:
                    term = -xp.expm1(-log_s / theta)
                else:
                    term = xp.exp(math.log(j) - power - ((theta + 1.0) / theta) * log_s)
                if limit is not None:
                    # K_j -> p j^(-1/theta) and K_j' -> j^(-1/theta)
                    edge = j ** (-1.0 / theta)
                    if which < 2:
                        edge = p * edge if which == 0 else 1.0 - p * edge
                    term = xp.where(limit, edge, term)
            out += c * term
        return out


_FAMILIES = {
    "independence": Independence,
    "fgm": FGM,
    "gumbel": GumbelHougaard,
    "clayton": ClaytonOakes,
}


def copula_from_dict(fragment: dict, dim: int, where: str = "copula") -> Copula:
    """Build a copula from a JSON fragment; dimension comes from the structure."""
    return read_fragment(fragment, "copula", _FAMILIES, where, dim=dim)
