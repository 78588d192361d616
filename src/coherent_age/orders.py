"""Numerical checkers for stochastic orders and relative-ageing relations.

A verdict here is a numerical certificate on a grid at a stated tolerance,
not a symbolic proof: "yes" means no violation beyond the tolerance at any
grid point.  A ratio of positive values is monotone exactly when the
difference of the logs is, so the ratio checks compare logs and their
tolerance is relative (st compares survival functions within an absolute
one).  A point whose log difference is not finite (0/0, inf/inf) is skipped
and counted; more than 5% skipped makes the verdict inconclusive.

Supported relations between margins X and Y:

    st      usual stochastic order           sf_X <= sf_Y pointwise
    hr      hazard rate order                sf_Y/sf_X increasing
    rh      reversed hazard rate order       cdf_Y/cdf_X increasing
    c       ageing faster, hazard            r_X/r_Y increasing
    b       ageing faster, reversed hazard   rr_X/rr_Y decreasing
    c_star  ageing faster, cumulative hazard          Delta_X/Delta_Y increasing
    b_star  ageing faster, cumulative reversed hazard Dtilde_X/Dtilde_Y decreasing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._num import _integer, _tolerance
from .distributions import LifetimeDistribution, _minus_log_cdf, as_float_array

if TYPE_CHECKING:
    from .systems import GridBasis, SystemModel

__all__ = [
    "Grid",
    "VerifyConfig",
    "OrderVerdict",
    "IdentityReport",
    "RELATIONS",
    "verdict",
    "check_order",
    "system_order_direct",
    "integral_identity_check",
]

RELATIONS = ("st", "hr", "rh", "c", "b", "c_star", "b_star")

MAX_SKIP_FRACTION = 0.05

# Gauss-Legendre nodes per panel of the integral identity check: every piece runs
# at one and two panels, and the difference adds to the error estimate
GL_NODES = 16
# integrand nodes per call: bounds each temporary to 1.5 MB
GL_BLOCK = 196_608
# the quantile levels every bracketed grid spans, and a margin's survival there
Q_LO, Q_HI = 0.001, 0.999
MARGIN_LEVELS = (1.0 - Q_LO, 1.0 - Q_HI)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation grid of positive finite reals."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_float_array(self.points)
        # strictly increasing from a positive first point to a finite last one
        # passes every check below in one pass; anything else meets them in order
        if not (pts.ndim == 1 and pts.size >= 2 and pts[0] > 0.0 and pts[-1] < math.inf and (pts[1:] > pts[:-1]).all()):
            if pts.ndim != 1 or pts.size < 2:
                raise ValueError("grid needs at least two points")
            if not np.all(np.isfinite(pts)):
                raise ValueError("grid points must be finite")
            if np.any(pts <= 0.0):
                raise ValueError("grid points must be positive")
            if np.any(np.diff(pts) <= 0.0):
                raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def log_spaced(cls, lo: float, hi: float, size: int = 2001) -> "Grid":
        if not (lo > 0.0 and hi > 0.0):
            raise ValueError(f"log-spaced grid ends must be positive, got {lo!r} and {hi!r}")
        points = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), size))
        points[:1], points[-1:] = lo, hi
        return cls(points)

    @classmethod
    def probability(cls, eps: float = 1e-3, size: int = 2001) -> "Grid":
        """Linear grid on [eps, 1-eps] for functionals of reliability p."""
        if not 0.0 < eps < 0.5:
            raise ValueError(f"eps_endpoint must satisfy 0 < eps < 0.5, got {eps!r}")
        return cls(np.linspace(eps, 1.0 - eps, size))

    @classmethod
    def margin_bracketed(cls, dist_x: LifetimeDistribution, dist_y: LifetimeDistribution, size: int = 2001) -> "Grid":
        """Log-spaced grid from the lower of the two margins' Q_LO quantiles
        to the higher of their Q_HI quantiles, in closed form from one isf
        call per margin.  That hull contains the [Q_LO, Q_HI] quantiles of
        the equal mixture of the two margins, and avoids both indeterminate
        tails."""
        return cls.log_spaced(*_quantile_bracket((dist_x, MARGIN_LEVELS), (dist_y, MARGIN_LEVELS)), size)

    @classmethod
    def system_bracketed(cls, sys1: SystemModel, sys2: SystemModel, size: int = 2001) -> "Grid":
        """The margin grid's rule for the two SYSTEM lifetimes: a system's
        q-quantile is its margin's isf at h^-1(1-q), the reliability from
        Distortion._levels.  System lifetimes can live far from their
        component margins (a parallel system dies long after its first
        component), and ratios of system cumulative hazards are
        indeterminate outside this range."""
        lifetimes = ((s.margin, s.distortion._levels(Q_LO, Q_HI)) for s in (sys1, sys2))
        return cls.log_spaced(*_quantile_bracket(*lifetimes), size)


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and grids for one certification run.

    tol applies to every ratio and monotonicity check, all of them built
    from closed forms.  The ratio checks compare logs, so there it is
    relative; for st and the slope conditions it is absolute.  sign_slack
    classifies identically-zero sign conditions as boundary passes.
    grid_size is the size of both the p-grid on [eps_endpoint,
    1-eps_endpoint] and the log-spaced x-grid bracketing the two margins.

    This is the one place the settings are checked, for the library and the
    command line alike: an integral grid size whose p-grid builds, and
    tolerances finite and >= 0; anything else raises ValueError.  The
    p-grid built by that check is kept, read-only, and so is its ``basis``,
    built on the first verify: the clamped grid, 1-p and the Bernstein
    powers p^k and (1-p)^k for k < POWER_BUDGET / (2 x bytes of the points)
    (``systems.POWER_BUDGET``, 1 MiB: k <= 31 on 2001 points).  Every verify
    under one config, or under the default one, shares them.
    """

    eps_endpoint: float = 1e-3
    grid_size: int = 2001
    tol: float = 1e-9
    sign_slack: float = 1e-8
    p_grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grid_size", _integer(self.grid_size, "grid size"))
        try:
            grid = Grid.probability(self.eps_endpoint, self.grid_size)
        except ValueError as exc:
            raise ValueError(f"grid size {self.grid_size}, eps_endpoint {self.eps_endpoint!r}: {exc}") from exc
        grid.points.setflags(write=False)
        object.__setattr__(self, "p_grid", grid)
        for key in ("tol", "sign_slack"):
            _tolerance(getattr(self, key), key)

    @cached_property
    def basis(self) -> GridBasis:
        from .systems import Distortion, GridBasis

        points = Distortion._clamped(self.p_grid.points)
        points.setflags(write=False)
        return GridBasis(points)


def _quantile_bracket(*lifetimes: tuple[LifetimeDistribution, tuple[float, float]]) -> tuple[float, float]:
    """The lower of the lifetimes' Q_LO quantiles and the higher of their
    Q_HI quantiles, from one isf call per lifetime, a margin and its survival
    levels at those two quantiles; a hull that is not finite is refused."""
    (x_lo, x_hi), (y_lo, y_hi) = (as_float_array(d.isf(np.array(levels))).tolist() for d, levels in lifetimes)
    lo, hi = min(x_lo, y_lo), max(x_hi, y_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the quantile bracket [{lo!r}, {hi!r}] is not finite")
    return lo, hi


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a grid check with the worst witness point."""

    relation: str
    holds: str  # "yes" | "no" | "inconclusive"
    witness_x: float | None
    violation: float
    tolerance: float
    skipped: int = 0
    checked: int = 0
    note: str = ""


MONOTONE_RULES = ("incr", "decr")
RULES = MONOTONE_RULES + ("nonpositive", "nonnegative")


def verdict(xs: np.ndarray, values: np.ndarray, rule: str, tol: float, relation: str) -> OrderVerdict:
    """The one grid verdict: values at xs increasing or decreasing (rule
    "incr" or "decr"), or <= 0 or >= 0 ("nonpositive" or "nonnegative"),
    within tol, which must be finite and >= 0.

    Non-finite values are skipped and counted; more than MAX_SKIP_FRACTION
    of the points skipped, or fewer than two kept points for a monotone
    rule, is inconclusive.  A monotone violation is the worst reversal
    between any earlier and later kept point.
    """
    xs, values = as_float_array(xs), as_float_array(values)
    if xs.ndim != 1 or values.shape != xs.shape:
        raise ValueError(f"values of shape {values.shape} do not match the points' {xs.shape}, a vector")
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    _tolerance(tol, "tol")
    finite = np.isfinite(values)
    # all finite, the usual case: the values themselves, no copies
    xs, kept = (xs, values) if finite.all() else (xs[finite], values[finite])
    skipped = finite.size - kept.size
    if kept.size == 0:
        raise ValueError("empty grid after skipping flagged points")
    monotone = rule in MONOTONE_RULES
    if skipped > MAX_SKIP_FRACTION * finite.size or (monotone and kept.size < 2):
        return OrderVerdict(relation, "inconclusive", None, np.nan, tol, skipped, kept.size,
                            note="too many points skipped")
    # a monotone violation is the worst reversal between ANY earlier/later
    # pair (drawdown), not just adjacent points, so a slow cumulative
    # reversal cannot certify; its witness is the later point of the pair.  Monotone values need
    # no scan: max/min of equals returns the second, so the scan would return them bit for bit
    if monotone and ((kept[1:] >= kept[:-1]) if rule == "incr" else (kept[1:] <= kept[:-1])).all():
        viol = kept[1:] - kept[1:]
    elif rule == "incr":
        viol = np.maximum.accumulate(kept)[1:] - kept[1:]
    elif rule == "decr":
        viol = kept[1:] - np.minimum.accumulate(kept)[1:]
    else:
        viol = kept if rule == "nonpositive" else -kept
    idx = int(np.argmax(viol))
    worst = float(viol[idx])
    holds = "yes" if worst <= tol else "no"
    return OrderVerdict(relation, holds, float(xs[idx + monotone]), worst, tol, skipped, kept.size)


def _log_ratio(num, den) -> np.ndarray:
    """ln num - ln den, the log of a ratio of positive values; where that is
    not finite (a zero or infinite operand) the point is skipped."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(num) - np.log(den)


def _log_functional(dist: LifetimeDistribution, relation: str, xs: np.ndarray) -> np.ndarray:
    """The log of the quantity `relation` divides, from at most one _chz call:
    ln hz for c, -Delta (ln sf) for hr, -Dtilde (ln cdf) for rh, ln hz -
    Delta + Dtilde (ln rev_hazard) for b, ln Delta for c_star and ln Dtilde
    for b_star, which is -Delta to the last bit where Dtilde underflows to 0."""
    if relation == "c":
        return np.log(dist._hz(xs))
    delta = dist._chz(xs)
    if relation == "hr":
        return -delta
    if relation == "c_star":
        return np.log(delta)
    dtilde = _minus_log_cdf(delta)
    if relation == "rh":
        return -dtilde
    if relation == "b_star":
        return np.where(dtilde > 0.0, np.log(dtilde), -delta)
    return np.log(dist._hz(xs)) - delta + dtilde


def check_order(
    dist_x: LifetimeDistribution,
    dist_y: LifetimeDistribution,
    relation: str,
    grid: Grid | None = None,
    tol: float = 1e-9,
) -> OrderVerdict:
    """Grid-certify a stochastic order or ageing-faster relation X vs Y,
    by default on Grid.margin_bracketed(dist_x, dist_y): 2001 log-spaced
    points over the hull of the two margins' Q_LO and Q_HI quantiles."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    if grid is None:
        grid = Grid.margin_bracketed(dist_x, dist_y)
    x = grid.points

    if relation == "st":
        diff = as_float_array(dist_x.sf(x)) - as_float_array(dist_y.sf(x))
        return verdict(x, diff, "nonpositive", tol, relation)

    # the relations are defined on intervals whose boundary values are known:
    # every ratio is anchored at x = 0, and the cdf ratio also at the right
    # tail where both cdfs reach 1, a log ratio of 0.  Indeterminate anchors
    # (0/0, inf/inf) are skipped; determinate ones catch reversals that
    # happen before the first (or after the last) interior grid point.
    xs = np.concatenate(([0.0], x))
    num, den = (dist_y, dist_x) if relation in ("hr", "rh") else (dist_x, dist_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _log_functional(num, relation, xs) - _log_functional(den, relation, xs)
    if relation == "rh":
        xs, values = np.append(xs, np.inf), np.append(values, 0.0)
    return verdict(xs, values, "decr" if relation in ("b", "b_star") else "incr", tol, relation)


def system_order_direct(
    sys1: SystemModel,
    sys2: SystemModel,
    relation: str,
    grid: Grid | None = None,
    tol: float = 1e-9,
) -> OrderVerdict:
    """Ground-truth grid check of an ageing-faster conclusion between systems.

    For c_star the ratio of system cumulative hazards -ln h(sf(x)) must be
    increasing; for b_star the ratio of system cumulative reversed hazards
    must be decreasing.  Both are checked as the difference of the logs.
    """
    if relation not in ("c_star", "b_star"):
        raise ValueError("direct system comparison supports only 'c_star' and 'b_star'")
    if grid is None:
        grid = Grid.system_bracketed(sys1, sys2)
    x = grid.points
    num, den = (s.cum_hazard(x) if relation == "c_star" else s.cum_rev_hazard(x) for s in (sys1, sys2))
    return verdict(x, _log_ratio(num, den), "incr" if relation == "c_star" else "decr", tol, f"system:{relation}")


@dataclass(frozen=True)
class IdentityReport:
    """Worst quadrature-vs-direct discrepancy of the two cumulative-hazard identities."""

    max_abs_cum_hazard: float
    max_abs_cum_rev_hazard: float
    worst_x_cum_hazard: float
    worst_x_cum_rev_hazard: float
    n_points: int
    quad_tol: float

    @property
    def max_abs(self) -> float:
        return max(self.max_abs_cum_hazard, self.max_abs_cum_rev_hazard)


def integral_identity_check(
    sys: SystemModel,
    grid: Grid | None = None,
    quad_tol: float = 1e-9,
) -> IdentityReport:
    """Cross-validate the system cumulative hazards against their integral forms.

    At every grid x, quadrature of the elasticity functionals must reproduce
    the directly evaluated system cumulative hazards:

        -ln h(sf(x))     = integral_0^{Delta(x)}  H(e^-v) dv
        -ln(1 - h(sf(x))) = integral_0^{Dtilde(x)} R(1-e^-v) dv

    One margin pass gives the limits Delta and Dtilde, and sf(x) = exp(-Delta) to the bit.  One h,
    1 - h pair on a GridBasis of sf(x) gives both direct sides, each -ln by ``systems._minus_log``
    reading the other array at its far points: the bits of ``sys.cum_hazard`` and
    ``sys.cum_rev_hazard``.  Both integrals are running sums over shared pieces: on [0, head] (head
    the smallest positive limit, or the lower clamp kink of H and R if smaller) the clamp holds each
    integrand at its v = 0 value, so that piece is exact; above it Gauss-Legendre pieces are cut at
    head * 2^k and both kinks, and each limit adds its own from the last cut below it.  RuntimeError
    is raised where the summed rule differences exceed max(quad_tol, quad_tol * |integral|);
    quad_tol must be finite and >= 0, else ValueError.
    """
    from .systems import EPS_CLAMP, GridBasis, _minus_log

    _tolerance(quad_tol, "quad_tol")
    if grid is None:
        grid = Grid.margin_bracketed(sys.margin, sys.margin, size=200)
    dist = sys.distortion
    x = grid.points
    delta = sys.margin._chz(x)
    upper = np.array((delta, _minus_log_cdf(delta)))
    if not np.isfinite(upper).all():
        raise ValueError("integration limit is not finite; shrink the grid range")
    # where the clamp of H(e^-v) and R(1-e^-v) to [EPS_CLAMP, 1-EPS_CLAMP] sets in
    kinks = (-math.log1p(-EPS_CLAMP), -math.log(EPS_CLAMP))
    rhs = _identity_integrals(
        [lambda v: dist._elasticity(np.clip(np.exp(-v), EPS_CLAMP, 1.0 - EPS_CLAMP), "H", slope=False),
         lambda v: dist._elasticity(np.clip(-np.expm1(-v), EPS_CLAMP, 1.0 - EPS_CLAMP), "R", slope=False)],
        upper, x, quad_tol, kinks)
    basis = GridBasis(np.exp(-delta))
    h, compl = dist._evaluate(basis, 0), dist._evaluate(basis, 1)
    err = np.abs(np.array((_minus_log(h, lambda far: compl[far]), _minus_log(compl, lambda far: h[far]))) - rhs)
    # argmax keeps the first maximum as the witness
    ic, ib = np.argmax(err, axis=1)
    return IdentityReport(float(err[0, ic]), float(err[1, ib]), float(x[ic]), float(x[ib]), x.size, quad_tol)


@cache
def _piece_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w with integral_0^1 f(u) du ~ f(u) @ w[:, i]: composite
    Gauss-Legendre on one panel (i = 0) and on two (i = 1)."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    u, weights = 0.5 * (t + 1.0), np.zeros((3 * GL_NODES, 2))
    weights[:GL_NODES, 0], weights[GL_NODES:, 1] = 0.5 * w, 0.25 * np.tile(w, 2)
    return np.concatenate((u, 0.5 * u, 0.5 + 0.5 * u)), weights


def _identity_integrals(integrands, upper: np.ndarray, xs: np.ndarray, quad_tol: float, kinks) -> np.ndarray:
    """integral_0^upper[k, i] integrands[k](v) dv for both k and every i, each
    integrand constant on [0, head]; raises where the error estimate exceeds quad_tol.

    Integral k sums the shared pieces up to the last break below its largest
    limit, then adds each limit's own piece from the last break below it; a
    piece's width is its end minus its start."""
    nodes, weights = _piece_rule()
    # each limit's error estimate and integral
    res = np.zeros((*upper.shape, 2))
    positive, top = upper > 0.0, upper.max()
    if top > 0.0:
        # the breaks both integrals share (the doublings, sorted with a kink only
        # when one falls inside them), and the last one at or below each limit
        head = upper.min(where=positive, initial=kinks[0])
        breaks = np.ldexp(head, np.arange(int(math.log2(top) - math.log2(head)) + 1))
        inside = [kink for kink in kinks if head < kink < top]
        if inside:
            breaks = np.sort(np.concatenate((breaks, inside)))
        below = np.searchsorted(breaks, upper, side="right") - 1
        step = (GL_BLOCK - 1) // nodes.size
        # a zero weight meets an infinite value as nan: the estimate is not finite either way
        with np.errstate(invalid="ignore"):
            for k, integrand in enumerate(integrands):
                own = positive[k]
                if not own.any():
                    continue
                last = below[k, own]
                shared = last.max()
                lo = np.concatenate((breaks[:shared], breaks[last]))[:, None]
                width = np.concatenate((breaks[1 : shared + 1], upper[k, own]))[:, None] - lo
                # the head piece, then each piece at one and two panels, from one
                # integrand call per block of pieces, the first led by v = 0
                rows = np.empty((1 + width.size, 2))
                for i in range(0, width.size, step):
                    v = (lo[i : i + step] + width[i : i + step] * nodes).ravel()
                    values = integrand(v if i else np.concatenate(([0.0], v)))
                    if not i:
                        constant, values = values[0], values[1:]
                    np.matmul(values.reshape(-1, nodes.size), weights, out=rows[1 + i : 1 + i + step])
                rows[1:] *= width
                # each piece's error estimate and integral; the exact head's estimate is 0 (nan if not finite)
                rows[0] = 0.0 * constant, head * constant
                rows[1:, 0] = np.abs(rows[1:, 1] - rows[1:, 0])
                res[k, own] = np.add.accumulate(rows[: shared + 1])[last] + rows[shared + 1 :]
    err, out = res[..., 0], res[..., 1]
    ok = err <= np.maximum(quad_tol, quad_tol * np.abs(out))
    if not ok.all():
        k, i = np.unravel_index(np.argmin(ok), ok.shape)
        raise RuntimeError(f"quadrature did not converge: at x={xs[i]:.17g} the error estimate is {err[k, i]:.3e}")
    return out
