"""Numerical checkers for stochastic orders and relative-ageing relations.

A verdict here is a numerical certificate on a grid at a stated tolerance,
not a symbolic proof: "yes" means no violation beyond the tolerance at any
grid point.  Ratio checks follow the convention a/0 = inf by skipping grid
points whose denominator is below 1e-12 (or not finite); the skip count is
reported and more than 5% skipped makes the verdict inconclusive.

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
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from ._num import _integer, _tolerance
from .distributions import LifetimeDistribution, as_float_array

if TYPE_CHECKING:
    from .systems import SystemModel

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

RATIO_FLOOR = 1e-12
MAX_SKIP_FRACTION = 0.05

# Gauss-Legendre panels of the integral identity check: the graded rule at GL_PANELS[0] and [1],
# later pieces at one and two; each pair's difference adds to the error estimate
GL_NODES = 16
GL_PANELS = (32, 64)
# integrand nodes per call, those of GL_BLOCK graded rules: bounds each temporary to 1.5 MB
GL_BLOCK = 128
# the quantile levels every bracketed grid spans
Q_LO, Q_HI = 0.001, 0.999
# the most doublings (halvings) that widen a system grid's bracket ends
WIDEN_STEPS = 200
# a quantile bracket at most this many floats wide is finished in one mixture call
FINISH_FLOATS = 64


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation grid of positive finite reals."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_float_array(self.points)
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
        return cls.log_spaced(*_quantile_bracket(dist_x, dist_y), size)

    @classmethod
    def system_bracketed(cls, sys1, sys2, size: int = 2001) -> "Grid":
        """Grid spanning the [Q_LO, Q_HI] quantiles of the equal mixture of
        the two SYSTEM lifetimes.  System lifetimes can live far from their
        component margins (a parallel system dies long after its first
        component), and ratios of system cumulative hazards are indeterminate
        outside this range, so the margins' bracket is widened first.

        The widening takes the first lo * 2**-k, k <= 200, at which the
        mixture is <= Q_LO or that lies below 1e-280 (lo * 2**-200 when none
        does), and likewise the first hi * 2**k with the mixture >= Q_HI or
        above 1e280.  Scaling by a power of two is exact there, so these are
        the floats of repeated halving and doubling; one mixture call tries
        k = 0..7 at both ends, and the next eight follow only for an end
        where none qualified (candidates past 1e-280 or 1e280 end the list).
        The mixture values at the two ends it takes go on to _bracketed, so
        its first call already halves.
        """

        # SystemModel.survival on the cores: the points are nonnegative, so
        # every margin survival lies in [0, 1]
        def mix_cdf(x):
            xa = as_float_array(x)
            sf1, sf2 = (s.distortion._evaluate(np.exp(-s.margin._chz(xa)), 0) for s in (sys1, sys2))
            return 1.0 - 0.5 * (sf1 + sf2)

        lo, hi = _quantile_bracket(sys1.margin, sys2.margin)
        # per end: the direction of k, the level, the float-range stop and
        # the start; the sign turns "F <= Q_LO or x < 1e-280" at the lower end
        # into the ">= ... or >" of the upper end
        ends = [(-1, Q_LO, 1e-280, lo), (1, Q_HI, 1e280, hi)]
        found = {}
        for k0 in range(0, WIDEN_STEPS + 1, 8):
            tries = {}
            for i, (sign, _, stop, start) in enumerate(ends):
                if i in found:
                    continue
                xs = tries[i] = []
                for k in range(k0, min(k0 + 8, WIDEN_STEPS + 1)):
                    x = math.ldexp(start, sign * k)
                    # taken whatever the mixture is there
                    forced = sign * x > sign * stop or k == WIDEN_STEPS
                    xs.append((x, forced))
                    if forced:
                        break
            values = iter(as_float_array(mix_cdf(np.array([x for xs in tries.values() for x, _ in xs]))).tolist())
            for i, xs in tries.items():
                sign, level = ends[i][:2]
                hits = [(x, f) for (x, forced), f in zip(xs, values) if forced or sign * f >= sign * level]
                if hits:
                    found[i] = hits[0]
            if len(found) == 2:
                break
        (lo, f_lo), (hi, f_hi) = found[0], found[1]
        return cls._bracketed(mix_cdf, lo, hi, size, Q_LO, Q_HI, f_ends=(f_lo, f_hi))

    @classmethod
    def _bracketed(cls, mix_cdf, lo: float, hi: float, size: int, q_lo: float, q_hi: float,
                   f_ends: tuple[float, float] | None = None) -> "Grid":
        """Log-spaced grid between the q_lo and q_hi quantiles of mix_cdf (of
        a system grid's two lifetimes), both found as the floats that halving
        [lo, hi] reaches when it runs until the midpoint equals an end of its
        bracket.  A finite bracket gets there within 2098 halvings, and every
        later bracket has that midpoint.

        Each target keeps its bracket [a, b] and F there: f_ends, when the
        caller has F(lo) and F(hi), else a first call on lo and hi.  Each
        later call guesses the target by the secant in complementary log-log
        coordinates (ln x against ln(-ln(1 - F)), where exponential, Weibull
        and LFR mixtures and power-law distortion tails are nearly
        straight), else by the secant through (a, F(a)) and (b, F(b)), else
        by the midpoint.  A secant that is not defined does not count, and
        one past an end of [a, b] is that end: the target then lies beyond
        it, and the halvings converge to it.  The call walks the halvings
        m = 0.5 * (a + b) towards the guess.  When both secants exist, their
        distance estimates the guess's error, and a walk stops once its
        bracket is narrower than 2**-10 of it; both lie in [a, b], so each
        walk has at least one point.  Within FINISH_FLOATS floats of the
        crossing a guess is rounding noise, so a bracket that narrow
        (0 < a, b - a <= FINISH_FLOATS * ulp(a)) instead gets every float
        strictly inside it, at most 63 (for 64 floats, the halving subtree to
        depth 6).  They hold every midpoint its search can still reach, so
        it ends in that call.

        One mixture call evaluates the points of both targets, and each
        target then takes the halvings whose midpoint is among them,
        deciding each by `F(m) < target`.  Of a walk, that is its points up
        to the first whose side disagrees with the guess, as the next
        midpoint lies on the other side of that one.  Every call takes at
        least one halving, and no grid depends on the guess, the walk length
        or the finish, so the grid is the same floats as from one call per
        halving.
        """
        if hi <= lo:
            return cls.log_spaced(lo, lo, size)
        lo, hi = float(lo), float(hi)
        f_lo, f_hi = f_ends or as_float_array(mix_cdf(np.array([lo, hi]))).tolist()
        targets = (q_lo, q_hi)
        loglog_targets = [_cloglog(q) for q in targets]
        # per target: a, b, F(a), F(b)
        state = [[lo, hi, f_lo, f_hi], [lo, hi, f_lo, f_hi]]
        while True:
            points = []
            for target, loglog_target, (a, b, fa, fb) in zip(targets, loglog_targets, state):
                if 0.0 < a and b - a <= FINISH_FLOATS * math.ulp(a):
                    # positive floats are in the order of their bit patterns
                    a_bits, b_bits = np.array([a, b]).view(np.int64).tolist()
                    points += np.arange(a_bits + 1, b_bits, dtype=np.int64).view(np.float64).tolist()
                    continue
                linear = _secant(a, b, fa, fb, target)
                loglog = math.nan
                if a > 0.0:
                    # taken relative to b, so exp cannot overflow
                    ln_b = math.log(b)
                    ln_x = _secant(math.log(a), ln_b, _cloglog(fa), _cloglog(fb), loglog_target)
                    loglog = b * math.exp(ln_x - ln_b)
                guess = next((g for g in (loglog, linear) if not math.isnan(g)), 0.5 * (a + b))
                # nan unless both secants exist: then the walk runs to the end
                width = 2.0**-10 * abs(loglog - linear)
                while True:
                    m = 0.5 * (a + b)
                    if m == a or m == b:
                        break
                    points.append(m)
                    a, b = (m, b) if m < guess else (a, m)
                    if b - a < width:
                        break
            if not points:
                break
            known = dict(zip(points, as_float_array(mix_cdf(np.array(points))).tolist()))
            for target, end in zip(targets, state):
                a, b, fa, fb = end
                while True:
                    m = 0.5 * (a + b)
                    value = known.get(m)
                    if value is None or m == a or m == b:
                        break
                    if value < target:
                        a, fa = m, value
                    else:
                        b, fb = m, value
                end[:] = a, b, fa, fb
        return cls.log_spaced(0.5 * (state[0][0] + state[0][1]), 0.5 * (state[1][0] + state[1][1]), size)


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and grids for one certification run.

    tol applies to every ratio and monotonicity check, all of them built
    from closed forms; sign_slack classifies identically-zero sign conditions
    as boundary passes.  grid_size is the size of both the p-grid on
    [eps_endpoint, 1-eps_endpoint] and the log-spaced x-grid bracketing the
    two margins.

    This is the one place the settings are checked, for the library and the
    command line alike: an integral grid size whose p-grid builds, and
    tolerances finite and >= 0; anything else raises
    ValueError.  The p-grid built by that check is kept, read-only, and
    every verify under the config reads it.
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


def _quantile_bracket(dist_x: LifetimeDistribution, dist_y: LifetimeDistribution) -> tuple[float, float]:
    """The lower of the two Q_LO quantiles and the higher of the two Q_HI
    quantiles, from one isf call per margin; a hull that is not finite is
    refused."""
    (x_lo, x_hi), (y_lo, y_hi) = (
        as_float_array(d.isf(np.array([1.0 - Q_LO, 1.0 - Q_HI]))).tolist() for d in (dist_x, dist_y)
    )
    lo, hi = min(x_lo, y_lo), max(x_hi, y_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the quantile bracket [{lo!r}, {hi!r}] is not finite")
    return lo, hi


def _secant(a: float, b: float, fa: float, fb: float, target: float) -> float:
    """Where the chord through (a, fa) and (b, fb) reaches target, clamped
    to [a, b]; nan when that is undefined."""
    guess = a + (target - fa) * (b - a) / (fb - fa) if fb != fa else math.nan
    return min(max(guess, a), b)


def _cloglog(f: float) -> float:
    """ln(-ln(1 - f)), nan outside 0 < f < 1."""
    return math.log(-math.log1p(-f)) if 0.0 < f < 1.0 else math.nan


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
    xs, kept = xs[finite], values[finite]
    skipped = finite.size - kept.size
    if kept.size == 0:
        raise ValueError("empty grid after skipping flagged points")
    monotone = rule in MONOTONE_RULES
    if skipped > MAX_SKIP_FRACTION * finite.size or (monotone and kept.size < 2):
        return OrderVerdict(relation, "inconclusive", None, np.nan, tol, skipped, kept.size,
                            note="too many points skipped")
    # a monotone violation is the worst reversal between ANY earlier/later
    # pair (drawdown), not just adjacent points, so a slow cumulative
    # reversal cannot certify; its witness is the later point of the pair
    if rule == "incr":
        viol = np.maximum.accumulate(kept)[1:] - kept[1:]
    elif rule == "decr":
        viol = kept[1:] - np.minimum.accumulate(kept)[1:]
    else:
        viol = kept if rule == "nonpositive" else -kept
    idx = int(np.argmax(viol))
    worst = float(viol[idx])
    holds = "yes" if worst <= tol else "no"
    return OrderVerdict(relation, holds, float(xs[idx + monotone]), worst, tol, skipped, kept.size)


def _ratio(num, den) -> np.ndarray:
    """num/den where both are finite and |den| >= RATIO_FLOOR, nan (a skipped
    point) elsewhere; the skipped points are not divided."""
    num, den = as_float_array(num), as_float_array(den)
    keep = np.isfinite(num) & np.isfinite(den) & (np.abs(den) >= RATIO_FLOOR)
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=keep)


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

    table = {
        "hr": (dist_y.sf, dist_x.sf, "incr"),
        "rh": (dist_y.cdf, dist_x.cdf, "incr"),
        "c": (dist_x.hazard, dist_y.hazard, "incr"),
        "b": (dist_x.rev_hazard, dist_y.rev_hazard, "decr"),
        "c_star": (dist_x.cum_hazard, dist_y.cum_hazard, "incr"),
        "b_star": (dist_x.cum_rev_hazard, dist_y.cum_rev_hazard, "decr"),
    }
    num_fn, den_fn, direction = table[relation]
    num = np.asarray(num_fn(x), dtype=float)
    den = np.asarray(den_fn(x), dtype=float)
    # the relations are defined on intervals whose boundary values are known:
    # every ratio is anchored at x = 0, and the cdf ratio also at the right
    # tail where both cdfs reach 1.  Indeterminate anchors (0/0, inf/inf)
    # fall to the ordinary skip rule; determinate ones catch reversals that
    # happen before the first (or after the last) interior grid point.
    xs = np.concatenate(([0.0], x))
    num = np.concatenate(([float(num_fn(0.0))], num))
    den = np.concatenate(([float(den_fn(0.0))], den))
    if relation == "rh":
        xs = np.concatenate((xs, [np.inf]))
        num = np.concatenate((num, [1.0]))
        den = np.concatenate((den, [1.0]))
    return verdict(xs, _ratio(num, den), direction, tol, relation)


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
    must be decreasing.
    """
    if relation not in ("c_star", "b_star"):
        raise ValueError("direct system comparison supports only 'c_star' and 'b_star'")
    if grid is None:
        grid = Grid.system_bracketed(sys1, sys2)
    x = grid.points
    if relation == "c_star":
        num, den, direction = sys1.cum_hazard(x), sys2.cum_hazard(x), "incr"
    else:
        num, den, direction = sys1.cum_rev_hazard(x), sys2.cum_rev_hazard(x), "decr"
    return verdict(x, _ratio(num, den), direction, tol, f"system:{relation}")


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

    Each integral is one running sum: a Gauss-Legendre rule on the graded map
    v = head * s^2 over [0, head] (head the smallest positive limit, or the lower
    clamp kink of H and R if smaller), pieces cut at head * 2^k and both kinks, and
    each limit's own piece from the last cut below it.  RuntimeError is raised where
    the summed rule differences exceed max(quad_tol, quad_tol * |integral|).
    """
    from .systems import EPS_CLAMP, _minus_log

    if grid is None:
        grid = Grid.margin_bracketed(sys.margin, sys.margin, size=200)
    dist = sys.distortion
    x = grid.points

    upper_c = as_float_array(sys.margin.cum_hazard(x))
    upper_b = as_float_array(sys.margin.cum_rev_hazard(x))
    if not (np.all(np.isfinite(upper_c)) and np.all(np.isfinite(upper_b))):
        raise ValueError("integration limit is not finite; shrink the grid range")

    # where the clamp of H(e^-v) and R(1-e^-v) to [EPS_CLAMP, 1-EPS_CLAMP] sets in
    kinks = (-math.log1p(-EPS_CLAMP), -math.log(EPS_CLAMP))
    rhs_c = _graded_gauss_legendre(lambda v: dist.H(np.exp(-v)), upper_c, x, quad_tol, kinks)
    rhs_b = _graded_gauss_legendre(lambda v: dist.R(-np.expm1(-v)), upper_b, x, quad_tol, kinks)
    h, omh = sys._h_pair(x)
    err_c = np.abs(_minus_log(h, omh) - rhs_c)
    err_b = np.abs(_minus_log(omh, h) - rhs_b)
    # argmax keeps the first maximum as the witness
    ic = int(np.argmax(err_c))
    ib = int(np.argmax(err_b))
    return IdentityReport(
        float(err_c[ic]), float(err_b[ib]), float(x[ic]), float(x[ib]), x.size, quad_tol
    )


@cache
def _composite_rule(panels: tuple[int, int], graded: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w with integral_0^1 f(u) du ~ f(u) @ w[:, i]: composite Gauss-Legendre
    in s over panels[0] and then panels[1] equal panels of [0, 1], mapped by u = s^2 when graded."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    s = [(np.arange(count)[:, None] + 0.5 * (t + 1.0)).ravel() / count for count in panels]
    weights = np.zeros((s[0].size + s[1].size, 2))
    weights[: s[0].size, 0], weights[s[0].size :, 1] = (
        np.tile(w, count) * (si / count if graded else 0.5 / count) for count, si in zip(panels, s))
    return np.concatenate(s) ** (2 if graded else 1), weights


def _graded_gauss_legendre(integrand, upper: np.ndarray, xs: np.ndarray, quad_tol: float, kinks) -> np.ndarray:
    """integral_0^upper[i] integrand(v) dv for every i, one running sum over
    pieces shared by every limit, cut at the kinks too; raises where the
    error estimate exceeds quad_tol."""
    graded_nodes, graded_w = _composite_rule(GL_PANELS, graded=True)
    piece_nodes, piece_w = _composite_rule((1, 2), graded=False)
    out, err = np.zeros((2, upper.size))
    positive = upper > 0.0
    if np.any(positive):
        limits = upper[positive]
        # pieces between the breaks, then each limit's from the last break below it
        head, top = min(limits.min(), kinks[0]), limits.max()
        doublings = np.ldexp(head, np.arange(int(math.log2(top) - math.log2(head)) + 1))
        breaks = np.sort(np.concatenate((doublings, [k for k in kinks if head < k < top])))
        below = np.searchsorted(breaks, limits, side="right") - 1
        starts = np.concatenate((breaks[:-1], breaks[below]))[:, None]
        widths = np.concatenate((np.diff(breaks), limits - breaks[below]))[:, None]
        # one integrand call per block of pieces, the graded rule's nodes in the first
        step = (GL_BLOCK - 1) * graded_nodes.size // piece_nodes.size
        sums = []
        # a zero weight meets an infinite value as nan: the estimate is not finite either way
        with np.errstate(invalid="ignore"):
            for start in range(0, widths.size, step):
                rows = slice(start, start + step)
                nodes = (starts[rows] + widths[rows] * piece_nodes).ravel()
                values = as_float_array(integrand(np.concatenate((head * graded_nodes, nodes)) if start == 0 else nodes))
                if start == 0:
                    lo, hi = head * (values[: graded_nodes.size] @ graded_w)
                    values = values[graded_nodes.size :]
                sums.append(values.reshape(-1, piece_nodes.size) @ piece_w)
            one, two = (widths * np.concatenate(sums)).T
            # each piece's integral and error estimate, summed from the graded rule's
            pieces = np.stack((two, np.abs(two - one)), axis=1)
            running = np.cumsum(np.concatenate(([[hi, abs(hi - lo)]], pieces[: breaks.size - 1])), axis=0)
            out[positive], err[positive] = (running[below] + pieces[breaks.size - 1 :]).T
    bad = ~(err <= np.maximum(quad_tol, quad_tol * np.abs(out)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RuntimeError(f"quadrature did not converge: at x={xs[i]:.17g} the error estimate is {err[i]:.3e}")
    return out
