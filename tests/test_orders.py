import math

import numpy as np
import pytest
from mpmath import mp, mpf

from coherent_age import orders, systems
from coherent_age.copulas import FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.orders import (
    Grid,
    check_order,
    integral_identity_check,
    system_order_direct,
    verdict,
)
from coherent_age.systems import EPS_CLAMP, Structure, SystemModel, _minus_log, k_of_n_paths
from corpus_helpers import exact_exch, golden_corpus, random_instance

LFR_X = LinearFailureRate(1.0, 1.0)
LFR_Y = LinearFailureRate(2.0, 1.0)
# tolerances every verdict refuses: not finite, or negative
BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1.0]


def fgm_system(theta=1.0, margin=LFR_X):
    return SystemModel(Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(theta), margin)


def series3_system(margin=LFR_Y):
    return SystemModel(Structure.series(3), Independence(3), margin)


def kofn_system(k, n, margin):
    return SystemModel(k_of_n_paths(k, n), Independence(n), margin)


def golden_system(name):
    return next(SystemModel(*triple) for triple_name, *triple in golden_corpus() if triple_name == name)


def golden_grid(sysm, size=200):
    return Grid.margin_bracketed(sysm.margin, sysm.margin, size=size)


def sequential_bracketed(mix_cdf, lo, hi, size, q_lo, q_hi):
    """Grid._bracketed one halving at a time: one array call of mix_cdf on
    the two current midpoints per halving, until neither midpoint moves."""
    if hi <= lo:
        return Grid.log_spaced(lo, lo, size)
    targets = np.array([q_lo, q_hi])
    lo_b = np.full(2, float(lo))
    hi_b = np.full(2, float(hi))
    mid = 0.5 * (lo_b + hi_b)
    while True:
        below = np.asarray(mix_cdf(mid), dtype=float) < targets
        lo_b = np.where(below, mid, lo_b)
        hi_b = np.where(below, hi_b, mid)
        moved, mid = mid, 0.5 * (lo_b + hi_b)
        if np.array_equal(mid, moved):
            return Grid.log_spaced(float(mid[0]), float(mid[1]), size)


def _lfr_mixture(x):
    return 0.5 * (LFR_X.cdf(x) + LFR_Y.cdf(x))


def _ulp_jitter(x):
    # one ulp up or down by the parity of x's last mantissa bit: not monotone
    v = _lfr_mixture(x)
    odd = (np.asarray(x, dtype=float).view(np.uint64) & 1) == 1
    return np.where(odd, np.nextafter(v, 2.0), np.nextafter(v, -1.0))


# (mixture, lo, hi) on which a secant guess is wrong, undefined or not finite
ADVERSARIAL_MIXTURES = {
    "step": (lambda x: np.where(x < 2.0, 0.0, np.where(x < 5.0, 0.5, 1.0)), 1e-4, 10.0),
    "flat": (lambda x: np.full_like(x, 0.5), 1e-4, 10.0),
    "nan-above-1": (lambda x: np.where(x > 1.0, np.nan, _lfr_mixture(x)), 1e-4, 10.0),
    "ulp-jitter": (_ulp_jitter, 1e-4, 10.0),
    "ends-1e-300-1e300": (lambda x: np.minimum(x / 1e300, 1.0), 1e-300, 1e300),
}


class TestGrid:
    def test_log_spacing(self):
        g = Grid.log_spaced(0.01, 10.0, 101)
        assert g.points[0] == pytest.approx(0.01)
        assert g.points[-1] == pytest.approx(10.0)
        assert g.points.size == 101

    @pytest.mark.parametrize("size", [2, 3, 200, 2001])
    def test_log_spaced_is_geomspace(self, size):
        # 5000 seeded brackets a size, 20000 in all, with ends from 1e-300 to 1e3
        rng = np.random.default_rng(size)
        ends = np.sort(10.0 ** rng.uniform(-300.0, 3.0, (5000, 2)), axis=1).tolist()
        got = np.array([Grid.log_spaced(lo, hi, size).points for lo, hi in ends])
        assert np.array_equal(got, np.array([np.geomspace(lo, hi, size) for lo, hi in ends]))

    @pytest.mark.parametrize("lo", [0.0, -1.0, np.nan])
    def test_log_spaced_needs_positive_ends(self, lo):
        with pytest.raises(ValueError, match="log-spaced grid ends must be positive"):
            Grid.log_spaced(lo, 1.0, 11)

    def test_lower_quantile_below_the_float_range_rejected(self):
        # the 0.001 quantile of Weibull(0.005) is about 0.001^200: the bracket's lower end is 0
        d = Weibull(0.005)
        with pytest.raises(ValueError, match="log-spaced grid ends must be positive, got 0.0 and"):
            Grid.margin_bracketed(d, d, size=11)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array([1.0, 2.0, bad]))

    def test_bracket_past_the_float_range_rejected(self):
        # the 0.999 quantile of Weibull(0.002) is 6.9^500, past the float range
        with pytest.raises(ValueError, match=r"quantile bracket \[0.0, inf\] is not finite"):
            Grid.margin_bracketed(Weibull(0.002, 1.0), Exponential(1.0), size=5)
        system = series3_system(Weibull(0.002, 1.0))
        with pytest.raises(ValueError, match=r"quantile bracket \[0.0, inf\] is not finite"):
            Grid.system_bracketed(system, system, size=5)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.6, -0.1, float("nan")])
    def test_probability_rejects_eps_outside_open_half(self, eps):
        with pytest.raises(ValueError, match="0 < eps < 0.5"):
            Grid.probability(eps, 11)

    def test_margin_bracketed_identical_margins(self):
        d = Exponential(2.0)
        g = Grid.margin_bracketed(d, d, size=11)
        assert g.points[0] == pytest.approx(d.isf(0.999), rel=1e-9)
        assert g.points[-1] == pytest.approx(d.isf(0.001), rel=1e-9)

    def test_margin_bracketed_spans_both_margins_quantiles(self):
        # Exp(3)'s 0.001 quantile is the lower, Exp(0.5)'s 0.999 quantile the
        # higher; each is isf at the survival level 1 - q
        dx, dy = Exponential(0.5), Exponential(3.0)
        g = Grid.margin_bracketed(dx, dy, size=11)
        assert g.points[0] == dy.isf(1.0 - 0.001)
        assert g.points[-1] == dx.isf(1.0 - 0.999)

    def test_system_bracketed_widens_past_the_margin(self):
        # a parallel system outlives its components: its 0.999 quantile lies
        # beyond the margin's, so the margin bracket must widen to reach it
        system = SystemModel(Structure.parallel(8), Independence(8), Exponential(1.0))
        g = Grid.system_bracketed(system, system, size=11)
        assert g.points[-1] > system.margin.isf(0.001)
        mix_cdf = 1.0 - np.asarray(system.distortion.h(system.margin.sf(g.points[[0, -1]])))
        np.testing.assert_allclose(mix_cdf, [0.001, 0.999], rtol=0.0, atol=1e-12)
        # closed form: the system cdf is (1 - e^-x)^8
        exact = -np.log1p(-np.array([0.001, 0.999]) ** (1.0 / 8.0))
        np.testing.assert_allclose(g.points[[0, -1]], exact, rtol=1e-12)
        spacing = np.diff(np.log(g.points))
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-9)


class TestBracketEdges:
    @pytest.mark.parametrize("shape", [0.01, 0.1, 0.15])
    def test_margin_grid_reaches_a_lower_quantile_far_below_the_upper(self, shape):
        # [q(0.001), q(0.999)] spans 384 decades under Weibull(0.01): the
        # grid still starts at the closed-form lower quantile
        d = Weibull(shape)
        g = Grid.margin_bracketed(d, d, size=11)
        assert g.points[0] == pytest.approx(d.isf(0.999), rel=1e-12, abs=0.0)

    def test_system_grid_below_the_widening_floor_builds(self):
        system = SystemModel(Structure.series(3), Independence(3), Weibull(0.01))
        g = Grid.system_bracketed(system, system, size=11)
        assert g.points[0] < 1e-280 < g.points[-1]


def bracketing_pairs():
    """Seeded random pairs over every copula family, and the regimes where
    bracketing is hardest: parallel(8), Weibull shape < 1 and the benchmark's
    k-of-n systems."""
    rng = np.random.default_rng(8080)
    pairs = [random_instance(rng, ("c_star", "b_star")[i % 2]) for i in range(40)]
    # parallel(8) widens the system bracket far past the margins'; Weibull
    # shape < 1 puts the lower quantiles many decades below the upper
    parallel8 = k_of_n_paths(1, 8)
    pairs += [
        (kofn_system(1, 8, Weibull(0.4, 1.3)), kofn_system(2, 3, Weibull(0.7, 2.0))),
        (SystemModel(parallel8, GumbelHougaard(1.5, 8), Weibull(0.6, 1.0)),
         SystemModel(parallel8, Independence(8), Exponential(2.0))),
    ]
    # series(8) under Weibull(0.1) widens its lower end 31 steps, four
    # mixture calls of eight candidates; under Weibull(0.01) the margin's
    # 0.001 quantile already lies below the 1e-280 floor
    for n, shape in ((8, 0.1), (3, 0.01)):
        series = SystemModel(Structure.series(n), Independence(n), Weibull(shape))
        pairs.append((series, series))
    # all 21 k-of-n systems with n <= 6 on the benchmark's Exp(2)/Exp(3)
    # margins, each paired with the next
    kofn = [(k, n) for n in range(1, 7) for k in range(1, n + 1)]
    pairs += [(kofn_system(k, n, Exponential(2.0)), kofn_system(l, m, Exponential(3.0)))
              for (k, n), (l, m) in zip(kofn, kofn[1:] + kofn[:1])]
    return pairs


# margin pairs of the bracketing corpus, and Weibull shapes 0.01-0.15 alone and
# against Exp(1), whose lower quantiles lie hundreds of decades below the upper
MARGIN_PAIRS = [(s1.margin, s2.margin) for s1, s2 in bracketing_pairs()] + [
    pair for shape in np.linspace(0.01, 0.15, 15).tolist()
    for pair in ((Weibull(shape), Weibull(shape)), (Weibull(shape), Exponential(1.0)))
]


class TestMarginGrid:
    @pytest.mark.parametrize("index", range(len(MARGIN_PAIRS)))
    def test_ends_are_the_quantile_hull_and_span_the_mixture(self, index):
        dx, dy = MARGIN_PAIRS[index]
        g = Grid.margin_bracketed(dx, dy, size=11)
        assert (g.points[0], g.points[-1]) == orders._quantile_bracket(dx, dy)
        ends = g.points[[0, -1]]
        mix_cdf = 0.5 * (np.asarray(dx.cdf(ends)) + np.asarray(dy.cdf(ends)))
        # up to rounding: with one margin the ends are its own quantiles at the
        # levels 1 - fl(1 - q), where its cdf reads up to 7 ulps above Q_LO
        assert mix_cdf[0] <= orders.Q_LO + 16 * math.ulp(orders.Q_LO)
        assert mix_cdf[1] >= orders.Q_HI - 16 * math.ulp(orders.Q_HI)

    def test_margin_grid_calls_no_cumulative_hazard_core(self, monkeypatch):
        calls = []
        for family in (Exponential, LinearFailureRate, Weibull):
            def counted(self, xa, core=family._chz):
                calls.append(xa.size)
                return core(self, xa)

            monkeypatch.setattr(family, "_chz", counted)
        for dx, dy in MARGIN_PAIRS:
            Grid.margin_bracketed(dx, dy, size=11)
        assert calls == []


class TestBatchedBracketing:
    def test_grids_match_one_halving_per_call(self, monkeypatch):
        # every system grid is the sequential reference's, bit for bit
        batched = Grid._bracketed.__func__
        compared = []

        def both(cls, mix_cdf, lo, hi, size, q_lo, q_hi, **kw):
            grid = batched(cls, mix_cdf, lo, hi, size, q_lo, q_hi, **kw)
            ref = sequential_bracketed(mix_cdf, lo, hi, size, q_lo, q_hi)
            compared.append(np.array_equal(grid.points, ref.points))
            return grid

        monkeypatch.setattr(Grid, "_bracketed", classmethod(both))
        families = set()
        pairs = bracketing_pairs()
        for sys1, sys2 in pairs:
            families |= {type(sys1.copula).__name__, type(sys2.copula).__name__}
            Grid.system_bracketed(sys1, sys2, size=11)
        assert families == {"Independence", "FGM", "GumbelHougaard", "ClaytonOakes"}
        assert len(compared) == len(pairs) and all(compared)

    def test_mixture_cdf_calls_per_grid(self):
        calls = []

        def mix_cdf(x):
            calls.append(x.size)
            return _lfr_mixture(x)

        grid = Grid._bracketed(mix_cdf, 1e-4, 10.0, 11, 0.001, 0.999)
        # the linear secant alone took 12 calls on 533 points, the log-log
        # secant without the subtree finish 9 on 277
        assert len(calls) <= 7 and sum(calls) <= 300
        ref = sequential_bracketed(mix_cdf, 1e-4, 10.0, 11, 0.001, 0.999)
        assert np.array_equal(grid.points, ref.points)

    def test_system_grid_calls_widening_included(self, monkeypatch):
        # each mixture call evaluates both margins' cumulative-hazard cores once
        calls = []
        for family in (Exponential, LinearFailureRate, Weibull):
            def counted(self, xa, core=family._chz):
                calls.append(xa.size)
                return core(self, xa)

            monkeypatch.setattr(family, "_chz", counted)
        rng = np.random.default_rng(8080)
        pairs = [random_instance(rng, ("c_star", "b_star")[i % 2]) for i in range(40)]
        for sys1, sys2 in pairs:
            Grid.system_bracketed(sys1, sys2, size=11)
        # the widening and a first call on its ends took 10.5
        assert len(calls) / 2 <= 8 * len(pairs)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_MIXTURES))
    def test_adversarial_mixtures_match_one_halving_per_call(self, name):
        # no secant guess can be trusted here; the grid must not depend on it
        mix_cdf, lo, hi = ADVERSARIAL_MIXTURES[name]
        calls = []

        def counted(x):
            calls.append(x.size)
            return mix_cdf(x)

        grid = Grid._bracketed(counted, lo, hi, 11, 0.001, 0.999)
        assert len(calls) <= 81
        ref = sequential_bracketed(mix_cdf, lo, hi, 11, 0.001, 0.999)
        assert np.array_equal(grid.points, ref.points)

    def test_empty_bracket_raises_like_the_reference(self):
        calls = []

        def mix_cdf(x):
            calls.append(x.size)
            return _lfr_mixture(x)

        for lo, hi in ((1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="strictly increasing"):
                sequential_bracketed(mix_cdf, lo, hi, 11, 0.001, 0.999)
            with pytest.raises(ValueError, match="strictly increasing"):
                Grid._bracketed(mix_cdf, lo, hi, 11, 0.001, 0.999)
        assert calls == []

    @pytest.mark.parametrize("lo", [1.0, 1.0 + 2.0**-52])
    def test_stalled_bracket_takes_no_halving(self, lo):
        # [lo, next float]: the midpoint rounds to lo (even) or to the upper
        # end (odd lo), so every halving would keep it; only the ends are evaluated
        hi = float(np.nextafter(lo, 2.0))
        calls = []

        def mix_cdf(x):
            calls.append(x.size)
            return np.full_like(x, 0.5)

        with pytest.raises(ValueError, match="strictly increasing"):
            Grid._bracketed(mix_cdf, lo, hi, 11, 0.001, 0.999)
        assert calls == [2]
        with pytest.raises(ValueError, match="strictly increasing"):
            sequential_bracketed(mix_cdf, lo, hi, 11, 0.001, 0.999)


class TestSubtreeFinish:
    @pytest.mark.parametrize("name", ["ulp-jitter", "step", "flat"])
    @pytest.mark.parametrize("lo", [1.0, 1e-300])
    @pytest.mark.parametrize("span", [2, 40, 64, 65])
    def test_narrow_bracket_matches_one_halving_per_call(self, name, lo, span):
        # [lo, lo + span ulps]; at 64 ulps or fewer every halving is in the
        # one call after the ends, at 65 the secant walk runs first
        mix_cdf = ADVERSARIAL_MIXTURES[name][0]
        hi = lo + span * math.ulp(lo)
        calls = []

        def counted(x):
            calls.append(x.size)
            return mix_cdf(x)

        # the default levels, and F at the middle with the next float up,
        # where the jitter turns the comparison from one point to the next
        f_mid = float(mix_cdf(np.array([0.5 * (lo + hi)]))[0])
        for q_lo, q_hi in ((0.001, 0.999), (f_mid, float(np.nextafter(f_mid, 2.0)))):
            calls.clear()
            try:
                grid = Grid._bracketed(counted, lo, hi, 11, q_lo, q_hi).points
            except ValueError as error:
                grid = str(error)
            try:
                ref = sequential_bracketed(mix_cdf, lo, hi, 11, q_lo, q_hi).points
            except ValueError as error:
                ref = str(error)
            assert type(grid) is type(ref) and np.array_equal(grid, ref)
            if span <= 64:
                assert len(calls) == 2 and calls[0] == 2 and calls[1] <= 2 * 63


def on_grid(f, grid):
    return grid.points, f(grid.points)


class TestMonotoneVerdict:
    def test_identity_increasing(self):
        g = Grid(np.linspace(0.01, 0.99, 101))
        v = verdict(*on_grid(lambda p: p, g), "incr", 1e-9, "monotone")
        assert v.holds == "yes"

    def test_negation_fails_with_witness(self):
        g = Grid(np.linspace(0.01, 0.99, 101))
        v = verdict(*on_grid(lambda p: -p, g), "incr", 1e-9, "monotone")
        assert v.holds == "no"
        # worst reversal is the full decline, witnessed at the right end
        assert v.violation == pytest.approx(g.points[-1] - g.points[0], rel=1e-9)
        assert v.witness_x == pytest.approx(g.points[-1])

    def test_slow_cumulative_reversal_detected(self):
        g = Grid(np.linspace(0.01, 0.99, 1001))
        v = verdict(*on_grid(lambda p: -1e-6 * p, g), "incr", 1e-7, "monotone")
        assert v.holds == "no"

    def test_fgm_elasticity_ratio_decreasing(self):
        d1 = fgm_system(1.0).distortion
        d2 = series3_system().distortion
        g = Grid(np.linspace(1e-3, 1 - 1e-3, 2001))
        v = verdict(*on_grid(lambda p: np.asarray(d1.H(p)) / np.asarray(d2.H(p)), g), "decr", 1e-9, "monotone")
        assert v.holds == "yes"
        ratio = d1.H(g.points) / d2.H(g.points)
        assert ratio[0] == pytest.approx(2.0 / 3.0, abs=1e-2)
        assert ratio[-1] == pytest.approx(1.0 / 3.0, abs=1e-2)

    def test_skipped_points_counted(self):
        g = Grid(np.linspace(0.01, 0.99, 100))

        def f(p):
            out = np.asarray(p).copy()
            out[:3] = np.nan
            return out

        v = verdict(*on_grid(f, g), "incr", 1e-9, "monotone")
        assert v.holds == "yes"
        assert v.skipped == 3

    def test_too_many_skips_inconclusive(self):
        g = Grid(np.linspace(0.01, 0.99, 100))

        def f(p):
            out = np.asarray(p).copy()
            out[::2] = np.inf
            return out

        v = verdict(*on_grid(f, g), "incr", 1e-9, "monotone")
        assert v.holds == "inconclusive"

    def test_all_skipped_raises(self):
        g = Grid(np.linspace(0.01, 0.99, 10))
        with pytest.raises(ValueError, match="empty grid"):
            verdict(*on_grid(lambda p: np.full_like(p, np.nan), g), "incr", 1e-9, "monotone")

    @pytest.mark.parametrize("rule", ["sideways", "Incr", "", "nonneg"], ids=["sideways", "Incr", "empty", "nonneg"])
    def test_bad_rule_rejected(self, rule):
        # verdict is the one entry: the ratio checks and the verifier's conditions go through it
        g = Grid(np.linspace(0.01, 0.99, 10))
        with pytest.raises(ValueError, match="rule must be one of"):
            verdict(g.points, g.points, rule, 1e-9, "monotone")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=str)
    def test_tolerance_not_finite_and_nonnegative_rejected(self, tol):
        # under a nan or negative tol every check read "no", even on rising values
        g = Grid(np.linspace(0.01, 0.99, 10))
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            verdict(g.points, g.points, "incr", tol, "monotone")

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), (1, 10), ()], ids=str)
    def test_values_of_another_shape_rejected(self, shape):
        g = Grid(np.linspace(0.01, 0.99, 10))
        with pytest.raises(ValueError, match="do not match the points"):
            verdict(g.points, np.zeros(shape), "incr", 1e-9, "monotone")

    def test_points_not_a_vector_rejected(self):
        xs = np.linspace(0.1, 0.9, 8).reshape(2, 4)
        for points in (xs, 0.5):
            with pytest.raises(ValueError, match="a vector"):
                verdict(points, np.zeros(np.shape(points)), "incr", 1e-9, "monotone")

    def test_lists_accepted(self):
        v = verdict([0.1, 0.2, 0.3], [3.0, 2.0, 1.0], "decr", 0.0, "monotone")
        assert (v.holds, v.witness_x, v.violation, v.checked) == ("yes", 0.2, 0.0, 3)


class TestSignVerdict:
    def test_nonpositive(self):
        g = Grid(np.linspace(0.1, 0.9, 9))
        assert verdict(*on_grid(lambda p: -p, g), "nonpositive", 1e-9, "sign").holds == "yes"
        assert verdict(*on_grid(lambda p: p - 0.5, g), "nonpositive", 1e-9, "sign").holds == "no"

    def test_nonnegative(self):
        g = Grid(np.linspace(0.1, 0.9, 9))
        assert verdict(*on_grid(lambda p: p, g), "nonnegative", 1e-9, "sign").holds == "yes"
        v = verdict(*on_grid(lambda p: p - 0.5, g), "nonnegative", 1e-9, "sign")
        assert (v.holds, v.witness_x, v.violation) == ("no", 0.1, pytest.approx(0.4))

    def test_zero_within_slack(self):
        g = Grid(np.linspace(0.1, 0.9, 9))
        v = verdict(*on_grid(lambda p: np.full_like(p, 1e-12), g), "nonpositive", 1e-8, "sign")
        assert v.holds == "yes"


class TestCheckOrder:
    def test_lfr_pair_cumulative_hazard_order(self):
        # constant cumulative-hazard ratio alpha1/alpha2: weakly increasing
        assert check_order(LFR_X, LFR_Y, "c_star").holds == "yes"
        assert check_order(LFR_Y, LFR_X, "st").holds == "yes"

    def test_exponential_pair_reversed_orders(self):
        x, y = Exponential(3.0), Exponential(2.0)
        assert check_order(x, y, "b").holds == "yes"
        assert check_order(x, y, "b_star").holds == "yes"
        assert check_order(x, y, "st").holds == "yes"
        assert check_order(x, y, "hr").holds == "yes"

    def test_identical_laws_reflexive(self):
        d = Exponential(2.0)
        for relation in ("st", "hr", "rh", "c", "b", "c_star", "b_star"):
            v = check_order(d, d, relation)
            assert v.holds == "yes"
            assert abs(v.violation) <= v.tolerance

    def test_st_fails_in_wrong_direction(self):
        assert check_order(LFR_X, LFR_Y, "st").holds == "no"

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            check_order(LFR_X, LFR_Y, "mrl")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=str)
    @pytest.mark.parametrize("relation", ["st", "c_star"])
    def test_tolerance_not_finite_and_nonnegative_rejected(self, tol, relation):
        # tol=nan used to answer "no" on an order that holds
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            check_order(LFR_Y, LFR_X, relation, tol=tol)

    def test_implication_chains_on_random_pairs(self):
        # hr => st, c => c_star, b => b_star on a seeded random corpus
        rng = np.random.default_rng(881)
        violations = b_pairs = 0
        for _ in range(200):
            kind = rng.integers(0, 3)
            if kind == 0:
                dx = Exponential(float(rng.uniform(0.2, 4.0)))
                dy = Exponential(float(rng.uniform(0.2, 4.0)))
            elif kind == 1:
                beta = float(rng.uniform(0.0, 2.0))
                dx = LinearFailureRate(float(rng.uniform(0.2, 4.0)), beta)
                dy = LinearFailureRate(float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.0, 2.0)))
            else:
                dx = Weibull(float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.3, 3.0)))
                dy = Weibull(float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.3, 3.0)))
            grid = Grid.margin_bracketed(dx, dy)
            # b => b_star needs b out to infinity, and rr_X/rr_Y can turn up
            # past the grid's end: b's premise must also hold far into the tail
            far = Grid.log_spaced(grid.points[0], max(float(dx.isf(1e-12)), float(dy.isf(1e-12))))
            chains = (("hr", "st", [grid]), ("c", "c_star", [grid]), ("b", "b_star", [grid, far]))
            for strong, weak, premise in chains:
                if all(check_order(dx, dy, strong, grid=g).holds == "yes" for g in premise):
                    b_pairs += strong == "b"
                    if check_order(dx, dy, weak, grid=grid).holds != "yes":
                        violations += 1
        assert violations == 0
        # 50 of the 55 pairs where b holds on the margin grid
        assert b_pairs == 50

    def test_b_star_fails_on_the_margin_grid_where_b_fails_past_it(self):
        # draw 19 of the implication corpus: b holds on the margin grid, but
        # Dtilde_X/Dtilde_Y rises at its last step, and b fails further out
        dx = Weibull(1.5013463748533598, 0.7328566134662462)
        dy = Weibull(2.8222242595503078, 2.025595980652181)
        grid = Grid.margin_bracketed(dx, dy)
        assert check_order(dx, dy, "b", grid=grid).holds == "yes"
        far = Grid.log_spaced(grid.points[0], float(dy.isf(1e-12)))
        assert check_order(dx, dy, "b", grid=far).holds == "no"
        v = check_order(dx, dy, "b_star", grid=grid)
        assert v.holds == "no" and v.witness_x == grid.points[-1]

        def ratio(x):
            crh = [-mp.log(-mp.expm1(-((mpf(x) / mpf(d.scale)) ** mpf(d.shape)))) for d in (dx, dy)]
            return crh[0] / crh[1]

        # at 50 digits the ratio rises from x = 3.9923 to the grid's end, 4.0175,
        # by the reported violation: the grid's "no" is true
        with mp.workdps(50):
            rise = ratio(grid.points[-1]) - ratio(grid.points[-3])
        assert float(rise) == pytest.approx(v.violation, rel=1e-9)

    def test_antisymmetry_of_st(self):
        d1 = Exponential(2.0)
        d2 = Exponential(2.0)
        grid = Grid.margin_bracketed(d1, d2)
        fwd = check_order(d1, d2, "st", grid=grid)
        rev = check_order(d2, d1, "st", grid=grid)
        assert fwd.holds == "yes" and rev.holds == "yes"
        diff = np.abs(np.asarray(d1.sf(grid.points)) - np.asarray(d2.sf(grid.points)))
        assert diff.max() < fwd.tolerance


class TestSystemOrderDirect:
    def test_worked_fgm_setup_certifiable(self):
        v = system_order_direct(fgm_system(), series3_system(), "c_star")
        assert v.holds == "yes"

    def test_worked_gumbel_setup(self):
        s1 = SystemModel(Structure.series(4), GumbelHougaard(2.0, 4), Exponential(3.0))
        s2 = SystemModel(Structure.series(2), GumbelHougaard(2.0, 2), Exponential(2.0))
        assert system_order_direct(s1, s2, "b_star").holds == "yes"

    def test_identical_systems_constant_ratio(self):
        s = fgm_system()
        s_other = fgm_system()
        for relation in ("c_star", "b_star"):
            v = system_order_direct(s, s_other, relation)
            assert v.holds == "yes"
            assert abs(v.violation) <= v.tolerance

    def test_relation_restricted(self):
        with pytest.raises(ValueError):
            system_order_direct(fgm_system(), series3_system(), "st")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=str)
    @pytest.mark.parametrize("relation", ["c_star", "b_star"])
    def test_tolerance_not_finite_and_nonnegative_rejected(self, tol, relation):
        grid = Grid.log_spaced(0.1, 2.0, 11)
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            system_order_direct(fgm_system(), series3_system(), relation, grid=grid, tol=tol)

    def test_kofn_direct_agrees_with_index_predicate(self):
        # where the index inequalities hold the direct grid check must agree
        from coherent_age.verifier import corollary_index_check

        margins_c = (LFR_X, LFR_Y)
        margins_b = (Exponential(3.0), Exponential(2.0))
        for n in range(1, 6):
            for k in range(1, n + 1):
                for m in range(1, 6):
                    for l in range(1, m + 1):
                        if corollary_index_check(k, n, l, m, "c_star"):
                            s1 = kofn_system(k, n, margins_c[0])
                            s2 = kofn_system(l, m, margins_c[1])
                            assert system_order_direct(s1, s2, "c_star").holds == "yes"
                        if corollary_index_check(k, n, l, m, "b_star"):
                            s1 = kofn_system(k, n, margins_b[0])
                            s2 = kofn_system(l, m, margins_b[1])
                            assert system_order_direct(s1, s2, "b_star").holds == "yes"


@pytest.fixture
def identity_integrals(monkeypatch):
    """The integral arrays of every later integral identity check, H's then
    R's, with the node count of each integrand call."""
    integrals, calls = [], []
    rule = orders._graded_gauss_legendre

    def recording(integrand, *args):
        def counted(v):
            calls.append(v.size)
            return integrand(v)

        integrals.append(rule(counted, *args))
        return integrals[-1]

    monkeypatch.setattr(orders, "_graded_gauss_legendre", recording)
    return integrals, calls


def exact_integrands(dist):
    """(integrand, its clamp kinks) for H(e^-v) and R(1-e^-v) in mpmath, p
    clamped to the package's [EPS_CLAMP, 1-EPS_CLAMP]."""
    lo, hi = mpf(EPS_CLAMP), mpf(1.0 - EPS_CLAMP)

    def terms(p):
        p = min(max(p, lo), hi)
        pairs = [exact_exch(dist.copula, p, j) for j, _ in dist.coeffs]
        h, dh = (sum(c * pair[k] for (_, c), pair in zip(dist.coeffs, pairs)) for k in (0, 1))
        return p, h, dh

    def H(v):
        p, h, dh = terms(mp.exp(-v))
        return p * dh / h

    def R(v):
        p, h, dh = terms(-mp.expm1(-v))
        return (1 - p) * dh / (1 - h)

    return (H, (-mp.log(hi), -mp.log(lo))), (R, (-mp.log1p(-lo), -mp.log(1 - hi)))


# five evenly spaced points of each 200-point grid
REFERENCE_POINTS = [
    pytest.param(name, index, id=f"{name}-{index}", marks=[
        pytest.mark.xfail(strict=True, reason="Clayton-Oakes cancellation: near p = 1 the float H is off by up "
                          "to 100% relative, and the integral to Delta(x) with it by 2.3e-11")
    ] if (name, index) == ("clayton-parallel3", 0) else [])
    for name in ("series3-indep", "gumbel-two-of-three", "clayton-parallel3")
    for index in (0, 49, 99, 149, 199)
]


class TestIntegralIdentity:
    def test_constant_integrand_series(self):
        sysm = series3_system(Exponential(1.0))
        report = integral_identity_check(sysm)
        assert report.max_abs < 1e-9
        # H = 3 identically, so the rule returns 3 * Delta(x) to rounding
        assert report.max_abs_cum_hazard <= 1e-12

    def test_fgm_system(self):
        report = integral_identity_check(fgm_system())
        assert report.max_abs < 1e-6

    def test_parallel_reversed_identity(self):
        sysm = SystemModel(Structure.parallel(2), Independence(2), Exponential(1.0))
        report = integral_identity_check(sysm)
        assert report.max_abs_cum_rev_hazard < 1e-9

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(RuntimeError, match=r"quadrature did not converge: at x=\d\S* the error estimate"):
            integral_identity_check(fgm_system(), quad_tol=1e-18)

    def test_infinite_limit_raises(self):
        # Weibull shape 10: F(1e-40) underflows to 0, so Dtilde = -ln F is infinite
        sysm = series3_system(Weibull(10.0, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            integral_identity_check(sysm, Grid(np.array([1e-40, 1.0])))

    @pytest.mark.parametrize("name, index", REFERENCE_POINTS)
    def test_integrals_match_30_digit_reference(self, name, index, identity_integrals):
        sysm = golden_system(name)
        grid = golden_grid(sysm)
        integral_identity_check(sysm, grid)
        x = grid.points[index]
        limits = (sysm.margin.cum_hazard(x), sysm.margin.cum_rev_hazard(x))
        integrals, _ = identity_integrals
        with mp.workdps(30):
            for (f, kinks), upper, got in zip(exact_integrands(sysm.distortion), limits, integrals):
                want = mp.quad(f, [0, *(k for k in kinks if k < upper), mpf(upper)])
                assert abs(got[index] - want) <= 1e-12 * abs(want)

    def test_integral_across_the_upper_kink_matches_reference(self, identity_integrals):
        # Delta(50) = 50 under Exponential(1), past -log(EPS_CLAMP) = 20.7 where H is held at H(1e-9)
        sysm = golden_system("gumbel-two-of-three")
        integral_identity_check(sysm, Grid(np.array([1e-6, 50.0])))
        (f, kinks), _ = exact_integrands(sysm.distortion)
        with mp.workdps(30):
            want = mp.quad(f, [0, *kinks, 50])
        integrals, _ = identity_integrals
        assert abs(integrals[0][1] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("name", [triple[0] for triple in golden_corpus()])
    def test_chunks_give_the_whole_grid_residuals(self, name, identity_integrals):
        # the cumulative rule sums pieces between neighbouring limits, so the
        # residuals at a point must not depend on which other points share its grid
        integrals, _ = identity_integrals
        sysm = golden_system(name)
        x = golden_grid(sysm).points
        whole = integral_identity_check(sysm, Grid(x))
        chunks = [integral_identity_check(sysm, Grid(points)) for points in np.array_split(x, 20)]
        direct = (sysm.cum_hazard(x), sysm.cum_rev_hazard(x))
        for side in (0, 1):
            residual = np.abs(direct[side] - integrals[side])
            chunked = np.abs(direct[side] - np.concatenate(integrals[2 + side :: 2]))
            np.testing.assert_allclose(chunked, residual, rtol=0.0, atol=1e-13)
        assert whole.max_abs_cum_hazard == pytest.approx(max(c.max_abs_cum_hazard for c in chunks), abs=1e-13)
        assert whole.max_abs_cum_rev_hazard == pytest.approx(max(c.max_abs_cum_rev_hazard for c in chunks), abs=1e-13)

    @pytest.mark.parametrize("name", [triple[0] for triple in golden_corpus()])
    def test_direct_sides_are_the_cumulative_hazards(self, name, monkeypatch):
        sides = []

        def recording(value, compl):
            sides.append(_minus_log(value, compl))
            return sides[-1]

        # the identity check imports _minus_log from systems when it runs
        monkeypatch.setattr(systems, "_minus_log", recording)
        sysm = golden_system(name)
        x = golden_grid(sysm).points
        integral_identity_check(sysm, Grid(x))
        assert len(sides) == 2
        assert np.array_equal(sides[0], sysm.cum_hazard(x))
        assert np.array_equal(sides[1], sysm.cum_rev_hazard(x))

    def test_zero_limit_integrates_to_zero(self, identity_integrals):
        # LFR(1, 1) at x = 50: F = 1 - e^-1300 rounds to 1, so Dtilde = 0
        sysm = fgm_system()
        assert sysm.margin.cum_rev_hazard(50.0) == 0.0
        report = integral_identity_check(sysm, Grid(np.array([1.0, 50.0])))
        integrals, _ = identity_integrals
        assert integrals[1][1] == 0.0  # R's integral at x = 50
        assert report.max_abs_cum_rev_hazard < 1e-9

    def test_grid_from_1e_6_to_50_reports(self):
        # the limits span [1e-6, 1300] and [0, 13.8]: both clamp kinks, and a zero limit
        report = integral_identity_check(fgm_system(), Grid(np.array([1e-6, 50.0])))
        assert report.n_points == 2
        assert report.max_abs_cum_rev_hazard < 1e-9

    def test_grid_larger_than_a_block(self, identity_integrals, monkeypatch):
        integrals, calls = identity_integrals
        sysm = fgm_system()
        grid = golden_grid(sysm, size=2001)
        report = integral_identity_check(sysm, grid)
        assert report.max_abs < 1e-6
        # one integrand call each, within the bound of GL_BLOCK graded rules
        bound = orders.GL_BLOCK * orders.GL_NODES * sum(orders.GL_PANELS)
        assert len(calls) == 2 and max(calls) <= bound
        # blocks of 32 pieces: the same integrals from many calls
        monkeypatch.setattr(orders, "GL_BLOCK", 2)
        assert integral_identity_check(sysm, grid) == report
        assert len(calls) > 4 and max(calls[2:]) <= 2 * orders.GL_NODES * sum(orders.GL_PANELS)
        for whole, blocked in zip(integrals[:2], integrals[2:]):
            np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0.0)
