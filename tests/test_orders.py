import math

import numpy as np
import pytest
from mpmath import mp, mpf

from coherent_age import orders, systems
from coherent_age.copulas import FGM, GumbelHougaard, Independence, copula_from_dict
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull, distribution_from_dict
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


def checks_in_order(points):
    """The message of the first grid check that points fail, each check on its own, or None."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        return "grid needs at least two points"
    if not np.all(np.isfinite(pts)):
        return "grid points must be finite"
    if np.any(pts <= 0.0):
        return "grid points must be positive"
    if np.any(np.diff(pts) <= 0.0):
        return "grid points must be strictly increasing"
    return None


nan, inf = math.nan, math.inf
GRID_CHECK_INPUTS = {
    "scalar": 1.0, "2d": [[1.0, 2.0], [3.0, 4.0]], "empty": [], "one": [1.0], "one-nan": [nan],
    "nan-first": [nan, 1.0, 2.0], "nan-middle": [1.0, nan, 2.0], "nan-last": [1.0, 2.0, nan],
    "inf-last": [1.0, 2.0, inf], "inf-first": [inf, 1.0, 2.0], "minus-inf-first": [-inf, 1.0, 2.0],
    "minus-inf-last": [1.0, 2.0, -inf], "zero-first": [0.0, 1.0, 2.0], "zero-middle": [1.0, 0.0, 2.0],
    "negative-first": [-1.0, 1.0, 2.0], "negative-last": [1.0, 2.0, -3.0], "negative-and-nan": [-1.0, nan],
    "equal-neighbours": [1.0, 2.0, 2.0, 3.0], "decreasing": [1.0, 3.0, 2.0], "reversed": [3.0, 2.0, 1.0],
    "increasing": [1.0, 2.0, 3.0], "two-points": [1e-300, 1e300], "subnormal-first": [5e-324, 1.0],
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

    @pytest.mark.parametrize("points", GRID_CHECK_INPUTS.values(), ids=GRID_CHECK_INPUTS.keys())
    def test_messages_follow_the_checks_in_order(self, points):
        want = checks_in_order(points)
        if want is None:
            assert np.array_equal(Grid(np.array(points)).points, points)
        else:
            with pytest.raises(ValueError) as raised:
                Grid(np.array(points))
            assert str(raised.value) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array([1.0, 2.0, bad]))

    def test_bracket_past_the_float_range_rejected(self):
        # the 0.999 quantile of Weibull(0.002) is 6.9^500, past the float range
        with pytest.raises(ValueError, match=r"quantile bracket \[0.0, inf\] is not finite"):
            Grid.margin_bracketed(Weibull(0.002, 1.0), Exponential(1.0), size=5)
        # parallel(3) keeps that upper end past the range, and its 0.001
        # quantile, 0.105^500, underflows too
        system = SystemModel(Structure.parallel(3), Independence(3), Weibull(0.002, 1.0))
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
        # beyond the margin's, and the grid ends there
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

    def test_system_quantile_below_the_float_range_rejected(self):
        # the margin's 0.001 quantile is 1.05e-300, the series(3) system's
        # about 1e-348: the system hull's lower end is 0, refused as a margin's is
        system = SystemModel(Structure.series(3), Independence(3), Weibull(0.01))
        assert Grid.margin_bracketed(system.margin, system.margin, size=11).points[0] > 0.0
        with pytest.raises(ValueError, match="log-spaced grid ends must be positive, got 0.0 and"):
            Grid.system_bracketed(system, system, size=11)


def bracketing_pairs():
    """Seeded random pairs over every copula family, and the regimes where
    bracketing is hardest: parallel(8), Weibull shape < 1 and the benchmark's
    k-of-n systems."""
    rng = np.random.default_rng(8080)
    pairs = [random_instance(rng, ("c_star", "b_star")[i % 2]) for i in range(40)]
    # parallel(8) puts the system quantiles far past the margins'; Weibull
    # shape < 1 puts the lower quantiles many decades below the upper
    parallel8 = k_of_n_paths(1, 8)
    pairs += [
        (kofn_system(1, 8, Weibull(0.4, 1.3)), kofn_system(2, 3, Weibull(0.7, 2.0))),
        (SystemModel(parallel8, GumbelHougaard(1.5, 8), Weibull(0.6, 1.0)),
         SystemModel(parallel8, Independence(8), Exponential(2.0))),
    ]
    # series(8) under Weibull(0.1): the system's 0.001 quantile, 9e-40, lies
    # 31 halvings below the margin's
    series = SystemModel(Structure.series(8), Independence(8), Weibull(0.1))
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


@pytest.fixture
def chz_calls(monkeypatch):
    """The argument sizes of every later margin cumulative-hazard core call."""
    calls = []
    for family in (Exponential, LinearFailureRate, Weibull):
        def counted(self, xa, core=family._chz):
            calls.append(xa.size)
            return core(self, xa)

        monkeypatch.setattr(family, "_chz", counted)
    return calls


class TestMarginGrid:
    @pytest.mark.parametrize("index", range(len(MARGIN_PAIRS)))
    def test_ends_are_the_quantile_hull_and_span_the_mixture(self, index):
        dx, dy = MARGIN_PAIRS[index]
        g = Grid.margin_bracketed(dx, dy, size=11)
        assert (g.points[0], g.points[-1]) == orders._quantile_bracket((dx, orders.MARGIN_LEVELS),
                                                                       (dy, orders.MARGIN_LEVELS))
        ends = g.points[[0, -1]]
        mix_cdf = 0.5 * (np.asarray(dx.cdf(ends)) + np.asarray(dy.cdf(ends)))
        # up to rounding: with one margin the ends are its own quantiles at the
        # levels 1 - fl(1 - q), where its cdf reads up to 7 ulps above Q_LO
        assert mix_cdf[0] <= orders.Q_LO + 16 * math.ulp(orders.Q_LO)
        assert mix_cdf[1] >= orders.Q_HI - 16 * math.ulp(orders.Q_HI)

    def test_margin_grid_calls_no_cumulative_hazard_core(self, chz_calls):
        for dx, dy in MARGIN_PAIRS:
            Grid.margin_bracketed(dx, dy, size=11)
        assert chz_calls == []


def nudged(p, floats):
    """p moved by the given number of floats, up (positive) or down, within [0, 1]."""
    return np.clip((np.asarray(p, dtype=float).view(np.int64) + floats).view(np.float64), 0.0, 1.0)


SYSTEM_PAIRS = bracketing_pairs()


class TestSystemGrid:
    @pytest.mark.parametrize("index", range(len(SYSTEM_PAIRS)))
    def test_ends_are_the_quantile_hull_and_span_the_mixture(self, index):
        sys1, sys2 = SYSTEM_PAIRS[index]
        g = Grid.system_bracketed(sys1, sys2, size=11)
        # each system's q-quantile is its margin's isf at h^-1(1 - q)
        ends = [[s.margin.isf(p) for p in s.distortion._levels(orders.Q_LO, orders.Q_HI)] for s in (sys1, sys2)]
        assert (g.points[0], g.points[-1]) == (min(ends[0][0], ends[1][0]), max(ends[0][1], ends[1][1]))

        def mix_cdf(x, floats):
            return 0.5 * sum(np.asarray(s.distortion.one_minus_h(nudged(s.margin.sf(x), floats))) for s in (sys1, sys2))

        # up to rounding of the reliability: near p = 1 one float of a margin's
        # survival moves 1 - h by up to 2000 ulps of Q_LO (series(8) under
        # Weibull(0.1)), so the survivals move 2 floats towards each end's side
        assert mix_cdf(g.points[0], 2) <= orders.Q_LO + 16 * math.ulp(orders.Q_LO)
        assert mix_cdf(g.points[-1], -2) >= orders.Q_HI - 16 * math.ulp(orders.Q_HI)

    def test_system_grid_calls_no_cumulative_hazard_core(self, chz_calls):
        for sys1, sys2 in SYSTEM_PAIRS:
            Grid.system_bracketed(sys1, sys2, size=11)
        assert chz_calls == []


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

    @pytest.mark.parametrize("relation", ["hr", "rh", "c", "b", "c_star", "b_star"])
    def test_one_cumulative_hazard_call_per_margin(self, relation, chz_calls):
        # each margin's log functional comes from one array call on [0, *grid],
        # the x = 0 anchor included; c reads the hazard alone
        check_order(LFR_X, Weibull(2.0), relation, grid=Grid.log_spaced(0.1, 2.0, 11))
        assert chz_calls == ([] if relation == "c" else [12, 12])

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
        # 49 of the 55 pairs where b holds on the margin grid: draw 69 fails on the far grid
        assert b_pairs == 49

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

        def log_ratio(x):
            crh = [-mp.log(-mp.expm1(-((mpf(x) / mpf(d.scale)) ** mpf(d.shape)))) for d in (dx, dy)]
            return mp.log(crh[0]) - mp.log(crh[1])

        # at 50 digits the log ratio rises from x = 3.9923 to the grid's end,
        # 4.0175, by the reported violation: the grid's "no" is true
        with mp.workdps(50):
            rise = log_ratio(grid.points[-1]) - log_ratio(grid.points[-3])
        assert float(rise) == pytest.approx(v.violation, rel=1e-9)

    def test_b_fails_far_out_where_the_ratio_is_below_tol(self):
        # draw 69 of the implication corpus: on the far grid rr_X/rr_Y is about
        # 5e-10 where it turns up, so its absolute rise, 2.6e-11, is within
        # tol; the rise of the log ratio, 0.058, is not
        dx = Weibull(1.4532718210764628, 0.3205456075791819)
        dy = Weibull(2.7518812798931656, 1.398166897050347)
        grid = Grid.margin_bracketed(dx, dy)
        far = Grid.log_spaced(grid.points[0], max(float(dx.isf(1e-12)), float(dy.isf(1e-12))))
        v = check_order(dx, dy, "b", grid=far)
        assert v.holds == "no" and v.witness_x == far.points[-1]

        def log_rev_hazard(x, d):
            x, shape, scale = mpf(x), mpf(d.shape), mpf(d.scale)
            delta = (x / scale) ** shape
            return mp.log(shape / scale * (x / scale) ** (shape - 1)) - delta - mp.log(-mp.expm1(-delta))

        # at 50 digits the log ratio rises from its lowest point, x = 4.5167,
        # to the far grid's end, 4.6703, by the reported violation
        with mp.workdps(50):
            lo, hi = ((log_rev_hazard(x, dx) - log_rev_hazard(x, dy)) for x in far.points[[-10, -1]])
        assert float(hi - lo) == pytest.approx(v.violation, rel=1e-9)

    def test_b_star_reads_minus_delta_where_dtilde_underflows(self):
        # draw 186 of the implication corpus: Dtilde_X underflows to 0 at 121
        # grid points, where ln Dtilde_X is -Delta_X to the last bit; read as
        # a log the verdict keeps those points
        dx = Weibull(2.7905578213185076, 0.4654131794562685)
        dy = Weibull(1.8018805736913266, 2.321303910948859)
        grid = Grid.margin_bracketed(dx, dy)
        under = grid.points[np.asarray(dx.cum_rev_hazard(grid.points)) == 0.0]
        assert under.size == 121
        v = check_order(dx, dy, "b_star", grid=grid)
        assert v.holds == "yes" and v.skipped <= 1
        with mp.workdps(50):
            exact = [float(mp.log(-mp.log1p(-mp.exp(-((mpf(x) / mpf(dx.scale)) ** mpf(dx.shape)))))) for x in under]
        # the log of 0 is taken and discarded for the other branch
        with np.errstate(divide="ignore"):
            logs = orders._log_functional(dx, "b_star", under)
        np.testing.assert_allclose(logs, exact, rtol=1e-14)

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

    def test_tiny_cumulative_reversed_hazards_decided(self):
        # seed 5, item 101 of the benchmark's verify-audit corpus: Dtilde2
        # falls to 4.7e-32 and the ratio reaches 2.1e28, each point finite in
        # log form, so none is skipped and the check is decided
        spec1 = {"structure": {"n": 4, "paths": [[1, 3, 4], [2, 3, 4]]},
                 "copula": {"copula": "clayton", "theta": 1.5258824852887196},
                 "margin": {"family": "exp", "rate": 1.9402172055361018}}
        spec2 = {"structure": {"n": 4, "paths": [[1, 2, 4], [2, 3, 4]]},
                 "copula": {"copula": "independence"},
                 "margin": {"family": "lfr", "alpha": 2.3872432580511336, "beta": 0.644692054784469}}
        s1, s2 = (SystemModel(Structure.from_paths(s["structure"]["n"], s["structure"]["paths"]),
                              copula_from_dict(s["copula"], s["structure"]["n"]), distribution_from_dict(s["margin"]))
                  for s in (spec1, spec2))
        v = system_order_direct(s1, s2, "b_star")
        assert v.holds == "no" and v.skipped == 0

    @pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=str)
    @pytest.mark.parametrize("relation", ["c_star", "b_star"])
    def test_tolerance_not_finite_and_nonnegative_rejected(self, tol, relation):
        grid = Grid.log_spaced(0.1, 2.0, 11)
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            system_order_direct(fgm_system(), series3_system(), relation, grid=grid, tol=tol)

    @pytest.mark.parametrize("relation", ["c_star", "b_star"])
    @pytest.mark.parametrize("pair", [("series3-indep", "fgm-pair-series"), ("gumbel-series4", "clayton-series3")])
    def test_complement_evaluated_only_where_read(self, pair, relation, monkeypatch):
        # each system evaluates its form on every point, then the complement on
        # exactly the points where that form is not <= 1/2, and nothing else
        sys1, sys2 = (golden_system(name) for name in pair)
        x = Grid.system_bracketed(sys1, sys2).points
        which = 0 if relation == "c_star" else 1
        want = []
        for system in (sys1, sys2):
            value = system.distortion._evaluate(np.asarray(system.margin.sf(x)), which)
            far = np.count_nonzero(~(value <= 0.5))
            assert 0 < far < x.size
            want += [(which, x.size), (1 - which, far)]
        calls, evaluate = [], systems.Distortion._evaluate

        def counting(self, p, form):
            calls.append((form, np.size(p.p if isinstance(p, systems.GridBasis) else p)))
            return evaluate(self, p, form)

        monkeypatch.setattr(systems.Distortion, "_evaluate", counting)
        system_order_direct(sys1, sys2, relation, grid=Grid(x))
        assert calls == want

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
    R's, with (identity, node count) of each integrand call, 0 for H and 1 for R."""
    integrals, calls = [], []
    rule = orders._identity_integrals

    def counted(side, integrand):
        def call(v):
            calls.append((side, v.size))
            return integrand(v)

        return call

    def recording(integrands, *args):
        out = rule([counted(side, f) for side, f in enumerate(integrands)], *args)
        integrals.extend(out)
        return out

    monkeypatch.setattr(orders, "_identity_integrals", recording)
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

    @pytest.mark.parametrize("quad_tol", BAD_TOLERANCES, ids=str)
    def test_quad_tol_not_finite_and_nonnegative_rejected(self, quad_tol, identity_integrals):
        # unchecked, nan or -1 reads as a convergence failure with an estimate of 0, and
        # inf turns the convergence check off; each is refused before the quadrature runs
        with pytest.raises(ValueError, match=f"^quad_tol must be finite and >= 0, got {quad_tol!r}$"):
            integral_identity_check(fgm_system(), quad_tol=quad_tol)
        assert identity_integrals == ([], [])

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

        def recording(value, complement_at):
            sides.append(_minus_log(value, complement_at))
            return sides[-1]

        # the direct sides are the system's cumulative hazards, which look _minus_log up in systems
        monkeypatch.setattr(systems, "_minus_log", recording)
        sysm = golden_system(name)
        x = golden_grid(sysm).points
        integral_identity_check(sysm, Grid(x))
        assert len(sides) == 2
        assert np.array_equal(sides[0], sysm.cum_hazard(x))
        assert np.array_equal(sides[1], sysm.cum_rev_hazard(x))

    @pytest.mark.parametrize("name", ["series3-indep", "gumbel-series4"])
    def test_direct_sides_in_one_pass(self, name, monkeypatch):
        # the limits' one margin pass gives sf(x), and one h, 1-h pair on it both direct
        # sides: no sf, cum_hazard or cum_rev_hazard call, and outside the quadrature no
        # distortion evaluation but those two (from Bernstein weights, then a signed sum)
        sysm = golden_system(name)
        x = golden_grid(sysm).points
        margin, calls = type(sysm.margin), []
        evaluate, quadrature = systems.Distortion._evaluate, orders._identity_integrals

        def recorded(owner, method):
            original = getattr(owner, method)

            def call(self, *args, **kwargs):
                calls.append((owner.__name__, method, args))
                return original(self, *args, **kwargs)

            return call

        def integrals(*args):
            # the integrands' evaluations are not recorded
            with monkeypatch.context() as inner:
                inner.setattr(systems.Distortion, "_evaluate", evaluate)
                return quadrature(*args)

        for owner, method in ((margin, "_chz"), (margin, "sf"), (margin, "cum_hazard"), (margin, "cum_rev_hazard"),
                              (SystemModel, "cum_hazard"), (SystemModel, "cum_rev_hazard"),
                              (systems.Distortion, "_evaluate")):
            monkeypatch.setattr(owner, method, recorded(owner, method))
        monkeypatch.setattr(orders, "_identity_integrals", integrals)
        integral_identity_check(sysm, Grid(x))
        assert [call[:2] for call in calls] == [(margin.__name__, "_chz"), ("Distortion", "_evaluate"),
                                                ("Distortion", "_evaluate")]
        assert np.array_equal(calls[0][2][0], x)
        assert [call[2][1] for call in calls[1:]] == [0, 1]

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
        # one integrand call each, within the node cap
        assert [side for side, _ in calls] == [0, 1] and max(size for _, size in calls) <= orders.GL_BLOCK
        # a cap of 3072 nodes: the same integrals from many calls
        monkeypatch.setattr(orders, "GL_BLOCK", 2 * 16 * 96)
        assert integral_identity_check(sysm, grid) == report
        assert len(calls) > 4 and max(size for _, size in calls[2:]) <= 2 * 16 * 96
        for whole, blocked in zip(integrals[:2], integrals[2:]):
            np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0.0)

    def test_node_budget(self, identity_integrals):
        # no rule runs on [0, head], where the clamp holds both integrands
        # constant; a graded rule there took 1536 nodes, about 3400 in all
        _, calls = identity_integrals
        sysm = golden_system("series3-indep")
        chunk = np.array_split(golden_grid(sysm).points, 20)[10]
        integral_identity_check(sysm, Grid(chunk))
        for side in (0, 1):
            assert sum(size for k, size in calls if k == side) < 2000

    def test_integrands_constant_below_the_lower_kink(self):
        # the exact head piece: H(e^-v) and R(1-e^-v) keep their v = 0 values on [0, kink]
        rng = np.random.default_rng(1)
        models = [golden_system(triple[0]) for triple in golden_corpus()]
        models += [sysm for i in range(20) for sysm in random_instance(rng, ("c_star", "b_star")[i % 2])]
        v = -math.log1p(-EPS_CLAMP) * np.linspace(0.0, 1.0, 257)
        for dist in (sysm.distortion for sysm in models):
            for values in (dist.H(np.exp(-v)), dist.R(-np.expm1(-v))):
                assert np.array_equal(values, np.full_like(values, values[0]))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8: past v = -log(EPS_CLAMP) = 20.7 the clamp holds H at "
                       "H(1e-9) = 0.99973, not its limit 1, so the integral drifts from -ln h by up to 0.041")
    def test_identity_holds_past_the_upper_kink(self):
        sysm = SystemModel(Structure.parallel(2), GumbelHougaard(2.594, 2), Exponential(1.762))
        report = integral_identity_check(sysm, Grid.log_spaced(1e-8, 100.0, 50))
        # H's side only: R's reads 3.3e-9 at x = 1e-8 from the signed 1-h near p = 1 (item 1)
        assert report.max_abs_cum_hazard <= 1e-9
