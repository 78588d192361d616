import math
import warnings

import numpy as np
import pytest
from corpus_helpers import clayton_pairs, copula_eval, exact_exch
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from coherent_age.copulas import (
    _ARRAYS,
    _CLAYTON_LOG_CUTOFF,
    _FLOATS,
    ClaytonOakes,
    Copula,
    FGM,
    GumbelHougaard,
    Independence,
    copula_from_dict,
)
from coherent_age.montecarlo import SimConfig, sample_copula
from coherent_age.systems import Distortion, Structure, build_distortion, k_of_n_paths


def all_families(n=3):
    fams = [Independence(n), GumbelHougaard(theta=2.0, dim=n), ClaytonOakes(theta=1.5, dim=n)]
    if n == 3:
        fams.append(FGM(theta=0.7))
    return fams


class TestEval:
    def test_fgm_hand_value(self):
        # 0.125 * (1 + 0.125)
        assert copula_eval(FGM(theta=1.0), [0.5, 0.5, 0.5]) == pytest.approx(0.140625, abs=1e-15)

    def test_gumbel_hand_value(self):
        p = math.exp(-1.0)
        val = copula_eval(GumbelHougaard(theta=2.0, dim=3), [p, p, p])
        assert val == pytest.approx(math.exp(-math.sqrt(3.0)), abs=1e-12)

    def test_independence_is_product(self):
        assert copula_eval(Independence(4), [0.2, 0.5, 0.9, 1.0]) == pytest.approx(0.09, abs=1e-15)

    def test_clayton_matches_archimedean_form(self):
        theta = 2.0
        p = np.array([0.3, 0.6, 0.9])
        expected = (np.sum(p**-theta) - 2.0) ** (-1.0 / theta)
        assert copula_eval(ClaytonOakes(theta, 3), p) == pytest.approx(expected, rel=1e-13)

    def test_zero_argument_gives_zero(self):
        for cop in all_families():
            assert copula_eval(cop, [0.0, 0.5, 0.7]) == 0.0

    def test_all_ones_gives_one(self):
        for cop in all_families():
            assert copula_eval(cop, [1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_batch_evaluation(self):
        cop = GumbelHougaard(theta=1.8, dim=3)
        pts = np.array([[0.2, 0.4, 0.9], [0.7, 0.7, 0.7]])
        out = copula_eval(cop, pts)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(cop.exch(0.7, 3), rel=1e-14)

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=3, max_size=3))
    def test_exchangeable_under_permutation(self, p):
        for cop in all_families():
            base = copula_eval(cop, p)
            assert copula_eval(cop, p[::-1]) == pytest.approx(base, rel=1e-14)
            assert copula_eval(cop, [p[1], p[2], p[0]]) == pytest.approx(base, rel=1e-14)


class TestExchangeableReduction:
    def test_j_zero_is_one(self):
        # the base class answers j = 0 for every family: K_0 = 1, so K_0' = 0
        # and 1 - K_0 = 0, for scalar and array p
        p = np.array([0.0, 0.37, 1.0])
        for cop in all_families() + all_families(5):
            assert cop.exch(0.37, 0) == 1.0
            assert cop.exch_deriv(0.37, 0) == 0.0
            assert cop.exch_compl(0.37, 0) == 0.0
            np.testing.assert_array_equal(cop.exch(p, 0), 1.0)
            np.testing.assert_array_equal(cop.exch_deriv(p, 0), 0.0)
            np.testing.assert_array_equal(cop.exch_compl(p, 0), 0.0)

    def test_fgm_two_at_p(self):
        # the perturbation vanishes when one coordinate sits at 1
        assert FGM(theta=0.9).exch(0.7, 2) == pytest.approx(0.49, abs=1e-15)

    def test_gumbel_power_form(self):
        cop = GumbelHougaard(theta=2.0, dim=4)
        p = 0.3
        for j in range(1, 5):
            assert cop.exch(p, j) == pytest.approx(p ** (j**0.5), rel=1e-14)

    def test_matches_eval_on_random_points(self):
        # 10^4 random (p, j) per family
        rng = np.random.default_rng(11)
        for cop in all_families():
            for j in range(0, cop.dim + 1):
                p = rng.uniform(0.0, 1.0, 2500)
                pts = np.ones((p.size, cop.dim))
                pts[:, :j] = p[:, None]
                np.testing.assert_allclose(cop.exch(p, j), copula_eval(cop, pts), atol=1e-14)

    def test_gumbel_theta_one_equals_independence(self):
        g = GumbelHougaard(theta=1.0, dim=3)
        ind = Independence(3)
        p = np.linspace(0.0, 1.0, 101)
        for j in range(0, 4):
            np.testing.assert_allclose(g.exch(p, j), ind.exch(p, j), atol=1e-14)
        pts = np.random.default_rng(3).uniform(0, 1, (100, 3))
        np.testing.assert_allclose(copula_eval(g, pts), copula_eval(ind, pts), atol=1e-14)

    def test_monotone_in_p(self):
        p = np.linspace(0.0, 1.0, 501)
        for cop in all_families():
            for j in range(1, cop.dim + 1):
                vals = cop.exch(p, j)
                assert np.all(np.diff(vals) >= -1e-15)

    def test_complement_consistency(self):
        p = np.linspace(0.01, 0.99, 99)
        for cop in all_families():
            for j in range(0, cop.dim + 1):
                np.testing.assert_allclose(
                    cop.exch_compl(p, j), 1.0 - cop.exch(p, j), atol=1e-12
                )

    def test_complement_accurate_near_one(self):
        # leading-order expansions at p = 1 - eps
        eps = 1e-12
        p = 1.0 - eps
        assert Independence(3).exch_compl(p, 3) == pytest.approx(3.0 * eps, rel=1e-3)
        a = 2.0**0.5
        assert GumbelHougaard(2.0, 2).exch_compl(p, 2) == pytest.approx(a * eps, rel=1e-3)
        assert ClaytonOakes(1.0, 3).exch_compl(p, 3) == pytest.approx(3.0 * eps, rel=1e-3)

    def test_complement_at_one_is_positive_zero(self):
        # 1 - K_j(1) is +0.0 in every family, for scalar and array p: the
        # one-term sum adds its term, -0.0 under Independence and Gumbel, to +0.0
        for cop in all_families() + all_families(5):
            for j in range(0, cop.dim + 1):
                assert math.copysign(1.0, cop.exch_compl(1.0, j)) == 1.0
                assert not np.signbit(cop.exch_compl(np.array([0.5, 1.0]), j)).any()

    def test_derivative_matches_finite_difference(self):
        p = np.linspace(0.05, 0.95, 19)
        h = 1e-7
        for cop in all_families():
            for j in range(1, cop.dim + 1):
                fd = (np.asarray(cop.exch(p + h, j)) - np.asarray(cop.exch(p - h, j))) / (2 * h)
                np.testing.assert_allclose(cop.exch_deriv(p, j), fd, rtol=5e-7, atol=5e-7)

    def test_clayton_deep_tail_limit(self):
        # across the log-space cutoff the limit form p * j^(-1/theta) takes over
        cop = ClaytonOakes(theta=2.0, dim=3)
        for p in (math.exp(-249.0), math.exp(-251.0)):
            assert cop.exch(p, 3) == pytest.approx(p * 3.0 ** (-0.5), rel=1e-9)
            assert cop.exch_deriv(p, 3) == pytest.approx(3.0 ** (-0.5), rel=1e-9)

    def test_clayton_derivative_limit_without_overflow(self):
        # large theta at p = 1e-300: the direct form's exponent exceeds the
        # float range, and only the limit j^(-1/theta) may be evaluated there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ClaytonOakes(30.0, 3).exch_deriv(1e-300, 2)
        assert value == 2.0 ** (-1.0 / 30.0)

    def test_clayton_second_derivative_across_the_cutoff(self):
        # past the cutoff K'' = j^(-1/theta) (theta+1)(j-1)/j p^(theta-1)
        cop = ClaytonOakes(theta=2.0, dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (math.exp(-249.0), math.exp(-251.0)):
                limit = 3.0 ** (-0.5) * 3.0 * 2.0 / 3.0 * p
                assert cop._sum(np.array(p), ((3, 1),), 3) == pytest.approx(limit, rel=1e-9)

    @given(
        p1=st.floats(min_value=0.001, max_value=0.999),
        p2=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_pointwise_monotone_pairs(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        for cop in all_families():
            for j in (1, cop.dim):
                assert cop.exch(lo, j) <= cop.exch(hi, j) + 1e-15


SECOND_DERIVATIVE_EDGES = [
    ClaytonOakes(0.05, 4),
    ClaytonOakes(8.0, 4),
    GumbelHougaard(1.0, 4),
    GumbelHougaard(3.0, 4),
    Independence(4),
]


class TestSecondDerivative:
    @pytest.mark.parametrize("cop", SECOND_DERIVATIVE_EDGES, ids=repr)
    def test_matches_50_digit_reference(self, cop):
        # K_j'' against mpmath's numerical derivative of the closed form K_j
        p = np.array([0.001, 0.5, 0.999])
        np.testing.assert_array_equal(cop._sum(p, ((1, 1),), 3), 0.0)  # K_1 = p
        with mp.workdps(50):
            for j in range(2, cop.dim + 1):
                want = [float(mp.diff(lambda t: exact_exch(cop, t, j)[0], mpf(x), 2)) for x in p]
                np.testing.assert_allclose(cop._sum(p, ((j, 1),), 3), want, rtol=1e-12, atol=0.0)


# The per-j Clayton cores that ClaytonOakes._sum replaced, kept unchanged as
# the reference its one-pass sums must equal bit for bit.
def reference_exch(self, pa, j):
    out = np.zeros_like(pa)
    pos = pa > 0.0
    with np.errstate(divide="ignore"):
        w = np.where(pos, -self.theta * np.log(np.maximum(pa, 1e-300)), np.inf)
    direct = w < _CLAYTON_LOG_CUTOFF
    wd = np.minimum(w, _CLAYTON_LOG_CUTOFF)
    k_direct = np.exp(-np.log1p(j * np.expm1(wd)) / self.theta)
    k_limit = pa * j ** (-1.0 / self.theta)
    out[pos] = np.where(direct, k_direct, k_limit)[pos]
    return out


def reference_exch_deriv(self, pa, j):
    out = np.full_like(pa, j ** (-1.0 / self.theta))  # p -> 0 limit
    pos = pa > 0.0
    with np.errstate(divide="ignore"):
        logp = np.log(np.maximum(pa, 1e-300))
    w = -self.theta * logp
    direct = pos & (w < _CLAYTON_LOG_CUTOFF)
    wd = np.minimum(w, _CLAYTON_LOG_CUTOFF)
    log_kp = math.log(j) - (self.theta + 1.0) * logp - ((self.theta + 1.0) / self.theta) * np.log1p(
        j * np.expm1(wd)
    )
    # the limit points' log_kp can exceed the float range: exponentiate
    # only the direct ones
    return np.where(direct, np.exp(np.where(direct, log_kp, 0.0)), out)


def reference_exch_second(self, pa, j):
    # K'' = K' (theta+1)(j-1) / (p S) with S = 1 + j (p^-theta - 1), in
    # log space; past the cutoff S = j p^-theta to float precision
    if j == 1:
        return np.zeros_like(pa)
    logp = np.log(pa)
    w = -self.theta * logp
    direct = w < _CLAYTON_LOG_CUTOFF
    log_s = np.where(direct, np.log1p(j * np.expm1(np.minimum(w, _CLAYTON_LOG_CUTOFF))), math.log(j) + w)
    return np.exp(
        math.log(j * (j - 1) * (self.theta + 1.0)) - (self.theta + 2.0) * logp - (2.0 + 1.0 / self.theta) * log_s
    )


def reference_exch_compl(self, pa, j):
    out = np.ones_like(pa)
    pos = pa > 0.0
    with np.errstate(divide="ignore"):
        w = np.where(pos, -self.theta * np.log(np.maximum(pa, 1e-300)), np.inf)
    direct = w < _CLAYTON_LOG_CUTOFF
    wd = np.minimum(w, _CLAYTON_LOG_CUTOFF)
    c_direct = -np.expm1(-np.log1p(j * np.expm1(wd)) / self.theta)
    c_limit = 1.0 - pa * j ** (-1.0 / self.theta)
    out[pos] = np.where(direct, c_direct, c_limit)[pos]
    return out


def reference_sum(self, pa, coeffs, which, xp=_ARRAYS):
    """The distortion engine's former per-j loop over the reference cores,
    at a Python float (the float namespace) on a one-point array."""
    if xp is _FLOATS:
        return float(reference_sum(self, np.array([pa]), coeffs, which)[0])
    core = (reference_exch, reference_exch_compl, reference_exch_deriv, reference_exch_second)[which]
    out = np.zeros_like(pa)
    for j, c in coeffs:
        out += c * core(self, pa, j)
    return out


CLAYTON_THETAS = [0.05, 0.3, 1.0, 2.7, 8.0, 40.0]
CLAYTON_COEFFS = [((1, 1),), ((1, 2), (2, -1)), ((2, 3), (3, -3), (4, 1)), ((1, 1), (3, 1), (4, -1)), ((6, 1),)]
CLAYTON_POINTS = np.concatenate([[0.0, 1e-300, 1e-200, 1e-30], np.linspace(0.0, 1.0, 3001), [1.0 - 1e-16]])


class TestClaytonSum:
    @pytest.mark.parametrize("theta", CLAYTON_THETAS)
    @pytest.mark.parametrize("which", range(4), ids=["K", "1-K", "K'", "K''"])
    @pytest.mark.parametrize("coeffs", CLAYTON_COEFFS, ids=str)
    def test_equals_the_per_j_loop(self, theta, which, coeffs):
        cop = ClaytonOakes(theta, 6)
        p = CLAYTON_POINTS
        if which == 3:
            p = p[(p > 0.0) & (p < 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cop._sum(p, coeffs, which)
            assert np.array_equal(got, reference_sum(cop, p, coeffs, which))
            # a scalar call is a 0-d array, as the distortion engine passes it
            for x in map(np.asarray, p[[0, 1, 2, p.size // 2, -1]]):
                assert np.array_equal(cop._sum(x, coeffs, which), reference_sum(cop, x, coeffs, which))

    @pytest.mark.parametrize("theta", [0.05, 0.5])
    @pytest.mark.parametrize("p", [1e-310, 5e-324])
    def test_below_1e_300_against_mpmath(self, theta, p):
        # subnormal p: the direct form needs ln p itself, not a floored one
        cop = ClaytonOakes(theta, 3)
        t, th = mpf(p), mpf(theta)
        with mp.workdps(50):
            for j in (2, 3):
                k = exact_exch(cop, t, j)[0]
                # K_j' = j t^-(theta+1) S^-(1+1/theta), S = j t^-theta - (j-1)
                k_prime = j * t ** -(th + 1) * (j * t**-th - (j - 1)) ** (-1 - 1 / th)
                for which, want in ((0, k), (1, 1 - k), (2, k_prime)):
                    got = cop._sum(np.array([p]), ((j, 1),), which)[0]
                    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_verify_reports_equal_those_of_the_per_j_loop(self, monkeypatch):
        # the patch replaces both paths, the grids' arrays and the levels' floats
        pairs = clayton_pairs(np.random.default_rng(14), 18)
        assert len(pairs) == 20
        reports = [verify(sys1, sys2) for verify, sys1, sys2 in pairs]
        monkeypatch.setattr(ClaytonOakes, "_sum", reference_sum)
        assert [repr(r) for r in reports] == [repr(verify(sys1, sys2)) for verify, sys1, sys2 in pairs]


# every family with a signed sum, with ClaytonOakes(0.05) on parallel(8) the sum
# that cancels most; FGM has none, and its float Bernstein sum is pinned by
# TestLevels::test_float_bernstein_sum_within_8_ulps
FLOAT_SUM_COPULAS = [Independence(6), GumbelHougaard(2.0, 6), GumbelHougaard(1.0 + 1e-9, 6), GumbelHougaard(7.5, 6),
                     ClaytonOakes(1.5, 6), ClaytonOakes(40.0, 6), ClaytonOakes(0.05, 8)]


def float_sum_points(cop):
    """Random p, log-uniform p and q = 1 - p, p = 0, 2^-1074 and 1, q = 2^-k
    for k up to 53, p about Gumbel's 1e-300 clamp, and p on both sides of
    Clayton's cutoff exp(-500/theta)."""
    rng = np.random.default_rng(34)
    tails = np.exp(-rng.uniform(0.0, 744.0, 300))
    edges = [0.0, 2.0**-1074, 1.0, 1e-310, 1e-301, 1e-300, 1e-299] + [1.0 - 2.0**-k for k in range(1, 54)]
    if isinstance(cop, ClaytonOakes):
        cutoff = math.exp(-_CLAYTON_LOG_CUTOFF / cop.theta)
        edges += [cutoff * f for f in (0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0)]
    return np.concatenate((rng.random(600), tails, 1.0 - tails, edges))


class TestFloatSumMatchesArray:
    """_sum on the float namespace, the distortion inverse's one-point sum,
    returns the bits of _sum on an array at the same p, for which 0-2.  Its
    powers, logs and exponentials are numpy's ufuncs on a Python float,
    which run the array kernels; libm's (math, Python's **, a numpy
    scalar's **) can differ in the last ulp."""

    @pytest.mark.parametrize("cop", FLOAT_SUM_COPULAS, ids=repr)
    def test_bit_for_bit(self, cop):
        # every k-out-of-n, parallel(n) among them
        n = cop.dim
        structures = [k_of_n_paths(k, n) for k in range(1, n + 1)]
        p = float_sum_points(cop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for structure in structures:
                coeffs = build_distortion(structure, cop).coeffs
                for which in range(3):
                    want = cop._sum(p, coeffs, which)
                    got = np.array([cop._sum(x, coeffs, which, _FLOATS) for x in p.tolist()])
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=f"{coeffs} {which}")

    def test_namespace_edges(self):
        # each float function against the array one on a one-point array: ln
        # is -inf only at 0 and carries NaN, minimum carries a NaN first
        # argument, any reads Clayton's limit mask alike, and nothing warns
        points = [0.0, -0.0, 2.0**-1074, 1e-300, 0.5, 1.0, 500.0, math.inf, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in points:
                for name in ("log", "exp", "expm1", "log1p"):
                    want = getattr(_ARRAYS, name)(np.array([x]))
                    got = getattr(_FLOATS, name)(x)
                    assert type(got) is float
                    assert np.array([got]).view(np.int64) == want.view(np.int64), (name, x)
                want = _ARRAYS.minimum(np.array([x]), 1e-300)
                assert np.array([_FLOATS.minimum(x, 1e-300)]).view(np.int64) == want.view(np.int64)
                assert _FLOATS.any(x >= 500.0) == _ARRAYS.any(np.array([x]) >= 500.0)


class TestIndependenceIsGumbelAtOne:
    """Independence is GumbelHougaard's theta = 1 member and has no formula
    of its own: its public K_j, K_j' and 1 - K_j and its float sums are
    those of GumbelHougaard(1.0, n) bit for bit, through numpy's power,
    expm1 and log kernels."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 20])
    def test_bit_for_bit(self, n):
        ind, gum = Independence(n), GumbelHougaard(1.0, n)
        rng = np.random.default_rng(39)
        p = np.concatenate(([0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0], rng.random(200),
                            np.exp(-rng.uniform(0.0, 744.0, 50))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(n + 1):
                for name in ("exch", "exch_deriv", "exch_compl"):
                    want = getattr(gum, name)(p, j)
                    np.testing.assert_array_equal(getattr(ind, name)(p, j).view(np.int64), want.view(np.int64))
                    got = np.array([getattr(ind, name)(x, j) for x in p.tolist()])
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=f"{name} {j}")
            # each one-term sum, and parallel(n)'s signed sum over every j
            for coeffs in [((j, 1),) for j in range(1, n + 1)] + [build_distortion(Structure.parallel(n), gum).coeffs]:
                for which in range(3):
                    got, want = ([cop._sum(x, coeffs, which, _FLOATS) for x in p.tolist()] for cop in (ind, gum))
                    np.testing.assert_array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_member_of_the_family(self):
        # the same law, but its own class: repr, equality and specs are Independence's
        assert repr(Independence(3)) == "Independence(dim=3)"
        assert isinstance(Independence(3), GumbelHougaard)
        assert Independence(3) != GumbelHougaard(1.0, 3)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            Independence(0)


# a law of each kind: weights at theta = 1 and under FGM (0 and -0 among them), a signed sum elsewhere
TRIO_COPULAS = [Independence(1), Independence(4), GumbelHougaard(1.0, 3), GumbelHougaard(2.0, 4),
                GumbelHougaard(7.5, 4), ClaytonOakes(0.05, 4), ClaytonOakes(1.5, 4), ClaytonOakes(40.0, 4),
                FGM(-1.0), FGM(-0.0), FGM(0.0), FGM(0.7), FGM(1.0)]
TRIO = (("exch", 0), ("exch_compl", 1), ("exch_deriv", 2))


def trio_points():
    """0, 1, NaN, subnormals, random p and both tails of (0, 1)."""
    rng = np.random.default_rng(45)
    tails = np.exp(-rng.uniform(0.0, 744.0, 60))
    return np.concatenate(([0.0, 1.0, math.nan, 5e-324, 2.0**-1030, 1e-310, 1.0 - 2.0**-53],
                           rng.random(150), tails, 1.0 - tails))


def assert_bits(got, want, msg=""):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), want.view(np.int64), err_msg=msg)


class TestTrioReadsTheEngine:
    """exch, exch_compl and exch_deriv at j are the distortion of one path
    set on j of the components, N_k = C(n-j, k-j), through the engine that
    reads every distortion of the law: its Bernstein weights where it gives
    them, else its one-term signed sum."""

    @pytest.mark.parametrize("cop", TRIO_COPULAS, ids=repr)
    def test_bit_for_bit(self, cop):
        p, n = trio_points(), cop.dim
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(1, n + 1):
                d = Distortion(cop, (0,) * j + tuple(math.comb(n - j, i) for i in range(n - j + 1)))
                assert d.coeffs == ((j, 1),)
                for name, which in TRIO:
                    want = d._evaluate(p, which)
                    if d._bernstein is None:
                        assert_bits(cop._sum(p, ((j, 1),), which), want, f"{name} {j}")
                    assert_bits(getattr(cop, name)(p, j), want, f"{name} {j}")
                    # a scalar runs as a one-point array
                    assert_bits([getattr(cop, name)(x, j) for x in p.tolist()], want, f"{name} {j} scalar")

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_fgm_at_zero_is_independence(self, theta):
        p = trio_points()
        for j in range(4):
            for name, _ in TRIO:
                assert_bits(getattr(FGM(theta), name)(p, j), getattr(Independence(3), name)(p, j), f"{name} {j}")


class TestFgmTrioAccuracy:
    """FGM's trio reads its Bernstein weights, whose terms are nonnegative,
    so nothing cancels: p^3 (1 - (1-p)^3) at theta = -1 keeps its digits
    as p -> 0."""

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
    def test_within_8_units_of_the_50_digit_reference(self, theta):
        # errors in units of 2^-53 of the value; log-uniform p down to 1e-20
        # and q = 1 - p down to 1e-15
        rng = np.random.default_rng(45)
        p = np.concatenate(([1e-20, 1.2e-14, 1e-6], rng.random(150), np.exp(-rng.uniform(0.0, math.log(1e20), 60)),
                            1.0 - np.exp(-rng.uniform(0.0, math.log(1e15), 60))))
        cop = FGM(theta)
        with mp.workdps(50):
            for j in (1, 2, 3):
                got = [getattr(cop, name)(p, j) for name, _ in TRIO]
                for i, x in enumerate(p.tolist()):
                    k, k_prime = exact_exch(cop, mpf(x), j)
                    for which, want in enumerate((k, 1 - k, k_prime)):
                        units = abs(mpf(got[which][i]) - want) / (abs(want) * mpf(2) ** -53)
                        assert units <= 8, (j, TRIO[which][0], x, float(units))


class TestValidation:
    def test_family_without_a_sampler_cannot_be_built(self):
        # every family draws its own sample: the simulator has no fallback
        class NoDraw(Copula):
            dim = 2

            def _sum(self, p, coeffs, which, xp=None):
                return p

        with pytest.raises(TypeError, match="_draw"):
            NoDraw()

    def test_fgm_theta_range(self):
        with pytest.raises(ValueError):
            FGM(theta=1.5)
        with pytest.raises(ValueError):
            FGM(theta=-1.01)

    def test_fgm_dimension_fixed(self):
        with pytest.raises(ValueError):
            FGM(theta=0.5, dim=4)

    def test_law_with_weights_has_no_signed_sum(self):
        with pytest.raises(TypeError, match="FGM has no signed sum"):
            FGM(0.5)._sum(np.array([0.5]), ((3, 1),), 0)

    @pytest.mark.parametrize("dim", [3.5, "3", True], ids=["fraction", "string", "bool"])
    def test_dimension_must_be_an_integer(self, dim):
        for make in (Independence, lambda d: GumbelHougaard(2.0, d), lambda d: ClaytonOakes(1.5, d),
                     lambda d: FGM(0.5, d)):
            with pytest.raises(ValueError, match="dimension must be"):
                make(dim)

    def test_integral_dimension_reads_as_an_integer(self):
        # dim = 3.0 passed verify, and the simulator then refused the float
        cfg = SimConfig(sample_count=64, stream_count=1)
        for cop in (Independence(3.0), GumbelHougaard(2.0, 3.0), ClaytonOakes(1.5, np.int64(3)), FGM(0.5, 3.0)):
            assert type(cop.dim) is int
            assert repr(cop).endswith("dim=3)")
            assert sample_copula(cop, cfg).shape == (64, 3)

    def test_gumbel_theta_range(self):
        with pytest.raises(ValueError):
            GumbelHougaard(theta=0.9, dim=3)

    def test_clayton_theta_range(self):
        with pytest.raises(ValueError):
            ClaytonOakes(theta=0.0, dim=3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            copula_eval(Independence(3), [0.5, 0.5])

    def test_out_of_range_component(self):
        with pytest.raises(ValueError):
            copula_eval(Independence(2), [0.5, 1.2])

    @pytest.mark.parametrize(
        "p, j, match",
        [
            (-0.1, 1, r"must lie in \[0, 1\]"),
            (1.1, 1, r"must lie in \[0, 1\]"),
            (0.5, -1, "j must be an integer"),
            (0.5, "dim+1", "j must be an integer"),
            (0.5, 1.5, "j must be an integer"),
            (0.5, True, "j must be an integer"),
            (0.5, False, "j must be an integer"),
            (0.5, np.True_, "j must be an integer"),
        ],
        ids=["p=-0.1", "p=1.1", "j=-1", "j=dim+1", "j=1.5", "j=True", "j=False", "j=np.True_"],
    )
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("func", ["exch", "exch_deriv", "exch_compl"])
    @pytest.mark.parametrize("family", range(4), ids=["independence", "gumbel", "clayton", "fgm"])
    def test_exch_j_out_of_range(self, family, func, shape, p, j, match):
        # the public reductions are the one boundary: the base class validates
        # (p, j) before any family core runs
        cop = all_families()[family]
        if j == "dim+1":
            j = cop.dim + 1
        arg = p if shape == "scalar" else np.array([0.25, p])
        with pytest.raises(ValueError, match=match):
            getattr(cop, func)(arg, j)


class TestSerialisation:
    @pytest.mark.parametrize(
        "cop",
        [
            ({"copula": "independence"}, Independence(3)),
            ({"copula": "fgm", "theta": 0.5}, FGM(theta=0.5)),
            ({"copula": "gumbel", "theta": 2.0}, GumbelHougaard(theta=2.0, dim=3)),
            ({"copula": "clayton", "theta": 1.0}, ClaytonOakes(theta=1.0, dim=3)),
        ],
    )
    def test_round_trip(self, cop):
        # a literal fragment parses to the copula it spells
        fragment, expected = cop
        assert copula_from_dict(fragment, dim=3) == expected

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            copula_from_dict({"copula": "frank", "theta": 1.0}, dim=3)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            copula_from_dict({"copula": "gumbel", "theta": 2.0, "dim": 3}, dim=3)

    def test_fgm_requires_dimension_three(self):
        with pytest.raises(ValueError):
            copula_from_dict({"copula": "fgm", "theta": 0.5}, dim=4)
