import math
import warnings

import numpy as np
import pytest
from corpus_helpers import clayton_pairs, copula_eval, exact_exch
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from coherent_age.copulas import (
    _CLAYTON_LOG_CUTOFF,
    ClaytonOakes,
    FGM,
    GumbelHougaard,
    Independence,
    copula_from_dict,
)


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
                assert cop._exch_second(np.array(p), 3) == pytest.approx(limit, rel=1e-9)

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
    FGM(1.0),
    FGM(-1.0),
    Independence(4),
]


class TestSecondDerivative:
    @pytest.mark.parametrize("cop", SECOND_DERIVATIVE_EDGES, ids=repr)
    def test_matches_50_digit_reference(self, cop):
        # K_j'' against mpmath's numerical derivative of the closed form K_j
        p = np.array([0.001, 0.5, 0.999])
        np.testing.assert_array_equal(cop._exch_second(p, 1), 0.0)  # K_1 = p
        with mp.workdps(50):
            for j in range(2, cop.dim + 1):
                want = [float(mp.diff(lambda t: exact_exch(cop, t, j)[0], mpf(x), 2)) for x in p]
                np.testing.assert_allclose(cop._exch_second(p, j), want, rtol=1e-12, atol=0.0)


# The per-j Clayton cores that ClaytonOakes._sum replaced, kept unchanged as
# the reference its one-pass sums must equal bit for bit, the role that
# sequential_bracketed plays for Grid._bracketed.
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


def reference_sum(self, pa, coeffs, which):
    """The distortion engine's former per-j loop over the reference cores."""
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
        pairs = clayton_pairs(np.random.default_rng(14), 18)
        assert len(pairs) == 20
        reports = [verify(sys1, sys2) for verify, sys1, sys2 in pairs]
        monkeypatch.setattr(ClaytonOakes, "_sum", reference_sum)
        assert [repr(r) for r in reports] == [repr(verify(sys1, sys2)) for verify, sys1, sys2 in pairs]


class TestValidation:
    def test_fgm_theta_range(self):
        with pytest.raises(ValueError):
            FGM(theta=1.5)
        with pytest.raises(ValueError):
            FGM(theta=-1.01)

    def test_fgm_dimension_fixed(self):
        with pytest.raises(ValueError):
            FGM(theta=0.5, dim=4)

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
        ],
        ids=["p=-0.1", "p=1.1", "j=-1", "j=dim+1", "j=1.5"],
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
