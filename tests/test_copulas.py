import math
import warnings

import numpy as np
import pytest
from corpus_helpers import assert_same_bits, copula_eval, exact_exch
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
from coherent_age.systems import Distortion, build_distortion, k_of_n_paths


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


def one_path_set(cop, j):
    """The distortion of one path set on j of the law's components, N_k = C(n-j, k-j): its h is K_j."""
    return Distortion(cop, (0,) * j + tuple(math.comb(cop.dim - j, i) for i in range(cop.dim - j + 1)))


class TestSecondDerivative:
    @pytest.mark.parametrize("cop", SECOND_DERIVATIVE_EDGES, ids=repr)
    def test_matches_50_digit_reference(self, cop):
        # K_j'' as the engine reads it (the law's Bernstein weights at theta = 1,
        # else its signed sum) against mpmath's numerical derivative of the closed form K_j
        p = np.array([0.001, 0.5, 0.999])
        np.testing.assert_array_equal(one_path_set(cop, 1)._evaluate(p, 3), 0.0)  # K_1 = p
        with mp.workdps(50):
            for j in range(2, cop.dim + 1):
                want = [float(mp.diff(lambda t: exact_exch(cop, t, j)[0], mpf(x), 2)) for x in p]
                np.testing.assert_allclose(one_path_set(cop, j)._evaluate(p, 3), want, rtol=1e-12, atol=0.0)


def unit_points(cop, size):
    """size log-uniform p and q = 1 - p and 2 size random p; p = 0, 2^-1074
    and 1, q = 2^-k for k up to 53, p about 1e-300, and p on both sides of
    Clayton's cutoff exp(-500/theta)."""
    rng = np.random.default_rng(34)
    tails = np.exp(-rng.uniform(0.0, 744.0, size))
    edges = [0.0, 2.0**-1074, 1.0, 1e-310, 1e-301, 1e-300, 1e-299] + [1.0 - 2.0**-k for k in range(1, 54)]
    if isinstance(cop, ClaytonOakes):
        cutoff = math.exp(-_CLAYTON_LOG_CUTOFF / cop.theta)
        edges += [cutoff * f for f in (0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0)]
    return np.concatenate((rng.random(2 * size), tails, 1.0 - tails, edges))


def units_off(got, want):
    """|got - want| in units of 2^-53 of want, or of 2^-1074 where want is
    subnormal; 0 for an infinite got where want is past the float range."""
    if got == math.inf and want > mpf(2) ** 1024:
        return 0.0
    return float(abs(mpf(got) - want) / max(abs(want) * mpf(2) ** -53, mpf(2) ** -1074))


def clayton_terms(theta, t, j):
    """K_j, 1 - K_j, K_j' and K_j'' of Clayton-Oakes at an mpmath point t in
    (0, 1], from S = j t^-theta - (j-1): K_j = S^(-1/theta), K_j' = j
    t^-(theta+1) S^-(1+1/theta) and K_j'' = K_j' (theta+1)(j-1) / (t S)."""
    big = t**-theta
    s = j * big - (j - 1)
    k = s ** (-1 / theta)
    k1 = j * big / t * k / s
    return k, 1 - k, k1, k1 * (theta + 1) * (j - 1) / (t * s)


CLAYTON_THETAS = [0.05, 0.3, 1.0, 2.7, 8.0, 40.0]
CLAYTON_COEFFS = [((1, 1),), ((1, 2), (2, -1)), ((2, 3), (3, -3), (4, 1)), ((1, 1), (3, 1), (4, -1)), ((6, 1),)]
CLAYTON_POINTS = np.concatenate([[0.0, 1e-300, 1e-200, 1e-30], np.linspace(0.0, 1.0, 3001), [1.0 - 1e-16]])


class TestClaytonSum:
    @pytest.mark.parametrize("theta", CLAYTON_THETAS)
    @pytest.mark.parametrize("j", range(1, 7))
    def test_terms_against_mpmath(self, theta, j):
        # each K_j, 1 - K_j, K_j' and K_j'' (on 0 < p < 1) within 16 units of
        # 2^-53 per unit of its exp-log chain's conditioning, 1 + (theta+2)|ln p|,
        # plus ln j / theta for the limit j^(-1/theta) that p = 0 and the points
        # past the cutoff read; at p = 0 K_j is 0, 1 - K_j is 1 and K_j' is that limit
        cop = ClaytonOakes(theta, 6)
        p = unit_points(cop, 8)
        # K_j'' on the open interval only: 0.5 stands in at p = 0 and p = 1
        inner = np.where((p > 0.0) & (p < 1.0), p, 0.5)
        th = mpf(theta)
        with warnings.catch_warnings(), mp.workdps(50):
            warnings.simplefilter("error")
            got = [cop._sum(p, ((j, 1),), which) for which in range(3)] + [cop._sum(inner, ((j, 1),), 3)]
            for i, x in enumerate(p.tolist()):
                if x == 0.0:
                    want = (mpf(0), mpf(1), mpf(j) ** (-1 / th), None)
                else:
                    want = clayton_terms(th, mpf(x), j)
                bound = 16 * (1 + (theta + 2.0) * abs(math.log(x) if x else 0.0) + math.log(j) / theta)
                for which, w in enumerate(want if 0.0 < x < 1.0 else want[:3]):
                    assert units_off(got[which][i], w) <= bound, (which, x)

    @pytest.mark.parametrize("theta", CLAYTON_THETAS)
    @pytest.mark.parametrize("which", range(4), ids=["K", "1-K", "K'", "K''"])
    @pytest.mark.parametrize("coeffs", CLAYTON_COEFFS, ids=str)
    def test_signed_sum_is_its_terms(self, theta, which, coeffs):
        # the terms share their log-space work and limit mask: a signed sum is
        # the sum of its one-term sums in coefficient order, and a point's sum
        # does not depend on the other points of its array (a limit point
        # alone, and no limit point at all)
        cop = ClaytonOakes(theta, 6)
        cutoff = math.exp(-_CLAYTON_LOG_CUTOFF / theta)
        p = CLAYTON_POINTS if which < 3 else CLAYTON_POINTS[(CLAYTON_POINTS > 0.0) & (CLAYTON_POINTS < 1.0)]
        got = cop._sum(p, coeffs, which)
        want = np.zeros_like(p)
        for j, c in coeffs:
            want += c * cop._sum(p, ((j, 1),), which)
        assert_same_bits(got, want)
        for part in (slice(0, 1), p <= cutoff * 2.0, p > cutoff * 2.0):
            assert_same_bits(cop._sum(p[part], coeffs, which), got[part])

    @pytest.mark.parametrize("theta", [0.05, 0.5])
    @pytest.mark.parametrize("p", [1e-310, 5e-324])
    def test_below_1e_300_against_mpmath(self, theta, p):
        # subnormal p: the direct form needs ln p itself, not a floored one
        cop = ClaytonOakes(theta, 3)
        with mp.workdps(50):
            for j in (2, 3):
                k, compl, k_prime, _ = clayton_terms(mpf(theta), mpf(p), j)
                for which, want in ((0, k), (1, compl), (2, k_prime)):
                    got = cop._sum(np.array([p]), ((j, 1),), which)[0]
                    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


class TestGumbelComplement:
    @pytest.mark.parametrize("theta", [1.0 + 1e-9, 2.0, 7.5, 50.0])
    @pytest.mark.parametrize("j", range(1, 9))
    def test_within_4_units_of_the_50_digit_reference(self, theta, j):
        # 1 - K_j = -expm1(a ln p), a = j^(1/theta), keeps its digits as p -> 1,
        # where 1 - p^a cancels; ln 0 = -inf reads 1 at p = 0, without a warning
        cop = GumbelHougaard(theta, 8)
        p = unit_points(cop, 30)
        with warnings.catch_warnings(), mp.workdps(50):
            warnings.simplefilter("error")
            got = cop._sum(p, ((j, 1),), 1)
            a = mpf(j) ** (1 / mpf(theta))
            for x, g in zip(p.tolist(), got.tolist()):
                assert units_off(g, 1 - mpf(x) ** a) <= 4, x


# every family with a signed sum, with ClaytonOakes(0.05) on parallel(8) the sum
# that cancels most; FGM and the independence law read their Bernstein weights,
# whose float sum is pinned by TestLevels::test_float_bernstein_sum_within_8_ulps
FLOAT_SUM_COPULAS = [GumbelHougaard(2.0, 6), GumbelHougaard(1.0 + 1e-9, 6), GumbelHougaard(7.5, 6),
                     ClaytonOakes(1.5, 6), ClaytonOakes(40.0, 6), ClaytonOakes(0.05, 8)]


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
        p = unit_points(cop, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for structure in structures:
                coeffs = build_distortion(structure, cop).coeffs
                for which in range(3):
                    want = cop._sum(p, coeffs, which)
                    got = [cop._sum(x, coeffs, which, _FLOATS) for x in p.tolist()]
                    assert_same_bits(got, want, f"{coeffs} {which}")

    def test_namespace_edges(self):
        # each float function against the array one on a one-point array: ln
        # is -inf only at 0 and carries NaN, minimum carries a NaN first
        # argument, any reads Clayton's limit mask alike, and nothing warns
        points = [0.0, -0.0, 2.0**-1074, 1e-300, 0.5, 1.0, 500.0, math.inf, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in points:
                for name in ("log", "exp", "expm1", "log1p"):
                    got = getattr(_FLOATS, name)(x)
                    assert type(got) is float
                    assert_same_bits([got], getattr(_ARRAYS, name)(np.array([x])), f"{name} {x}")
                assert_same_bits([_FLOATS.minimum(x, 1e-300)], _ARRAYS.minimum(np.array([x]), 1e-300))
                assert _FLOATS.any(x >= 500.0) == _ARRAYS.any(np.array([x]) >= 500.0)


class TestIndependenceIsGumbelAtOne:
    """Independence is GumbelHougaard's theta = 1 member and has no formula
    of its own: both give the same Bernstein weights, from which every
    distortion of the law, the exch trio and the level search read."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 20])
    def test_same_weights(self, n):
        ind, gum = Independence(n), GumbelHougaard(1.0, n)
        distortions = [(one_path_set(ind, j), one_path_set(gum, j)) for j in range(1, n + 1)]
        distortions += [(build_distortion(k_of_n_paths(k, n), ind), build_distortion(k_of_n_paths(k, n), gum))
                        for k in range(1, n + 1) if n <= 6]
        for d_ind, d_gum in distortions:
            assert d_ind._bernstein is not None and d_ind._bernstein == d_gum._bernstein

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
# 0, 1, NaN and subnormals; TestScalarMatchesArray::test_exch_entries holds the scalar calls elsewhere
TRIO_EDGES = [0.0, 1.0, math.nan, 5e-324, 2.0**-1030, 1e-310, 1.0 - 2.0**-53]


def trio_points():
    """The edges, random p and both tails of (0, 1)."""
    rng = np.random.default_rng(45)
    tails = np.exp(-rng.uniform(0.0, 744.0, 60))
    return np.concatenate((TRIO_EDGES, rng.random(150), tails, 1.0 - tails))


class TestTrioReadsTheEngine:
    """exch, exch_compl and exch_deriv at j are the distortion of one path
    set on j of the components, N_k = C(n-j, k-j), through the engine that
    reads every distortion of the law: its Bernstein weights where it gives
    them, else its one-term signed sum."""

    @pytest.mark.parametrize("cop", TRIO_COPULAS, ids=repr)
    def test_bit_for_bit(self, cop):
        p = trio_points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(1, cop.dim + 1):
                d = one_path_set(cop, j)
                assert d.coeffs == ((j, 1),)
                for name, which in TRIO:
                    want = d._evaluate(p, which)
                    if d._bernstein is None:
                        assert_same_bits(cop._sum(p, ((j, 1),), which), want, f"{name} {j}")
                    assert_same_bits(getattr(cop, name)(p, j), want, f"{name} {j}")
                    # a scalar runs as a one-point array
                    assert_same_bits([getattr(cop, name)(x, j) for x in TRIO_EDGES], want[:len(TRIO_EDGES)],
                                     f"{name} {j} scalar")

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_fgm_at_zero_is_independence(self, theta):
        p = trio_points()
        for j in range(4):
            for name, _ in TRIO:
                assert_same_bits(getattr(FGM(theta), name)(p, j), getattr(Independence(3), name)(p, j), f"{name} {j}")


class TestTrioAccuracy:
    """The trio of a law with Bernstein weights sums nonnegative terms, so
    nothing cancels: FGM's p^3 (1 - (1-p)^3) at theta = -1 keeps its digits
    as p -> 0, and so do the independence law's p^j, 1 - p^j and j p^(j-1)."""

    @pytest.mark.parametrize("cop", [FGM(-1.0), FGM(-0.5), FGM(0.5), FGM(1.0), Independence(3)], ids=repr)
    def test_within_8_units_of_the_50_digit_reference(self, cop):
        # errors in units of 2^-53 of the value; log-uniform p down to 1e-20
        # and q = 1 - p down to 1e-15
        rng = np.random.default_rng(45)
        p = np.concatenate(([1e-20, 1.2e-14, 1e-6], rng.random(150), np.exp(-rng.uniform(0.0, math.log(1e20), 60)),
                            1.0 - np.exp(-rng.uniform(0.0, math.log(1e15), 60))))
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
