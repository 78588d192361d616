import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coherent_age.distributions import (
    Exponential,
    LinearFailureRate,
    Weibull,
    distribution_from_dict,
)
from coherent_age.orders import _log_functional

ALL_FUNCS = ("sf", "cdf", "hazard", "cum_hazard", "cum_rev_hazard")


def random_distribution(rng):
    family = rng.integers(0, 3)
    if family == 0:
        return Exponential(rate=float(rng.uniform(0.1, 5.0)))
    if family == 1:
        return LinearFailureRate(alpha=float(rng.uniform(0.1, 5.0)), beta=float(rng.uniform(0.0, 3.0)))
    return Weibull(shape=float(rng.uniform(0.5, 4.0)), scale=float(rng.uniform(0.2, 5.0)))


class TestClosedForms:
    def test_sf_at_zero_is_one(self):
        assert Exponential(3.0).sf(0.0) == 1.0
        assert LinearFailureRate(1.0, 1.0).sf(0.0) == 1.0
        assert Weibull(2.0, 1.0).sf(0.0) == 1.0

    def test_lfr_survival_hand_value(self):
        # exp(-1*(1 + 1*1)) at x = 1
        assert LinearFailureRate(1.0, 1.0).sf(1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_exponential_survival_hand_value(self):
        assert Exponential(2.0).sf(0.5) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_cum_hazard_values(self):
        assert Exponential(1.0).cum_hazard(1.0) == pytest.approx(1.0, abs=1e-15)
        # alpha*(x + beta*x^2) = 2*(2 + 4)
        assert LinearFailureRate(2.0, 1.0).cum_hazard(2.0) == pytest.approx(12.0, abs=1e-12)

    def test_hazard_values(self):
        assert Exponential(3.0).hazard(17.3) == 3.0
        assert LinearFailureRate(1.0, 1.0).hazard(1.0) == pytest.approx(3.0, abs=1e-15)
        assert Weibull(1.0, 1.0).hazard(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_cum_rev_hazard_decays_to_zero(self):
        d = Exponential(2.0)
        xs = np.array([1.0, 5.0, 20.0, 100.0, 1000.0])
        vals = d.cum_rev_hazard(xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] == 0.0

    def test_cum_rev_hazard_flags_infinity_at_zero(self):
        assert LinearFailureRate(1.0, 0.5).cum_rev_hazard(0.0) == math.inf


class TestInvariants:
    def test_pdf_matches_finite_difference_of_sf(self):
        # the density hazard * sf = -(d/dx) sf within 1e-6 relative error, 1000 draws per family
        rng = np.random.default_rng(20240801)
        u = np.geomspace(0.05, 0.95, 7)
        makers = [
            lambda: Exponential(rate=float(rng.uniform(0.1, 5.0))),
            lambda: LinearFailureRate(alpha=float(rng.uniform(0.1, 5.0)), beta=float(rng.uniform(0.0, 3.0))),
            lambda: Weibull(shape=float(rng.uniform(0.5, 4.0)), scale=float(rng.uniform(0.2, 5.0))),
        ]
        for make in makers:
            for _ in range(1000):
                d = make()
                x = d.isf(1.0 - u)
                delta = 1e-5 * x
                fd = (d.sf(x - delta) - d.sf(x + delta)) / (2.0 * delta)
                pdf = d.hazard(x) * d.sf(x)
                rel = np.max(np.abs(fd - pdf) / pdf)
                assert rel < 1e-6

    def test_cumulative_hazards_monotone(self):
        rng = np.random.default_rng(7)
        xs = np.geomspace(1e-4, 50.0, 300)
        for _ in range(50):
            d = random_distribution(rng)
            ch = d.cum_hazard(xs)
            crh = d.cum_rev_hazard(xs)
            assert np.all(np.diff(ch) >= -1e-12)
            assert np.all(np.diff(crh) <= 1e-12)

    def test_lfr_beta_zero_equals_exponential(self):
        lfr = LinearFailureRate(alpha=1.7, beta=0.0)
        exp = Exponential(rate=1.7)
        xs = np.geomspace(1e-3, 10.0, 200)
        for name in ALL_FUNCS:
            a = np.asarray(getattr(lfr, name)(xs), dtype=float)
            b = np.asarray(getattr(exp, name)(xs), dtype=float)
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)

    @given(
        rate=st.floats(min_value=0.1, max_value=5.0),
        x=st.floats(min_value=1e-3, max_value=20.0),
    )
    def test_density_factorisations(self, rate, x):
        # f = r * sf, and ln(f / cdf) is the log reversed hazard that check_order's b reads
        d = Exponential(rate)
        f = rate * math.exp(-rate * x)
        assert f == pytest.approx(d.hazard(x) * d.sf(x), rel=1e-12)
        log_rev_hazard = _log_functional(d, "b", np.array([x]))[0]
        assert log_rev_hazard == pytest.approx(math.log(d.hazard(x) * d.sf(x) / d.cdf(x)), rel=1e-10, abs=1e-12)

    @given(
        alpha=st.floats(min_value=0.1, max_value=4.0),
        beta=st.floats(min_value=0.0, max_value=3.0),
        v=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_isf_inverts_sf(self, alpha, beta, v):
        d = LinearFailureRate(alpha, beta)
        assert d.sf(d.isf(v)) == pytest.approx(v, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="LinearFailureRate.isf rises by one ulp on 38 of these 4000 steps; "
                       "a root form monotone in floating point is ROADMAP item 1's satellite")
    def test_lfr_isf_never_rises_over_consecutive_floats(self):
        # a survival inverse must not increase: the 4001 floats from u = 0.1 upwards
        u = (np.array([0.1]).view(np.int64) + np.arange(4001)).view(np.float64)
        assert np.all(np.diff(LinearFailureRate(1.0, 1.0).isf(u)) <= 0.0)

    def test_isf_endpoints(self):
        d = Weibull(2.0, 1.5)
        assert d.isf(1.0) == 0.0
        assert d.isf(0.0) == math.inf

    @pytest.mark.parametrize(
        "d",
        [Weibull(2.0, 1.5), Exponential(0.8), LinearFailureRate(1.3, 0.0), LinearFailureRate(0.4, 2.5)],
        ids=["weibull", "exp", "lfr-beta0", "lfr"],
    )
    def test_isf_endpoints_without_warning(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.isf(1.0) == 0.0
            assert d.isf(0.0) == math.inf
            assert d.isf(np.array([1.0, 0.0])).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize(
        "d",
        [Weibull(0.002, 1.0), Exponential(1e-308), LinearFailureRate(1e-308, 0.0)],
        ids=["weibull-shape-0.002", "exp-rate-1e-308", "lfr-alpha-1e-308"],
    )
    def test_isf_past_the_float_range_is_inf_without_warning(self, d):
        # -log(0.001)^500 = 6.9^500 and 6.9 / 1e-308 overflow a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.isf(0.001) == math.inf
            assert np.isinf(d.isf(np.array([0.5, 0.001]))).tolist() == [False, True]

    @pytest.mark.parametrize(
        "alpha, beta", [(1e-308, 1e300), (5e-324, 1e300), (1.0, 1e308), (1e308, 0.0), (1e308, 1e308)]
    )
    def test_lfr_quantile_where_the_root_form_overflows(self, alpha, beta):
        # 4*beta*t/alpha (or alpha times the root) is past the float range,
        # the quantile is not: compare with the root at 50 digits
        from mpmath import mp, mpf, sqrt

        u = np.array([0.0, 0.5, 0.999])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LinearFailureRate(alpha, beta).isf(1.0 - u)
        with mp.workdps(50):
            a, b = mpf(alpha), mpf(beta)
            for level, x in zip(u[1:], got[1:]):
                t = -mp.log(mpf(1.0 - level))
                want = 2 * t / (a * (1 + sqrt(1 + 4 * b * t / a)))
                assert x == pytest.approx(float(want), rel=1e-14)
        assert got[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1.7, 40.0])
    def test_lfr_beta_zero_isf_is_exponential_bit_for_bit(self, alpha):
        v = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(0.0, 1.0, 1001), np.geomspace(1e-12, 1.0, 500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = LinearFailureRate(alpha, 0.0).isf(v)
        assert np.array_equal(a, Exponential(alpha).isf(v))


class TestValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: Exponential(0.0),
            lambda: Exponential(-1.0),
            lambda: Exponential(math.nan),
            lambda: LinearFailureRate(1.0, -0.1),
            lambda: LinearFailureRate(0.0, 1.0),
            lambda: Weibull(0.0, 1.0),
            lambda: Weibull(1.0, 0.0),
        ],
    )
    def test_bad_parameters_rejected(self, ctor):
        with pytest.raises(ValueError):
            ctor()

    @pytest.mark.parametrize("func", ALL_FUNCS)
    @pytest.mark.parametrize(
        "dist",
        [Exponential(1.0), LinearFailureRate(1.0, 0.5), Weibull(2.0, 1.5)],
        ids=["exp", "lfr", "weibull"],
    )
    def test_negative_argument_rejected(self, dist, func):
        with pytest.raises(ValueError):
            getattr(dist, func)(-0.5)
        with pytest.raises(ValueError):
            getattr(dist, func)(np.array([1.0, -0.5]))


class TestSerialisation:
    @pytest.mark.parametrize(
        "d",
        [
            ({"family": "exp", "rate": 3.0}, Exponential(3.0)),
            ({"family": "lfr", "alpha": 1.0, "beta": 1.0}, LinearFailureRate(1.0, 1.0)),
            ({"family": "weibull", "shape": 2.0, "scale": 1.0}, Weibull(2.0, 1.0)),
        ],
    )
    def test_round_trip(self, d):
        # a literal fragment parses to the distribution it spells
        fragment, expected = d
        assert distribution_from_dict(fragment) == expected

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "gamma", "shape": 1.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            distribution_from_dict({"family": "exp", "rate": 1.0, "scale": 2.0})
