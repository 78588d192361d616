"""Every public numeric function of each family on the edges of its domain.

Lifetimes run over 0, a subnormal, 1e-300, two large values, inf and NaN;
reliabilities over 0, the smallest subnormal, 1e-300, 1e-9, 1/2, 1 - 1e-16,
1 and NaN (the derivatives over the open interval and NaN).  Each function
runs on the points as one array and one by one, with every warning an error,
and a NaN argument must give a NaN result, except where the function is
constant in p (K_0 = 1, 1 - K_0 = K_0' = 0 and K_1' = 1).
"""

import math
import warnings

import numpy as np
import pytest

from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.systems import Structure, SystemModel, build_distortion, k_of_n_paths

X = np.array([0.0, 1e-320, 1e-300, 1e10, 1e300, math.inf, math.nan])
P = np.array([0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-16, 1.0, math.nan])
OPEN_P = P[~((P <= 0.0) | (P >= 1.0))]

MARGINS = [Exponential(2.0), LinearFailureRate(1.0, 1.0), LinearFailureRate(0.5, 0.3), Weibull(3.0, 2.0),
           Weibull(0.5, 1.0), LinearFailureRate(1.0, 0.0)]
COPULAS = [Independence(3), FGM(0.7), FGM(-1.0), FGM(1.0), GumbelHougaard(2.0, 3), GumbelHougaard(7.5, 3),
           ClaytonOakes(2.0, 3), ClaytonOakes(0.05, 3), ClaytonOakes(40.0, 3)]
STRUCTURES = [Structure.series(3), Structure.parallel(3), k_of_n_paths(2, 3), Structure.from_paths(3, [[1, 2], [1, 3]])]


def quiet_values(f, points, constant=False):
    """f on the points as an array and at each point, without a warning; the
    two must agree on NaN, and a NaN point gives NaN unless f is constant."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = np.asarray(f(points), dtype=float)
        each = np.array([f(x) for x in points.tolist()], dtype=float).T
    np.testing.assert_array_equal(np.isnan(array), np.isnan(each))
    if not constant:
        assert np.isnan(array[..., np.isnan(points)]).all()


@pytest.mark.parametrize("margin", MARGINS, ids=repr)
class TestMargins:
    @pytest.mark.parametrize("name", ["cum_hazard", "hazard", "sf", "cdf", "cum_rev_hazard"])
    def test_lifetime_functions(self, margin, name):
        quiet_values(getattr(margin, name), X)

    def test_isf(self, margin):
        quiet_values(margin.isf, P)

    @pytest.mark.parametrize("level", [2.0, -0.5, 1.0 + 2.0**-52, -5e-324, -math.inf, math.inf])
    def test_isf_refuses_levels_outside_the_unit_interval(self, margin, level):
        for v in (level, np.array([0.5, level])):
            with pytest.raises(ValueError, match=r"^survival level must lie in \[0, 1\]$"):
                margin.isf(v)


@pytest.mark.parametrize("copula", COPULAS, ids=repr)
@pytest.mark.parametrize("name", ["exch", "exch_deriv", "exch_compl"])
def test_copula_reductions(copula, name):
    for j in range(copula.dim + 1):
        f = getattr(copula, name)
        quiet_values(lambda p: f(p, j), P, constant=j == 0 or (name == "exch_deriv" and j == 1))


@pytest.mark.parametrize("copula", COPULAS, ids=repr)
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: str(s.paths))
class TestDistortions:
    def test_values_and_elasticities(self, copula, structure):
        d = build_distortion(structure, copula)
        for f in (d.h, d.one_minus_h, d.H, d.R):
            quiet_values(f, P)
        for kind in ("H", "R"):
            quiet_values(lambda p: np.array(d.elasticity_profile(p, kind)), P)

    def test_derivatives(self, copula, structure):
        d = build_distortion(structure, copula)
        for f in (d.h_prime, d.H_prime, d.R_prime):
            quiet_values(f, OPEN_P)

    @pytest.mark.parametrize("margin", MARGINS[::2], ids=repr)
    def test_system_cumulative_hazards(self, copula, structure, margin):
        system = SystemModel(structure, copula, margin)
        quiet_values(system.cum_hazard, X)
        quiet_values(system.cum_rev_hazard, X)


class TestNamedPoints:
    """The degenerate points read IEEE's values."""

    def test_nan_complements(self):
        nan = math.nan
        assert math.isnan(GumbelHougaard(2.0, 3).exch_compl(nan, 2))
        assert math.isnan(Independence(3).exch_compl(nan, 2))
        assert math.isnan(ClaytonOakes(2.0, 3).exch_deriv(nan, 2))
        d = build_distortion(Structure.series(3), GumbelHougaard(2.0, 3))
        assert math.isnan(d.one_minus_h(nan))
        assert math.isnan(SystemModel(Structure.series(3), GumbelHougaard(2.0, 3), Exponential(1.0)).cum_hazard(nan))
        assert math.isnan(Exponential(2.0).hazard(nan))
        assert Exponential(2.0).hazard(math.inf) == 2.0

    def test_past_the_float_range(self):
        # Lambda is inf once it overflows, and sf 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Weibull(3.0, 2.0).cum_hazard(1e300) == math.inf and Weibull(3.0, 2.0).sf(1e300) == 0.0
            assert LinearFailureRate(1.0, 1.0).cdf(1e300) == 1.0
            assert Exponential(2.0).cum_hazard(1.7e308) == math.inf
            system = SystemModel(Structure.series(3), GumbelHougaard(2.0, 3), Weibull(3.0, 2.0))
            assert system.cum_hazard(1e300) == math.inf

    def test_linear_failure_rate_without_beta_is_exponential(self):
        # inf, 0, 1, 0 and alpha at x = inf, where beta x^2 would be 0 * inf
        for name in ("cum_hazard", "hazard", "sf", "cdf", "cum_rev_hazard"):
            got, want = (getattr(margin, name)(X) for margin in (LinearFailureRate(1.5, 0.0), Exponential(1.5)))
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_gumbel_complement_at_and_below_1e_300(self):
        # ln 0 = -inf, so 1 - p^a = -expm1(a ln p) reads 1 at p = 0 as below 1e-300
        for cop in (GumbelHougaard(2.0, 3), Independence(3)):
            for j in (1, 2, 3):
                assert cop.exch_compl(np.array([0.0, 5e-324, 1e-310, 1e-300]), j).tolist() == [1.0] * 4

    def test_gumbel_second_derivative_of_k1_is_zero(self):
        cop = GumbelHougaard(2.0, 3)
        assert cop._sum(np.array([5e-324, 0.5]), ((1, 1),), 3).tolist() == [0.0, 0.0]

    def test_clayton_limit_at_zero(self):
        cop = ClaytonOakes(2.0, 3)
        assert cop.exch_deriv(0.0, 2) == 2.0**-0.5
        assert cop.exch(0.0, 2) == 0.0 and cop.exch_compl(0.0, 2) == 1.0

    def test_elasticity_flags(self):
        # series(3) under independence: R = 0 at 1e-300, whose log-slope is
        # inf, so R' = 0 x inf reads nan; H' at 2^-1074 on parallel(3) under
        # Gumbel reads 1/p + ... - h'/h, inf - inf
        d = build_distortion(Structure.series(3), Independence(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(d.R_prime(1e-300))
            assert math.isnan(build_distortion(Structure.parallel(3), GumbelHougaard(2.0, 3)).H_prime(5e-324))
