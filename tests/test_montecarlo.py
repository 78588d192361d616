import math

import numpy as np
import pytest

from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate
from coherent_age.montecarlo import SimConfig, _sample_fgm, sample_copula, simulate_system
from coherent_age.systems import Structure

N = 100_000


def empirical_joint_cdf(u, p):
    return float(np.mean(np.all(u <= p, axis=1)))


def rank_correlation(a, b):
    # Spearman's rho for continuous samples: no ties, so ranks are a permutation
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return float(np.corrcoef(ra, rb)[0, 1])


def three_se(value, n=N):
    return 3.0 * math.sqrt(max(value * (1.0 - value), 1e-12) / n)


class TestSamplers:
    def test_independence_uncorrelated(self):
        u = sample_copula(Independence(3), SimConfig(seed=101))
        assert u.shape == (N, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                rho = rank_correlation(u[:, i], u[:, j])
                assert abs(rho) < 0.01

    def test_margins_uniform(self):
        for cop in (FGM(0.8), GumbelHougaard(2.0, 3), ClaytonOakes(1.5, 3)):
            u = sample_copula(cop, SimConfig(sample_count=50_000, seed=7))
            assert np.all(u > 0.0) and np.all(u < 1.0)
            means = u.mean(axis=0)
            assert np.all(np.abs(means - 0.5) < 4 * 0.2887 / math.sqrt(50_000))

    def test_fgm_matches_analytic(self):
        cop = FGM(1.0)
        u = sample_copula(cop, SimConfig(seed=11))
        target = 0.140625
        assert abs(empirical_joint_cdf(u, 0.5) - target) < three_se(target)

    def test_gumbel_matches_analytic(self):
        cop = GumbelHougaard(2.0, 3)
        u = sample_copula(cop, SimConfig(seed=13))
        p = math.exp(-1.0)
        target = p ** math.sqrt(3.0)
        assert abs(empirical_joint_cdf(u, p) - target) < three_se(target)

    def test_clayton_matches_analytic(self):
        cop = ClaytonOakes(2.0, 3)
        u = sample_copula(cop, SimConfig(seed=17))
        for p in (0.3, 0.6):
            target = float(cop.exch(p, 3))
            assert abs(empirical_joint_cdf(u, p) - target) < three_se(target)

    def test_fgm_round_cap_reports_acceptance_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="acceptance rate"):
            _sample_fgm(1.0, 1000, rng, max_rounds=0)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        cfg = SimConfig(sample_count=20_000, seed=99, stream_count=4)
        cop = GumbelHougaard(1.7, 3)
        a = sample_copula(cop, cfg)
        b = sample_copula(cop, cfg)
        assert a.tobytes() == b.tobytes()

    def test_stream_split_covers_sample_count(self):
        cfg = SimConfig(sample_count=10_001, seed=1, stream_count=7)
        u = sample_copula(Independence(2), cfg)
        assert u.shape == (10_001, 2)

    def test_seed_changes_output(self):
        cop = FGM(0.5)
        a = sample_copula(cop, SimConfig(sample_count=1000, seed=1))
        b = sample_copula(cop, SimConfig(sample_count=1000, seed=2))
        assert a.tobytes() != b.tobytes()


class TestSimulateSystem:
    def test_series_exponential(self):
        res = simulate_system(Structure.series(3), Independence(3), Exponential(1.0), SimConfig(seed=23))
        np.testing.assert_allclose(res.analytic_sf, np.exp(-3.0 * res.x), rtol=1e-12)
        assert res.max_standardized_deviation < 4.0

    def test_fgm_pair_series_system(self):
        res = simulate_system(
            Structure.from_paths(3, [[1, 2], [1, 3]]),
            FGM(1.0),
            LinearFailureRate(1.0, 1.0),
            SimConfig(seed=29),
        )
        assert res.max_standardized_deviation < 4.0

    def test_gumbel_series_power_law(self):
        theta = 2.0
        res = simulate_system(
            Structure.series(3), GumbelHougaard(theta, 3), Exponential(3.0), SimConfig(seed=31)
        )
        a = 3.0 ** (1.0 / theta)
        np.testing.assert_allclose(res.analytic_sf, np.exp(-3.0 * res.x) ** a, rtol=1e-12)
        assert res.max_standardized_deviation < 4.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_system(Structure.series(3), Independence(2), Exponential(1.0), SimConfig())

    def test_custom_grid(self):
        x = np.array([0.1, 0.2, 0.4])
        res = simulate_system(
            Structure.parallel(2), Independence(2), Exponential(1.0),
            SimConfig(sample_count=20_000, seed=3), x_grid=x,
        )
        assert res.x.shape == (3,)
        assert np.all(res.std_err > 0.0)


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(sample_count=0)
        with pytest.raises(ValueError):
            SimConfig(stream_count=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)
