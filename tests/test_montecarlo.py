import hashlib
import math

import numpy as np
import pytest

from coherent_age import montecarlo
from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.montecarlo import (
    SimConfig,
    _count_survivors,
    _sample_fgm,
    _system_lifetime,
    sample_copula,
    simulate_system,
)
from coherent_age.systems import Structure, k_of_n_paths

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

    @pytest.mark.parametrize(
        "copula", [GumbelHougaard(1.0, 4), FGM(0.0), FGM(-0.0)], ids=["gumbel-1", "fgm-0", "fgm-neg-0"]
    )
    def test_independence_law_draws_as_independence(self, copula):
        # the same draws, byte for byte, as the Independence sampler
        cfg = SimConfig(sample_count=10_001, seed=5, stream_count=3)
        assert np.array_equal(sample_copula(copula, cfg), sample_copula(Independence(copula.dim), cfg))

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

    def test_fgm_round_cap_reports_acceptance_rate(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_FGM_MAX_ROUNDS", 0)
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="acceptance rate"):
            _sample_fgm(1.0, 1000, rng)


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

    # sha256 of the sampled bytes, pinned from the sampler that mapped every
    # component: a change to the draw calls, their order or their shapes fails here
    @pytest.mark.parametrize(
        "copula, digest",
        [
            (Independence(3), "24523e6bdfe250148a159ef87793db71ff28278037812a247cef20c5f15f837c"),
            (FGM(-0.7), "5fd5cc80cf8f08abaf3599e2e565f0b6fc305b26c3c6def0325fd636e3c30996"),
            (GumbelHougaard(2.0, 4), "0701cc820adf3616a4f29dfaf9b3fddd0606a5bc4bae93cc8f0136fee42df79a"),
            (ClaytonOakes(1.5, 4), "08ee2c9153945b3708c1cd7e9f5da2e7707b595f27295edb02b3aa2fb79940fd"),
        ],
        ids=["independence", "fgm", "gumbel", "clayton"],
    )
    def test_sampled_bytes_pinned(self, copula, digest):
        u = sample_copula(copula, SimConfig(sample_count=10_001, seed=5, stream_count=3))
        assert u.shape == (10_001, copula.dim) and u.dtype == np.float64 and u.flags.c_contiguous
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest


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


# Reference formulations: the fancy-index / column_stack system lifetime, the
# broadcast empirical survival and the np.prod FGM density. The module's
# column-view, sort-and-count and explicit-product forms must give the same bits.

def reference_system_lifetime(lifetimes, paths):
    path_mins = [np.min(lifetimes[:, [i - 1 for i in sorted(path)]], axis=1) for path in paths]
    return np.max(np.column_stack(path_mins), axis=1)


def reference_empirical_sf(tau, x):
    return np.mean(tau[:, None] > x[None, :], axis=0)


def reference_sample_fgm(theta, count, rng, max_rounds=256):
    bound = 1.0 + abs(theta)
    out = np.empty((count, 3))
    filled = 0
    for _ in range(max_rounds):
        if filled == count:
            break
        need = count - filled
        batch = max(1024, int(1.5 * need * bound))
        u = rng.random((batch, 3))
        density = 1.0 + theta * np.prod(1.0 - 2.0 * u, axis=1)
        accept = rng.random(batch) * bound < density
        take = u[accept][:need]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


BRIDGE = Structure.from_paths(5, [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]])
TWO_OF_THREE = k_of_n_paths(2, 3)
TWO_OF_FOUR = k_of_n_paths(2, 4)

# every copula family on a multi-path structure of its dimension
REFERENCE_CASES = [
    ("fgm-two-of-three", TWO_OF_THREE, FGM(-0.7), LinearFailureRate(1.0, 1.0)),
    ("fgm-pair-series", Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(1.0), Exponential(2.0)),
    ("indep-bridge", BRIDGE, Independence(5), LinearFailureRate(2.0, 1.0)),
    ("indep-two-of-four", TWO_OF_FOUR, Independence(4), Exponential(1.0)),
    ("gumbel-two-of-four", TWO_OF_FOUR, GumbelHougaard(2.0, 4), Exponential(2.0)),
    ("gumbel-bridge", BRIDGE, GumbelHougaard(1.5, 5), LinearFailureRate(1.0, 0.5)),
    ("clayton-two-of-four", TWO_OF_FOUR, ClaytonOakes(1.5, 4), LinearFailureRate(1.0, 2.0)),
    ("clayton-bridge", BRIDGE, ClaytonOakes(0.8, 5), Exponential(1.0)),
]


class TestReferenceFormulations:
    @pytest.mark.parametrize(
        "structure, copula, margin", [case[1:] for case in REFERENCE_CASES], ids=[case[0] for case in REFERENCE_CASES]
    )
    def test_lifetime_and_survival_match_reference(self, structure, copula, margin):
        cfg = SimConfig(sample_count=20_000, seed=41, stream_count=3)
        lifetimes = np.asarray(margin.isf(sample_copula(copula, cfg)), dtype=float)
        tau = _system_lifetime(lifetimes, structure.paths)
        assert np.array_equal(tau, reference_system_lifetime(lifetimes, structure.paths))

        # a user grid that is unsorted, has ties, and has sample values on it
        x = np.array([0.7, 0.1, 0.7, 0.0, 2.5, 0.3, 0.1, tau[0], tau[5], np.inf])
        emp = _count_survivors(tau, x) / tau.size
        assert np.array_equal(emp, reference_empirical_sf(tau, x))

        # the lifetimes simulate_system reduces before inverting are these
        res = simulate_system(structure, copula, margin, cfg)
        assert np.array_equal(res.empirical_sf, reference_empirical_sf(tau, res.x))

    @pytest.mark.parametrize("theta", [1.0, 0.35, -0.6, -1.0])
    def test_fgm_sampler_matches_np_prod_density(self, theta):
        for seed in (0, 9):
            a = _sample_fgm(theta, 30_001, np.random.default_rng(seed))
            b = reference_sample_fgm(theta, 30_001, np.random.default_rng(seed))
            assert np.array_equal(a, b)

    def test_nan_lifetime_counts_as_not_surviving(self):
        tau = np.array([0.5, np.nan, 2.0, 0.5, np.nan, 1.0, 3.0])
        x = np.array([1.0, 0.5, -np.inf, 0.0, np.inf, 2.0, np.nan, 0.75])
        counts = _count_survivors(tau, x)
        assert np.array_equal(counts, np.sum(tau[:, None] > x[None, :], axis=0))
        assert counts.tolist() == [2, 3, 5, 5, 0, 1, 0, 3]

    def test_nan_component_lifetime_propagates_like_reference(self):
        lifetimes = np.array([[1.0, 2.0, 3.0, 4.0], [np.nan, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]])
        tau = _system_lifetime(lifetimes, TWO_OF_FOUR.paths)
        reference = reference_system_lifetime(lifetimes, TWO_OF_FOUR.paths)
        assert np.array_equal(tau, reference, equal_nan=True)
        assert np.isnan(tau[1])
        assert _count_survivors(tau, np.array([0.5])).tolist() == [2]


# the reduction only commutes with isf and the frailty row maps where their
# composition keeps the order of a row's components in floating point, which
# no theorem gives (LinearFailureRate(1, 1).isf reverses some adjacent floats
# by one ulp), so equality with the map-every-component pipeline is pinned here
EXTREME_CASES = [
    ("clayton-parallel8-0.05", Structure.parallel(8), ClaytonOakes(0.05, 8), Exponential(1.0)),
    ("clayton-parallel8-30", Structure.parallel(8), ClaytonOakes(30.0, 8), Weibull(2.0, 1.0)),
    ("gumbel-1-series8", Structure.series(8), GumbelHougaard(1.0, 8), Weibull(0.01)),
    ("gumbel-10-three-of-six", k_of_n_paths(3, 6), GumbelHougaard(10.0, 6), LinearFailureRate(1e-300, 1.0)),
]
PIPELINE_CASES = REFERENCE_CASES + EXTREME_CASES
# stream counts 1, 3, 4 and 5; every row count but the first leaves a remainder
PIPELINE_CONFIGS = [
    SimConfig(sample_count=20_000, seed=41, stream_count=1),
    SimConfig(sample_count=20_003, seed=7, stream_count=3),
    SimConfig(sample_count=20_002, seed=123, stream_count=4),
    SimConfig(sample_count=9_999, seed=2**63 + 5, stream_count=5),
]


def reference_simulation(structure, copula, margin, cfg, x):
    """Map every component: sample the copula, invert each uniform, reduce."""
    lifetimes = np.asarray(margin.isf(sample_copula(copula, cfg)), dtype=float)
    tau = _system_lifetime(lifetimes, structure.paths)
    return tau, _count_survivors(tau, x) / tau.size


class TestReducedPipeline:
    @pytest.mark.parametrize("cfg", PIPELINE_CONFIGS, ids=lambda c: f"{c.stream_count}x{c.sample_count}")
    @pytest.mark.parametrize(
        "structure, copula, margin", [case[1:] for case in PIPELINE_CASES], ids=[case[0] for case in PIPELINE_CASES]
    )
    def test_matches_map_every_component(self, structure, copula, margin, cfg, monkeypatch):
        seen = []
        count = montecarlo._count_survivors

        def recording(tau, x):
            seen.append(tau)
            return count(tau, x)

        monkeypatch.setattr(montecarlo, "_count_survivors", recording)
        res = simulate_system(structure, copula, margin, cfg)
        tau, emp = reference_simulation(structure, copula, margin, cfg, res.x)
        assert len(seen) == 1 and seen[0].dtype == np.float64
        assert seen[0].tobytes() == tau.tobytes()
        assert res.empirical_sf.tobytes() == emp.tobytes()

    @pytest.mark.parametrize(
        "copula",
        [Independence(4), GumbelHougaard(2.0, 4), ClaytonOakes(1.5, 4), FGM(0.6)],
        ids=["independence", "gumbel", "clayton", "fgm"],
    )
    def test_isf_inverts_one_value_per_row(self, copula, monkeypatch):
        sizes = []
        isf = Exponential.isf

        def counting(self, v):
            sizes.append(np.size(v))
            return isf(self, v)

        monkeypatch.setattr(Exponential, "isf", counting)
        structure = k_of_n_paths(2, copula.dim)
        cfg = SimConfig(sample_count=10_001, seed=3, stream_count=3)
        simulate_system(structure, copula, Exponential(1.0), cfg)
        # the default x-grid first, then every call on one value per row
        assert sizes[0] == 20 and len(sizes) > 1
        assert all(size == cfg.sample_count for size in sizes[1:])


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(sample_count=0)
        with pytest.raises(ValueError):
            SimConfig(stream_count=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("sample_count", 10.5), ("stream_count", 2.5), ("seed", 1.5),
        ("sample_count", True), ("stream_count", True), ("seed", True), ("seed", False),
        ("seed", "3"), ("sample_count", None), ("seed", np.bool_(True)), ("stream_count", np.float32(2.5)),
    ])
    def test_non_integer_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["sample_count", "seed", "stream_count"])
    def test_integral_float_field_read_as_int(self, field):
        # the rule VerifyConfig applies to its grid size: 2.0 reads as 2
        cfg = SimConfig(**{field: 2.0})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 2
        assert sample_copula(Independence(2), cfg).shape[1] == 2

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(sample_count=np.int64(10), seed=np.uint64(2**64 - 1), stream_count=np.int32(3))
        assert (cfg.sample_count, cfg.seed, cfg.stream_count) == (10, 2**64 - 1, 3)
        assert all(type(v) is int for v in (cfg.sample_count, cfg.seed, cfg.stream_count))
