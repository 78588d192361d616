import dataclasses
import hashlib
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from coherent_age import montecarlo
from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.montecarlo import (
    SimConfig,
    _count_survivors,
    _system_lifetime,
    sample_copula,
    simulate_system,
)
from coherent_age.systems import Structure, k_of_n_paths

N = 100_000


def kernel_level():
    """numpy's SIMD kernel set in this process, as its x86-64 level: X86_V4
    where its AVX-512 kernels run (numpy < 2.4 names that group AVX512_SKX),
    else X86_V3 where its AVX2 ones do, else None."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    active = {f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)}
    for level, names in (("X86_V4", {"X86_V4", "AVX512_SKX"}), ("X86_V3", {"X86_V3", "AVX2"})):
        if active & names:
            return level
    return None


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

    @pytest.mark.parametrize("theta", [1.0, -1.0])
    def test_fgm_joint_cdf_matches_k_on_grid(self, theta):
        u = sample_copula(FGM(theta), SimConfig(seed=37))
        for p in itertools.product((0.2, 0.5, 0.8), repeat=3):
            target = math.prod(p) * (1.0 + theta * math.prod(1.0 - q for q in p))
            se = math.sqrt(target * (1.0 - target) / N)
            assert abs(float(np.mean(np.all(u <= p, axis=1))) - target) < 4.0 * se, p

    @pytest.mark.parametrize("theta", [1.0, 0.35, -0.6, -1.0])
    def test_fgm_keeps_the_raw_pair_and_inverts_the_conditional_cdf(self, theta):
        raw = np.random.default_rng(19).random((30_001, 3))
        u = FGM(theta)._draw(30_001, np.random.default_rng(19))[0]
        assert np.array_equal(u[:, :2], raw[:, :2])
        w, u3 = raw[:, 2], u[:, 2]
        b = theta * (1.0 - 2.0 * raw[:, 0]) * (1.0 - 2.0 * raw[:, 1])
        # evaluating the cdf rounds to about eps * u3 where b near -1 makes
        # 1 + b (1 - u3) small, and u3 <= w for b >= 0, u3 >= w for b < 0
        assert np.all(np.abs(u3 * (1.0 + b * (1.0 - u3)) - w) <= 4.0 * np.spacing(np.maximum(w, u3)))

    def test_fgm_edge_rows_without_warning(self):
        class Rows:
            def random(self, shape):
                return np.array(rows)

        # b = -1 with w = 0 (the one 0/0 point) and w > 0, b = 1, b = 0, and w = 0 at b = 1
        rows = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.5], [0.5, 0.3, 0.7], [0.0, 0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = FGM(-1.0)._draw(5, Rows())[0][:, 2]
            high = FGM(1.0)._draw(5, Rows())[0][:, 2]
        # at b = -1 the cdf is u^2, at b = 1 it is u (2 - u), at b = 0 it is u
        eps = np.finfo(float).eps
        np.testing.assert_allclose(low, [0.0, 0.5, math.sqrt(0.5), 0.7, 0.0], rtol=2.0 * eps, atol=0.0)
        np.testing.assert_allclose(high, [0.0, 1.0 - math.sqrt(0.75), 1.0 - math.sqrt(0.5), 0.7, 0.0],
                                   rtol=2.0 * eps, atol=0.0)


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

    # sha256 of the sampled bytes: a change to the draw calls, their order or
    # their shapes fails here. The independence and Clayton digests are those
    # of the sampler that mapped every component; the FGM digest is that of
    # conditional inversion, and the Gumbel digest that of the frailty's scale
    # formed from logs. The Gumbel and Clayton samples go through
    # numpy's exp, log and power, whose AVX-512 kernels can differ from the
    # others in the last ulp, so they hold one digest per kernel_level(); a
    # kernel set with none recorded fails
    @pytest.mark.parametrize(
        "copula, digest",
        [
            (Independence(3), "24523e6bdfe250148a159ef87793db71ff28278037812a247cef20c5f15f837c"),
            (FGM(-0.7), "dfe3e1ae1b800faef2494931a5920f5d5094da3e2919fbbd5c6eb28bb416e694"),
            (GumbelHougaard(2.0, 4), {
                "X86_V4": "a7089d2ea7928e86cc4fb640fb469e1e7a3ead9ca53fd61bee2fd9f365cabdd9",
                "X86_V3": "8bcf35ac6bd6ba28f77d8222f9c1cbd594d6ed87e48a3bdc6be8eb74d4f59284",
            }),
            (ClaytonOakes(1.5, 4), {
                "X86_V4": "08ee2c9153945b3708c1cd7e9f5da2e7707b595f27295edb02b3aa2fb79940fd",
                "X86_V3": "e5d2815b5d632d3d3c75dce34a7a07dc5502d9a07290845460b620e6fe0a7eb6",
            }),
        ],
        ids=["independence", "fgm", "gumbel", "clayton"],
    )
    def test_sampled_bytes_pinned(self, copula, digest):
        u = sample_copula(copula, SimConfig(sample_count=10_001, seed=5, stream_count=3))
        assert u.shape == (10_001, copula.dim) and u.dtype == np.float64 and u.flags.c_contiguous
        want = digest if isinstance(digest, str) else digest.get(kernel_level())
        assert want is not None, f"no digest recorded for numpy's {kernel_level()} kernels"
        assert hashlib.sha256(u.tobytes()).hexdigest() == want


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

    @pytest.mark.parametrize("theta", [150.0, 1000.0, 1e6])
    def test_gumbel_large_theta_without_nan(self, theta):
        # the frailty's factors, such as sin(w)^theta, underflow past theta of
        # about 60; its scale from logs keeps every uniform a number
        cop = GumbelHougaard(theta, 3)
        cfg = SimConfig(seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = sample_copula(cop, cfg)
            res = simulate_system(Structure.parallel(3), cop, Exponential(1.0), cfg)
        assert not np.isnan(u).any() and np.all((u >= 0.0) & (u <= 1.0))
        assert res.max_standardized_deviation < 4.0


# Reference formulations: the fancy-index / column_stack system lifetime and
# the broadcast empirical survival, which the module's column-view and
# sort-and-count forms must match bit for bit, and the FGM conditional
# inverse by the other root formula, which the sampler must match closely.

def reference_system_lifetime(lifetimes, paths):
    # a path set is a mask with bit i-1 for component i
    columns = range(lifetimes.shape[1])
    path_mins = [np.min(lifetimes[:, [i for i in columns if path >> i & 1]], axis=1) for path in paths]
    return np.max(np.column_stack(path_mins), axis=1)


def reference_empirical_sf(tau, x):
    return np.mean(tau[:, None] > x[None, :], axis=0)


def reference_sample_fgm(theta, count, rng):
    # ((1 + b) - sqrt(D)) / (2 b), which cancels where b is small; b = 0 is w
    u = rng.random((count, 3))
    w = u[:, 2]
    b = theta * np.prod(1.0 - 2.0 * u[:, :2], axis=1)
    d = (1.0 + b) ** 2 - 4.0 * b * w
    with np.errstate(divide="ignore", invalid="ignore"):
        u[:, 2] = np.where(b == 0.0, w, ((1.0 + b) - np.sqrt(d)) / (2.0 * b))
    return u


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
    def test_fgm_sampler_matches_other_root(self, theta):
        for seed in (0, 9):
            a = FGM(theta)._draw(30_001, np.random.default_rng(seed))[0]
            b = reference_sample_fgm(theta, 30_001, np.random.default_rng(seed))
            assert np.allclose(a, b)

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

        # one worker counts the streams in order, so their lifetimes join as the reference's
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        monkeypatch.setattr(montecarlo, "_count_survivors", recording)
        res = simulate_system(structure, copula, margin, cfg)
        tau, emp = reference_simulation(structure, copula, margin, cfg, res.x)
        assert len(seen) == cfg.stream_count and all(t.dtype == np.float64 for t in seen)
        assert np.concatenate(seen).tobytes() == tau.tobytes()
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
        # the default x-grid first, then one call per stream on one value per
        # row, in whatever order the streams finish
        assert sizes[0] == 20
        assert sorted(sizes[1:]) == [3333, 3334, 3334] and sum(sizes[1:]) == cfg.sample_count


def simulation_bytes(res):
    values = (getattr(res, f.name) for f in dataclasses.fields(res))
    return [v.tobytes() for v in values if isinstance(v, np.ndarray)]


class TestConcurrentStreams:
    @pytest.mark.parametrize("cfg", PIPELINE_CONFIGS + [SimConfig(sample_count=3, seed=8, stream_count=5)],
                             ids=lambda c: f"{c.stream_count}x{c.sample_count}")
    @pytest.mark.parametrize(
        "structure, copula, margin", [case[1:] for case in PIPELINE_CASES], ids=[case[0] for case in PIPELINE_CASES]
    )
    def test_bytes_do_not_depend_on_cpu_count(self, structure, copula, margin, cfg, monkeypatch):
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
            u = sample_copula(copula, cfg)
            res = simulate_system(structure, copula, margin, cfg)
            assert u.shape == (cfg.sample_count, copula.dim) and u.flags.c_contiguous
            outputs.append([u.tobytes()] + simulation_bytes(res))
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_more_threads_than_cpus(self, monkeypatch):
        started = []

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def run():
            u = sample_copula(copula, cfg)
            return [u.tobytes()] + simulation_bytes(simulate_system(Structure.series(3), copula, Exponential(1.0), cfg))

        copula = ClaytonOakes(1.5, 3)
        cfg = SimConfig(sample_count=1000, seed=4, stream_count=1000)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 3)
        monkeypatch.setattr(threading, "Thread", Counting)
        # more workers than this machine may have CPUs, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run()
        finally:
            sys.setswitchinterval(interval)
        # the calling thread is the third worker of each call
        assert len(started) == 4 and not any(t.is_alive() for t in started)
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        assert run() == threaded and len(started) == 4

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [{1}, {1, 2}, {2, 3}, {0, 3}], ids=str)
    def test_lowest_failing_stream_is_raised(self, failing, cpus, monkeypatch):
        draw = GumbelHougaard._draw

        def failing_draw(copula, count, rng):
            stream = rng.bit_generator.seed_seq.spawn_key[-1]
            if stream in failing:
                raise LookupError(f"stream {stream}")
            return draw(copula, count, rng)

        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        # Independence inherits Gumbel-Hougaard's draw
        monkeypatch.setattr(GumbelHougaard, "_draw", failing_draw)
        cfg = SimConfig(sample_count=400, seed=6, stream_count=4)
        with pytest.raises(LookupError, match=f"^stream {min(failing)}$"):
            simulate_system(Structure.series(3), Independence(3), Exponential(1.0), cfg)
        with pytest.raises(LookupError, match=f"^stream {min(failing)}$"):
            sample_copula(GumbelHougaard(2.0, 3), cfg)

    def test_isf_failure_on_a_worker_reaches_the_caller(self, monkeypatch):
        isf = Exponential.isf

        def failing(self, v):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("isf failed off the main thread")
            return isf(self, v)

        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        monkeypatch.setattr(Exponential, "isf", failing)
        with pytest.raises(FloatingPointError, match="^isf failed off the main thread$"):
            simulate_system(Structure.series(3), FGM(0.5), Exponential(1.0), SimConfig(sample_count=1000, seed=2))

    def test_callers_errstate_holds_on_every_stream(self, monkeypatch):
        seen = []
        isf = Exponential.isf

        def recording(self, v):
            seen.append((threading.get_ident(), np.geterr()))
            return isf(self, v)

        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
        monkeypatch.setattr(Exponential, "isf", recording)
        with np.errstate(all="raise"):
            simulate_system(Structure.series(3), Independence(3), Exponential(1.0), SimConfig(sample_count=1000, seed=2))
        # the x-grid and the two streams the caller runs, and the two its worker runs
        assert len(seen) == 5 and len({ident for ident, _ in seen}) == 2
        assert all(state == dict.fromkeys(("divide", "over", "under", "invalid"), "raise") for _, state in seen)


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
