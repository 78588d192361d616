import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from mpmath import mp, mpf

from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate
from coherent_age.systems import Distortion, Structure, SystemModel, build_distortion, k_of_n_paths

GRID = np.linspace(0.0, 1.0, 1001)
OPEN_GRID = np.linspace(1e-3, 1.0 - 1e-3, 1001)


def fgm_pair_series(theta):
    """min{X1, max{X2, X3}} under the trivariate FGM copula."""
    return build_distortion(Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(theta=theta))


def kofn(k, n):
    return build_distortion(k_of_n_paths(k, n), Independence(n))


def exact_reference(structure, p):
    """h, 1-h and h' at p with independent components, in exact rationals.

    Enumerates all 2^n component states, so it shares nothing with the
    engine's coefficients or weights.
    """
    n = structure.n
    p = Fraction(p)
    q = 1 - p
    h = omh = dh = Fraction(0)
    for size in range(n + 1):
        term = p**size * q ** (n - size)
        dterm = size * p ** (size - 1) * q ** (n - size) - (n - size) * p**size * q ** (n - size - 1)
        for state in combinations(range(1, n + 1), size):
            if any(path <= set(state) for path in structure.paths):
                h += term
                dh += dterm
            else:
                omh += term
    return h, omh, dh


REFERENCE_STRUCTURES = {
    "parallel5": Structure.parallel(5),
    "parallel8": Structure.parallel(8),
    "bridge": Structure.from_paths(5, [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]]),
    "two-of-four": k_of_n_paths(2, 4),
    "three-of-six": k_of_n_paths(3, 6),
}


def subfamily_coefficients(structure):
    """Inclusion-exclusion coefficients by walking all 2^r - 1 nonempty
    subfamilies of path sets: subfamily S adds (-1)^(|S|+1) at |union S|."""
    masks = [sum(1 << (i - 1) for i in path) for path in structure.paths]
    r = len(masks)
    unions = [0] * (1 << r)
    coeffs = {}
    for s in range(1, 1 << r):
        low = (s & -s).bit_length() - 1
        unions[s] = unions[s & (s - 1)] | masks[low]
        size = unions[s].bit_count()
        coeffs[size] = coeffs.get(size, 0) + (1 if s.bit_count() & 1 else -1)
    return tuple(sorted((j, c) for j, c in coeffs.items() if c != 0))


def random_minimal_structure(rng, n, max_paths):
    # path sizes w or w+1 keep many candidates mutually non-nested
    while True:
        w = int(rng.integers(1, max(n - 1, 1) + 1))
        cand = set()
        for _ in range(int(rng.integers(max_paths // 2, max_paths + 1))):
            size = min(n, w + int(rng.integers(0, 2)))
            cand.add(frozenset(int(i) for i in rng.choice(np.arange(1, n + 1), size=size, replace=False)))
        minimal = [a for a in cand if not any(b < a for b in cand)]
        if set().union(*minimal) == set(range(1, n + 1)):
            return Structure.from_paths(n, minimal)


def coefficient_copulas(n):
    copulas = [Independence(n), GumbelHougaard(1.7, n), ClaytonOakes(0.9, n)]
    return copulas + [FGM(0.5)] if n == 3 else copulas


class TestStructure:
    def test_series_and_parallel(self):
        assert Structure.series(3).paths == (frozenset({1, 2, 3}),)
        assert len(Structure.parallel(4).paths) == 4

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError, match="minimal"):
            Structure.from_paths(2, [[1], [1, 2]])

    def test_non_minimal_with_common_part_rejected(self):
        # {1, 2} is the common part, so the smaller path set is the table's empty set
        with pytest.raises(ValueError, match="minimal"):
            Structure.from_paths(3, [[1, 2], [1, 2, 3]])

    def test_series_keeps_its_counts(self):
        # one path set: every component is common, and the table has one entry
        assert Structure.series(400).counts == (0,) * 400 + (1,)
        assert build_distortion(Structure.series(400), Independence(400)).coeffs == ((400, 1),)

    def test_uncovered_component_rejected(self):
        with pytest.raises(ValueError, match="no path set"):
            Structure.from_paths(3, [[1, 2]])

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Structure.from_paths(2, [[1, 3], [2]])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Structure.from_paths(2, [[], [1, 2]])

    def test_duplicate_path_rejected(self):
        with pytest.raises(ValueError):
            Structure(2, (frozenset({1, 2}), frozenset({1, 2})))


class TestBuildDistortion:
    def test_series_independent_is_cube(self):
        d = build_distortion(Structure.series(3), Independence(3))
        np.testing.assert_allclose(d.h(GRID), GRID**3, atol=1e-15)

    def test_fgm_pair_series_polynomial(self):
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            d = fgm_pair_series(theta)
            target = 2 * GRID**2 - GRID**3 - theta * GRID**3 * (1 - GRID) ** 3
            np.testing.assert_allclose(d.h(GRID), target, atol=1e-13)

    def test_two_of_three_independent(self):
        d = build_distortion(k_of_n_paths(2, 3), Independence(3))
        np.testing.assert_allclose(d.h(GRID), 3 * GRID**2 - 2 * GRID**3, atol=1e-14)

    def test_gumbel_series_power(self):
        for m, theta in ((3, 2.0), (4, 1.5)):
            d = build_distortion(Structure.series(m), GumbelHougaard(theta, m))
            np.testing.assert_allclose(d.h(GRID), GRID ** (m ** (1.0 / theta)), atol=1e-14)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(5)
        dense = np.linspace(0.0, 1.0, 10_001)
        copulas = [Independence(3), FGM(0.8), GumbelHougaard(1.7, 3), ClaytonOakes(0.9, 3)]
        structures = [
            Structure.series(3),
            Structure.parallel(3),
            k_of_n_paths(2, 3),
            Structure.from_paths(3, [[1, 2], [1, 3]]),
            Structure.from_paths(3, [[1], [2, 3]]),
        ]
        for s in structures:
            for c in copulas:
                d = build_distortion(s, c)
                assert d.h(0.0) == 0.0
                assert d.h(1.0) == pytest.approx(1.0, abs=1e-12)
                h = d.h(dense)
                assert np.all(np.diff(h) >= -1e-12)
                p = rng.uniform(0.05, 0.95)
                assert d.one_minus_h(p) == pytest.approx(1.0 - d.h(p), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_distortion(Structure.series(3), Independence(4))

    @pytest.mark.parametrize("counts", [(0, 2), (1, 2, 1), (0, 2, 2), ()], ids=["short", "n0", "nn", "empty"])
    def test_counts_need_the_copula_dimension_and_both_ends(self, counts):
        with pytest.raises(ValueError, match="counts must run from N_0 = 0 to N_2 = 1"):
            Distortion(Independence(2), counts)
        # parallel(2): h = 2p - p^2
        assert Distortion(Independence(2), (0, 2, 1)).coeffs == ((1, 2), (2, -1))

    def test_too_many_path_sets_refused(self):
        with pytest.raises(ValueError, match="21 components outside the common part"):
            build_distortion(Structure.parallel(21), Independence(21))

    def test_parallel20_builds_in_small_memory(self):
        tracemalloc.start()
        try:
            d = build_distortion(Structure.parallel(20), Independence(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert d.coeffs == tuple((j, (-1) ** (j - 1) * math.comb(20, j)) for j in range(1, 21))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_k_of_n_closed_form(self, n):
        # N_j = C(n, j) for j >= k gives c_j = (-1)^(j-k) C(j-1, k-1) C(n, j)
        for k in range(1, n + 1):
            structure = k_of_n_paths(k, n)
            assert structure.counts == tuple(math.comb(n, j) if j >= k else 0 for j in range(n + 1))
            want = tuple((j, (-1) ** (j - k) * math.comb(j - 1, k - 1) * math.comb(n, j)) for j in range(k, n + 1))
            assert build_distortion(structure, Independence(n)).coeffs == want, (k, n)


class TestCoefficientReference:
    """build_distortion's coefficients equal the subfamily walk's exactly."""

    @staticmethod
    def check(structure):
        expected = subfamily_coefficients(structure)
        for copula in coefficient_copulas(structure.n):
            assert build_distortion(structure, copula).coeffs == expected, (structure.paths, copula)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_k_of_n(self, n):
        for k in range(1, n + 1):
            self.check(k_of_n_paths(k, n))

    @pytest.mark.parametrize("name", sorted(REFERENCE_STRUCTURES))
    def test_reference_structures(self, name):
        self.check(REFERENCE_STRUCTURES[name])

    def test_random_minimal_structures(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            self.check(random_minimal_structure(rng, int(rng.integers(1, 9)), 12))


class TestExactReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_STRUCTURES))
    def test_independent_functionals_match_state_enumeration(self, name):
        structure = REFERENCE_STRUCTURES[name]
        d = build_distortion(structure, Independence(structure.n))
        for p in (0.5, 0.99, 0.999, 1.0 - 1e-6):
            ref = exact_reference(structure, p)
            got = (d.h(p), d.one_minus_h(p), d.h_prime(p))
            for label, value, exact in zip(("h", "1-h", "h'"), got, ref):
                rel = abs(Fraction(value) - exact) / exact
                assert rel <= 1e-13, (name, p, label, float(rel))


class TestKofN:
    def test_series_and_parallel_forms(self):
        np.testing.assert_allclose(kofn(4, 4).h(GRID), GRID**4, atol=1e-15)
        np.testing.assert_allclose(kofn(1, 4).h(GRID), 1 - (1 - GRID) ** 4, atol=1e-15)

    def test_two_of_three(self):
        np.testing.assert_allclose(kofn(2, 3).h(GRID), 3 * GRID**2 - 2 * GRID**3, atol=1e-15)

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (1, 3), (2, 4), (3, 5), (3, 6)])
    def test_matches_inclusion_exclusion(self, k, n):
        # the Bernstein form reproduces the signed inclusion-exclusion
        # polynomial sum_j c_j p^j, and both equal the exact state sum
        d = kofn(k, n)
        signed = sum(c * GRID**j for j, c in d.coeffs)
        np.testing.assert_allclose(d.h(GRID), signed, atol=1e-12)
        for p in (0.25, 0.5, 0.999):
            h, omh, dh = exact_reference(k_of_n_paths(k, n), p)
            assert d.h(p) == pytest.approx(float(h), rel=1e-14)
            assert d.one_minus_h(p) == pytest.approx(float(omh), rel=1e-14)
            assert d.h_prime(p) == pytest.approx(float(dh), rel=1e-14)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            k_of_n_paths(0, 3)
        with pytest.raises(ValueError):
            k_of_n_paths(4, 3)

    def test_parallel_reversed_elasticity_is_constant(self):
        # (1-p) h'/(1-h) for the parallel system is identically n; this dies
        # by cancellation unless 1-h and h' are sums of nonnegative terms
        p = np.linspace(1e-3, 1 - 1e-3, 501)
        for n in (6, 8):
            d = build_distortion(Structure.parallel(n), Independence(n))
            np.testing.assert_allclose(d.R(p), float(n), rtol=1e-10, err_msg=f"n={n}")


class TestEvaluation:
    def test_cube_values(self):
        d = build_distortion(Structure.series(3), Independence(3))
        assert d.h(0.5) == pytest.approx(0.125, abs=1e-15)
        assert d.h_prime(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_fgm_hand_value(self):
        d = fgm_pair_series(1.0)
        assert d.h(0.5) == pytest.approx(0.359375, abs=1e-15)

    def test_gumbel_derivative_power_rule(self):
        d = build_distortion(Structure.series(3), GumbelHougaard(2.0, 3))
        a = 3.0**0.5
        assert d.h_prime(0.25) == pytest.approx(a * 0.25 ** (a - 1.0), rel=1e-13)

    def test_finite_difference_fallback_agrees(self):
        step = 1e-6
        for d in (fgm_pair_series(0.6), build_distortion(k_of_n_paths(2, 3), ClaytonOakes(1.2, 3))):
            p = np.linspace(0.05, 0.95, 37)
            closed = np.asarray(d.h_prime(p))
            fd = (np.asarray(d.h(p + step)) - np.asarray(d.h(p - step))) / (2 * step)
            np.testing.assert_allclose(fd, closed, rtol=1e-7, atol=1e-7)

    def test_domain_validation(self):
        d = fgm_pair_series(0.3)
        with pytest.raises(ValueError):
            d.h(1.2)
        with pytest.raises(ValueError):
            d.h_prime(0.0)


class TestElasticities:
    def test_cube_has_constant_hazard_elasticity(self):
        d = build_distortion(Structure.series(3), Independence(3))
        p = np.linspace(1e-4, 1 - 1e-4, 101)
        np.testing.assert_allclose(d.H(p), 3.0, rtol=1e-12)

    def test_gumbel_reversed_elasticity_formula(self):
        theta, m = 2.0, 4
        a = m ** (1.0 / theta)
        d = build_distortion(Structure.series(m), GumbelHougaard(theta, m))
        p = np.linspace(1e-3, 1 - 1e-3, 301)
        expected = a * (1 - p) * p ** (a - 1) / (1 - p**a)
        np.testing.assert_allclose(d.R(p), expected, rtol=1e-11)

    def test_fgm_ratio_limits(self):
        d1 = fgm_pair_series(1.0)
        d2 = build_distortion(Structure.series(3), Independence(3))
        # rational-function endpoints: 4/6 at p -> 0, 1/3 at p -> 1
        assert d1.H(1e-8) / d2.H(1e-8) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert d1.H(1 - 1e-8) / d2.H(1 - 1e-8) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_flagged_indeterminate_on_underflow(self):
        # h(p) = p^400 underflows beyond double range at the clamp point
        d = build_distortion(Structure.series(400), GumbelHougaard(1.0, 400))
        assert math.isnan(d.H(1e-9))

    def test_elasticity_derivatives_match_analytic(self):
        # for h = p^a: (1-p) H'/H = 0 and p R'/R has a closed form
        theta, m = 2.0, 4
        a = m ** (1.0 / theta)
        d = build_distortion(Structure.series(m), GumbelHougaard(theta, m))
        p = np.linspace(0.05, 0.95, 61)
        np.testing.assert_allclose((1 - p) * d.H_prime(p) / d.H(p), 0.0, atol=1e-9)
        expected = (a - 1 - a * p + p**a) / (1 - p - p**a + p ** (a + 1))
        np.testing.assert_allclose(p * d.R_prime(p) / d.R(p), expected, rtol=1e-10)

    @pytest.mark.parametrize("k, n", [(1, 1), (1, 4), (2, 4), (4, 4), (3, 6)])
    def test_bernstein_second_derivative_matches_signed_sum(self, k, n):
        # Gumbel theta = 1 is independence through the signed sum of p^j
        p = np.linspace(0.05, 0.95, 19)
        bern = build_distortion(k_of_n_paths(k, n), Independence(n))
        signed = build_distortion(k_of_n_paths(k, n), GumbelHougaard(1.0, n))
        np.testing.assert_allclose(bern._evaluate(p, 3), signed._evaluate(p, 3), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("kind", ["H", "R"])
    def test_profile_matches_the_public_functionals(self, kind):
        d = build_distortion(k_of_n_paths(2, 4), GumbelHougaard(1.5, 4))
        p = np.linspace(0.0, 1.0, 101)  # the endpoints clamp like H and R
        value, slope = d.elasticity_profile(p, kind)
        np.testing.assert_array_equal(value, getattr(d, kind)(p))
        pc = np.clip(p, 1e-9, 1 - 1e-9)
        weight = 1 - pc if kind == "H" else pc
        np.testing.assert_allclose(slope, weight * getattr(d, f"{kind}_prime")(pc) / value, rtol=1e-13)
        with pytest.raises(ValueError, match="kind must be"):
            d.elasticity_profile(p, "h")

    @pytest.mark.parametrize(
        "structure, copula, p",
        [(Structure.parallel(5), Independence(5), 0.999), (k_of_n_paths(2, 4), GumbelHougaard(1.5, 4), 0.001)],
        ids=["parallel5-independence-0.999", "2of4-gumbel1.5-0.001"],
    )
    def test_elasticity_derivatives_match_50_digit_reference(self, structure, copula, p):
        # H' and R' against mpmath's derivatives of H and R, built from the
        # exact K_j = p^(j^(1/theta)) (theta = 1 is independence)
        d = build_distortion(structure, copula)
        with mp.workdps(50):
            theta = mpf(getattr(copula, "theta", 1))

            def h(t):
                return sum(c * t ** (mpf(j) ** (1 / theta)) for j, c in d.coeffs)

            def H(t):
                return t * mp.diff(h, t) / h(t)

            def R(t):
                return (1 - t) * mp.diff(h, t) / (1 - h(t))

            want_h, want_r = (float(mp.diff(f, mpf(p))) for f in (H, R))
        assert d.H_prime(p) == pytest.approx(want_h, rel=1e-10)
        if abs(want_r) > 1e-30:
            assert d.R_prime(p) == pytest.approx(want_r, rel=1e-10)
        else:
            # parallel(n) under independence: R = n, so R' = 0 (mpmath reads
            # 1e-45) against terms of order n/(1-p)
            assert d.R_prime(p) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "p", [1.5, -0.3, [0.5, 1.5], [-0.3, 0.5]], ids=["1.5", "-0.3", "array-1.5", "array--0.3"]
    )
    @pytest.mark.parametrize("func", ["H", "R"])
    def test_elasticity_rejects_argument_outside_unit_interval(self, func, p):
        # H and R follow h's [0, 1] rule before clamping to the open interval
        d = build_distortion(Structure.parallel(3), Independence(3))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            getattr(d, func)(p)

    def test_elasticity_clamps_unit_interval_endpoints(self):
        d = build_distortion(Structure.parallel(3), Independence(3))
        assert d.H(0.0) == d.H(1e-9) and d.H(1.0) == d.H(1.0 - 1e-9)
        assert d.R(0.0) == d.R(1e-9) and d.R(1.0) == d.R(1.0 - 1e-9)


class TestSystemModel:
    def test_survival_composition(self):
        sysm = SystemModel(Structure.series(3), Independence(3), Exponential(1.0))
        x = np.linspace(0.1, 3.0, 7)
        survival = sysm.distortion.h(sysm.margin.sf(x))
        np.testing.assert_allclose(survival, np.exp(-3.0 * x), rtol=1e-13)
        np.testing.assert_allclose(sysm.cum_hazard(x), 3.0 * x, rtol=1e-13)

    def test_cum_hazard_accurate_deep_in_tail(self):
        sysm = SystemModel(Structure.series(3), Independence(3), LinearFailureRate(2.0, 1.0))
        # -ln h(sf(x)) = 3 * 2 * (x + x^2), exact closed form to compare against
        for x in (0.01, 0.5, 2.0, 4.0):
            assert sysm.cum_hazard(x) == pytest.approx(6.0 * (x + x * x), rel=1e-11)

    def test_cum_rev_hazard_matches_definition(self):
        sysm = SystemModel(Structure.parallel(2), Independence(2), Exponential(1.0))
        x = np.linspace(0.05, 4.0, 9)
        target = -np.log1p(-np.asarray(sysm.distortion.h(sysm.margin.sf(x))))
        np.testing.assert_allclose(sysm.cum_rev_hazard(x), target, rtol=1e-10)

    def test_k_of_n_constructor_uses_binomial_tails(self):
        sysm = SystemModel(k_of_n_paths(2, 4), Independence(4), Exponential(2.0))
        assert sysm.distortion == build_distortion(sysm.structure, sysm.copula)
        for p in (0.3, 0.999):
            q = 1.0 - p
            assert sysm.distortion.h(p) == pytest.approx(
                sum(math.comb(4, j) * p**j * q ** (4 - j) for j in range(2, 5)), rel=1e-14
            )
            assert sysm.distortion.one_minus_h(p) == pytest.approx(q**4 + 4 * p * q**3, rel=1e-14)
        # the distortion always comes from the structure and copula
        with pytest.raises(TypeError):
            SystemModel(k_of_n_paths(2, 4), Independence(4), Exponential(2.0), sysm.distortion)
