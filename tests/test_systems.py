import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from mpmath import mp, mpf

from coherent_age.copulas import _CLAYTON_LOG_CUTOFF, _FLOATS, ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull, _minus_log_cdf
from coherent_age import systems
from coherent_age.systems import (
    MAX_COMPONENTS, Distortion, Structure, SystemModel, _members, build_distortion, k_of_n_paths,
)
from coherent_age.orders import MAX_SKIP_FRACTION, RULES, Grid, OrderVerdict, verdict
from corpus_helpers import audit_distortions, exact_exch, golden_corpus

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
    engine's coefficients or weights.  A state works when it holds a path
    set, a mask with bit i-1 for component i.
    """
    n = structure.n
    p = Fraction(p)
    q = 1 - p
    h = omh = dh = Fraction(0)
    for size in range(n + 1):
        term = p**size * q ** (n - size)
        dterm = size * p ** (size - 1) * q ** (n - size) - (n - size) * p**size * q ** (n - size - 1)
        for state in combinations(range(1, n + 1), size):
            up = sum(1 << (i - 1) for i in state)
            if any(path & ~up == 0 for path in structure.paths):
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
    masks = structure.paths
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
        # bit i-1 stands for component i
        assert Structure.series(3).paths == (0b111,)
        assert Structure.parallel(4).paths == (0b0001, 0b0010, 0b0100, 0b1000)

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError, match="minimal"):
            Structure.from_paths(2, [[1], [1, 2]])

    def test_non_minimal_with_common_part_rejected(self):
        # {1, 2} is the common part, so the smaller path set is the table's empty set
        with pytest.raises(ValueError, match="minimal"):
            Structure.from_paths(3, [[1, 2], [1, 2, 3]])

    @pytest.mark.parametrize("n, free", [
        (6, [1, 2, 3, 4, 5]),
        (6, [0, 1, 2, 3, 4]),
        (70, [3, 40, 63, 64, 69]),
    ], ids=["common-low-bit", "common-high-bit", "wider-than-64-bits"])
    def test_common_part_keeps_the_free_structure_counts(self, n, free):
        # the bridge on the free components, every other component common to all paths
        bridge = Structure.from_paths(5, [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]])
        common = sum(1 << i for i in range(n) if i not in free)
        paths = [common | sum(1 << c for j, c in enumerate(free) if path >> j & 1) for path in bridge.paths]
        assert Structure(n, tuple(paths)).counts == (0,) * (n - 5) + bridge.counts
        nested = _members(paths[0] | 1 << free[2])
        with pytest.raises(ValueError) as info:
            Structure(n, tuple(paths) + (paths[0] | 1 << free[2],))
        assert str(info.value) == (f"path {_members(paths[0])} is contained in {nested}; "
                                   f"path sets must be minimal")

    @pytest.mark.parametrize("label", [1.7, "1", True], ids=["fraction", "string", "bool"])
    def test_path_label_must_be_an_integer(self, label):
        # a label read by int() would build component 1
        with pytest.raises(ValueError, match="path label must be"):
            Structure.from_paths(3, [[label, 2], [3]])

    def test_integral_labels_and_counts_read_as_integers(self):
        # the spec rule for integers: 3.0 reads as 3, a numpy integer as its value
        structure = Structure.from_paths(3.0, [[np.int64(1), 2.0], [3]])
        assert structure == Structure.from_paths(3, [[1, 2], [3]])
        assert type(structure.n) is int
        assert type(Structure(3.0, (7,)).n) is int

    @pytest.mark.parametrize("n", [3.5, "3", True], ids=["fraction", "string", "bool"])
    def test_component_count_must_be_an_integer(self, n):
        # 3.5 ended in a bare TypeError from >>
        with pytest.raises(ValueError, match="component count must be"):
            Structure(n, (1,))
        with pytest.raises(ValueError, match="component count must be"):
            Structure.from_paths(n, [[1]])

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
            Structure(2, (0b11, 0b11))

    @pytest.mark.parametrize("n, paths, message", [
        (2, [[3, 1], [2]], "path [1, 3] uses components outside 1..2"),
        (2, [[2], [1, 0]], "path [0, 1] uses components outside 1..2"),
        (3, [[2, 1], [3], [1, 2]], "duplicate path set [1, 2]"),
        (4, [[3, 2, 1], [4, 3], [2, 1]], "path [1, 2] is contained in [1, 2, 3]; path sets must be minimal"),
        (5, [[2, 1], [3, 2]], "components [4, 5] appear in no path set (not coherent)"),
    ], ids=["above-n", "component-0", "duplicate", "nested", "uncovered"])
    def test_errors_name_path_sets_as_sorted_components(self, n, paths, message):
        with pytest.raises(ValueError) as info:
            Structure.from_paths(n, paths)
        assert str(info.value) == message

    def test_repeated_component_counts_once(self):
        once = Structure.from_paths(3, [[1, 2], [3]])
        assert Structure.from_paths(3, [[1, 1, 2], [3]]) == once
        assert Structure.from_paths(3, [[1, 1, 2], [3]]).counts == once.counts

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_canonical_path_order(self, n):
        # a lexicographic walk of the k-subsets is not increasing as masks
        # (2-of-4 gives 3, 5, 9, 6), so every constructor sorts the same way
        for k in range(1, n + 1):
            subsets = list(combinations(range(1, n + 1), k))
            assert Structure.from_paths(n, subsets) == k_of_n_paths(k, n)
            assert Structure.from_paths(n, subsets[::-1]) == k_of_n_paths(k, n)
        assert Structure.from_paths(n, [range(1, n + 1)]) == Structure.series(n) == k_of_n_paths(n, n)
        assert Structure.from_paths(n, [[i] for i in range(n, 0, -1)]) == Structure.parallel(n) == k_of_n_paths(1, n)

    @pytest.mark.parametrize("k, n", [(1, 21), (2, 64)])
    def test_k_of_n_past_max_components_refused(self, monkeypatch, k, n):
        widths = []
        popcounts = systems._popcounts
        monkeypatch.setattr(systems, "_popcounts", lambda m: widths.append(m) or popcounts(m))
        with pytest.raises(ValueError) as info:
            k_of_n_paths(k, n)
        assert str(info.value) == (f"structure has {n} components outside the common part "
                                   f"of its path sets; refusing more than {MAX_COMPONENTS}")
        assert all(m <= MAX_COMPONENTS for m in widths)

    def test_k_of_n_with_k_equal_n_is_series_at_large_n(self):
        assert k_of_n_paths(400, 400) == Structure.series(400)


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
        # 2.5 was reported as a structure without path sets, True built parallel(3)
        for k, n, match in [(0, 3, "need 1 <= k <= n"), (4, 3, "need 1 <= k <= n"),
                            (2.5, 3, "k must be an integer"), (True, 3, "k must be a number"),
                            (2, 3.5, "n must be an integer"), (2, "3", "n must be a number")]:
            with pytest.raises(ValueError, match=match):
                k_of_n_paths(k, n)
        assert k_of_n_paths(2.0, 3.0) == k_of_n_paths(2, 3)

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


# the levels a system grid solves for: 1 - h(p) = Q_LO and h(p) = 1 - Q_HI
LEVELS = (0.001, 0.999)


def level_errors(d, want):
    """|p - want| of both reliabilities from d._levels, in units of 2^-52
    times want at the p -> 0 end and times max(want, 1 - want) at the
    p -> 1 end, where p = 1 - (1-p) cannot be nearer than half an ulp of p."""
    got = d._levels(*LEVELS)
    scales = (max(want[0], 1 - want[0]), want[1])
    return [float(abs(mpf(g) - w) / (2.0**-52 * scale)) for g, w, scale in zip(got, want, scales)]


def exact_levels(d, guess):
    """The 50-digit roots of 1 - h(p) = Q_LO and h(p) = 1 - Q_HI near guess,
    h = sum_j c_j K_j from each family's closed form."""
    def h(p):
        return sum(c * exact_exch(d.copula, p, j)[0] for j, c in d.coeffs)

    q_lo, level = mpf(LEVELS[0]), mpf(1.0 - LEVELS[1])
    with mp.workdps(50):
        # the first solved for 1-p, which keeps its digits near p = 1
        tail = mp.findroot(lambda t: 1 - h(1 - t) - q_lo, mpf(1.0 - guess[0]))
        return 1 - tail, mp.findroot(lambda p: h(p) - level, mpf(guess[1]))


def level_rounds(d, monkeypatch, slope_scale=1.0):
    """Patch the evaluation d._levels runs, the float Bernstein sum under the
    independence law and the copula's signed sum otherwise, to record
    which function each call reads (0 h, 1 1-h, 2 h') and scale h' by
    slope_scale; the record is returned."""
    evaluations = []
    if d._bernstein is not None:
        evaluate = systems._bernstein_float

        def patched(p, weights):
            which = next(i for i, w in enumerate(d._bernstein) if w is weights)
            evaluations.append(which)
            return evaluate(p, weights) * (slope_scale if which == 2 else 1.0)

        monkeypatch.setattr(systems, "_bernstein_float", patched)
    else:
        evaluate = type(d.copula)._sum

        def patched(self, p, coeffs, which, xp):
            evaluations.append(which)
            return evaluate(self, p, coeffs, which, xp) * (slope_scale if which == 2 else 1.0)

        monkeypatch.setattr(type(d.copula), "_sum", patched)
    return evaluations


def reference_levels(d, q_lo, q_hi):
    """Distortion._levels as it ran before its rounds took Python floats:
    each evaluation is the Bernstein sum, or the copula's signed sum, on a
    0-d array, whose 1 - p is a numpy scalar."""
    out = []
    for level, upper in ((q_lo, True), (1.0 - q_hi, False)):
        def evaluable(v):
            return 1.0 - (1.0 - v) if upper else v

        lo, hi, x = (2.0**-53 if upper else math.ulp(0.0)), 1.0, 0.5
        while True:
            pa = np.array(1.0 - x if upper else x)
            value, d1 = (float(systems._bernstein_sum(pa, d._bernstein[which]) if d._bernstein is not None else
                               d.copula._sum(pa, d.coeffs, which)) for which in (int(upper), 2))
            lo, hi = (x, hi) if value < level else (lo, x)
            step = math.log(level / value) * value / (x * d1) if value > 0.0 and x * d1 > 0.0 else math.inf
            if abs(step) <= 2.0**-26 * abs(math.log(x)):
                x *= math.exp(step)
                break
            newton = evaluable(x * math.exp(step)) if abs(step) < 745.0 else math.nan
            x = newton if lo < newton < hi else evaluable(math.sqrt(lo) * math.sqrt(hi))
            if not lo < x < hi:
                break
        out.append(1.0 - x if upper else x)
    return tuple(out)


class TestLevels:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_series_and_parallel_match_closed_forms(self, n):
        # series: h = p^n (p^(n^(1/2.5)) under Gumbel-Hougaard 2.5);
        # parallel: 1 - h = (1-p)^n
        q_lo, level = mpf(LEVELS[0]), mpf(1.0 - LEVELS[1])
        with mp.workdps(50):
            cases = [(Structure.parallel(n), Independence(n), None)] + [
                (Structure.series(n), copula, power) for copula, power in
                ((Independence(n), mpf(n)), (GumbelHougaard(2.5, n), mpf(n) ** (1 / mpf(2.5))))]
            for structure, copula, power in cases:
                if power is None:
                    want = 1 - q_lo ** (1 / mpf(n)), 1 - (1 - level) ** (1 / mpf(n))
                else:
                    want = (1 - q_lo) ** (1 / power), level ** (1 / power)
                # within 8 units: parallel(19)'s Bernstein h at p = 5e-5 reads
                # q = fl(1-p), whose rounding q^18 amplifies to 6 units
                assert max(level_errors(build_distortion(structure, copula), want)) <= 8

    def test_float_bernstein_sum_within_8_ulps(self):
        # the rounds' _bernstein_float takes libm's powers (Python's **), not
        # numpy's, so it is not the array _bernstein_sum's bits; this pins the
        # gap over every k-out-of-n with n <= 20 (weights from the closed-form
        # counts) and FGM's five structures, which 0-2, random p and both
        # tails of (0, 1)
        rng = np.random.default_rng(76)
        tails = np.exp(-rng.uniform(0.0, 744.0, 40))
        p = np.concatenate((rng.random(120), tails, 1.0 - tails, [0.0, 2.0**-1074, 1.0 - 2.0**-53, 1.0]))
        for n in range(1, 21):
            for k in range(1, n + 1):
                weights = systems._bernstein_weights(tuple(math.comb(n, j) if j >= k else 0 for j in range(n + 1)))
                self.assert_float_sums_within_8_ulps(p, weights, (k, n))
        # and FGM's degree-6 weights, which its level search reads
        for structure in FGM_STRUCTURES.values():
            for theta in (-1.0, -0.5, 0.5, 0.8013132685182651, 1.0):
                self.assert_float_sums_within_8_ulps(p, build_distortion(structure, FGM(theta))._bernstein, theta)

    @staticmethod
    def assert_float_sums_within_8_ulps(p, weights, case):
        for which in range(3):
            want = systems._bernstein_sum(p, weights[which])
            got = np.array([systems._bernstein_float(x, weights[which]) for x in p.tolist()])
            ulps = np.abs(got - want) / np.array([math.ulp(w) for w in want.tolist()])
            assert ulps.max() <= 8, (case, which, p[np.argmax(ulps)])

    @pytest.mark.parametrize("theta", [1.0, -1.0])
    @pytest.mark.parametrize("structure", [Structure.series(3), Structure.from_paths(3, [[1, 2], [1, 3]]),
                                           k_of_n_paths(2, 3), Structure.parallel(3)],
                             ids=["series", "pair-series", "2of3", "parallel"])
    def test_fgm_at_both_ends_of_theta(self, structure, theta):
        # FGM's rounds read its degree-6 Bernstein weights, whose terms of h,
        # 1 - h and h' are nonnegative at both ends, so nothing cancels
        d = build_distortion(structure, FGM(theta))
        got = d._levels(*LEVELS)
        for g, w in zip(got, exact_levels(d, got)):
            assert abs(mpf(g) - w) <= 5e-14 * w

    def test_clayton_parallel8_near_independence(self):
        # theta = 0.05: the signed sum of eight Clayton terms cancels in
        # 1 - h, and p with 1 - h(p) = 0.001 reads 1.1e-14 relative off
        d = build_distortion(Structure.parallel(8), ClaytonOakes(0.05, 8))
        got = d._levels(*LEVELS)
        for g, w in zip(got, exact_levels(d, got)):
            assert abs(mpf(g) - w) <= 5e-14 * w

    def test_rounds_per_distortion(self, monkeypatch):
        # a round evaluates 1-h or h, and h'; Newton in the tail-log coordinates
        # takes 2 rounds per end for n = 1 and at most 3 on this battery
        # (parallel(n) under Gumbel-Hougaard(2) takes up to 9 in all, so only
        # its series(n) is here)
        for n in range(1, 21):
            for structure, copula in ((Structure.series(n), Independence(n)), (Structure.parallel(n), Independence(n)),
                                      (Structure.series(n), GumbelHougaard(2.0, n))):
                d = build_distortion(structure, copula)
                evaluations = level_rounds(d, monkeypatch)
                d._levels(*LEVELS)
                monkeypatch.undo()
                rounds = evaluations.count(2)
                assert len(evaluations) == 2 * rounds and 4 <= rounds <= 6

    @pytest.mark.parametrize("d", [build_distortion(s, Independence(s.n)) for s in (
        Structure.series(1), Structure.series(3), Structure.parallel(20), k_of_n_paths(2, 3))] + [
        build_distortion(k_of_n_paths(2, 3), GumbelHougaard(2.0, 3)),
        build_distortion(k_of_n_paths(2, 3), ClaytonOakes(1.5, 3)), fgm_pair_series(0.5)],
        ids=["single", "series3", "parallel20", "2of3", "gumbel2-2of3", "clayton1.5-2of3", "fgm0.5-pair-series"])
    def test_bisection_finishes_when_every_newton_step_leaves_its_bracket(self, d, monkeypatch):
        # h' scaled by 2^-1000 makes every slope tiny, so every Newton step
        # leaves its bracket; halving ln x from widths 37 and 744 until no
        # float p lies strictly inside takes 98-116 rounds for both ends here
        rounds = level_rounds(d, monkeypatch, slope_scale=2.0**-1000)
        p_lo, p_hi = d._levels(*LEVELS)
        assert 80 <= rounds.count(2) <= 128
        monkeypatch.undo()
        # each level lies within 2 floats of its reliability
        (lo_down, lo_up), (hi_down, hi_up) = (
            (np.array([p, p]).view(np.int64) + [-2, 2]).view(np.float64) for p in (p_lo, p_hi))
        assert d.one_minus_h(lo_up) <= LEVELS[0] <= d.one_minus_h(lo_down)
        assert d.h(hi_down) <= 1.0 - LEVELS[1] <= d.h(hi_up)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_float_rounds_match_the_zero_d_reference(self, n):
        # every k-out-of-n, series and parallel among them, under the three
        # forms of the independence law: 846 levels, of which the float rounds
        # move the h = 0.001 level of 4-of-16 (1 ulp), 5-of-17 (2) and 6-of-20
        # (1), where libm's p^k differs from numpy's 0-d power kernel
        counts = [tuple(math.comb(n, j) if j >= k else 0 for j in range(n + 1)) for k in range(1, n + 1)]
        copulas = [Independence(n), GumbelHougaard(1.0, n)] + ([FGM(0.0)] if n == 3 else [])
        for copula in copulas:
            for kofn_counts in counts:
                d = Distortion(copula, kofn_counts)
                assert d._bernstein is not None
                got, want = np.array(d._levels(*LEVELS)), np.array(reference_levels(d, *LEVELS))
                assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= 2), (copula, kofn_counts)

    @pytest.mark.parametrize("seed", [1, 2, 3, 8])
    def test_dependent_levels_match_the_zero_d_reference(self, seed):
        # every level of the benchmark's verify-audit rounds that the signed
        # sum gives (Gumbel-Hougaard and Clayton-Oakes): the float rounds give
        # the bits of the 0-d search, whose evaluations were numpy's kernels
        # on a 0-d array
        moved = []
        for d in audit_distortions(seed):
            if d._bernstein is None:
                got, want = d._levels(*LEVELS), reference_levels(d, *LEVELS)
                moved += [(d, w, g) for g, w in zip(got, want) if g != w]
        assert moved == []


FGM_STRUCTURES = {
    "series": Structure.series(3),
    "pair-series": Structure.from_paths(3, [[1, 2], [1, 3]]),
    "2of3": k_of_n_paths(2, 3),
    "parallel": Structure.parallel(3),
    "single-or-pair": Structure.from_paths(3, [[1], [2, 3]]),
}


def fgm_exact(d, t):
    """h, 1-h, h' and h'' at an mpmath point t from FGM's definition:
    K_j = t^j for j < 3 and K_3 = t^3 (1 + theta (1-t)^3), summed over the
    distortion's signed coefficients, so it shares nothing with the weights."""
    theta, s = mpf(d.copula.theta), 1 - t
    k = {1: (t, 1, 0), 2: (t**2, 2 * t, 2),
         3: (t**3 * (1 + theta * s**3), 3 * t**2 + theta * (3 * t**2 * s**3 - 3 * t**3 * s**2),
             6 * t + theta * (6 * t * s**3 - 18 * t**2 * s**2 + 6 * t**3 * s))}
    h, d1, d2 = (sum(c * k[j][i] for j, c in d.coeffs) for i in range(3))
    return h, 1 - h, d1, d2


class TestFgmBernsteinForm:
    """FGM's h is a degree-6 polynomial, evaluated from Bernstein weights."""

    # the non-dyadic thetas round in the weights: 1 - theta is the weight of
    # parallel(3)'s 1 - h at k = 3, the leading one near p = 1
    THETAS = [-1.0, -0.5, -0.3, 0.5, 0.99, 1.0]

    @pytest.mark.parametrize("structure", FGM_STRUCTURES.values(), ids=FGM_STRUCTURES.keys())
    def test_weights_of_h_its_complement_and_slope_are_nonnegative(self, structure):
        # the weights are linear in theta, so both ends cover [-1, 1]
        for theta in (-1.0, 1.0):
            weights = build_distortion(structure, FGM(theta))._bernstein
            assert all(min(weights[which]) >= 0.0 for which in range(3)), theta

    @pytest.mark.parametrize("structure", FGM_STRUCTURES.values(), ids=FGM_STRUCTURES.keys())
    def test_within_8_units_of_the_80_digit_reference(self, structure):
        # 600 uniform points and 250 log-uniform down to 1e-14 from each end;
        # errors in units of 2^-53 of the value, and for h'', which changes
        # sign, of the sum of its terms' magnitudes
        rng = np.random.default_rng(41)
        tails = np.exp(-rng.uniform(0.0, math.log(1e14), (2, 250)))
        p = np.concatenate((rng.uniform(0.0, 1.0, 600), tails[0], 1.0 - tails[1]))
        for theta in self.THETAS:
            d = build_distortion(structure, FGM(theta))
            got = [d._evaluate(p, which) for which in range(4)]
            magnitude = systems._bernstein_sum(p, tuple(abs(w) for w in d._bernstein[3]))
            with mp.workdps(80):
                for i, x in enumerate(p.tolist()):
                    exact = fgm_exact(d, mpf(x))
                    for which, want in enumerate(exact):
                        scale = abs(want) if which < 3 else mpf(magnitude[i])
                        units = abs(mpf(got[which][i]) - want) / (scale * mpf(2) ** -53)
                        assert units <= 8, (theta, which, x, float(units))


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


# each family, the independence law in its three forms among them
SCALAR_CASES = {
    "independence-3of6": (k_of_n_paths(3, 6), Independence(6)),
    "gumbel1-3of6": (k_of_n_paths(3, 6), GumbelHougaard(1.0, 6)),
    "fgm0-2of3": (k_of_n_paths(2, 3), FGM(0.0)),
    "fgm0.5-2of3": (k_of_n_paths(2, 3), FGM(0.5)),
    "fgm-1-pair-series": (Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(-1.0)),
    "gumbel2-3of6": (k_of_n_paths(3, 6), GumbelHougaard(2.0, 6)),
    "clayton-3of6": (k_of_n_paths(3, 6), ClaytonOakes(1.5, 6)),
}


SCALAR_MARGINS = [Exponential(1.3), LinearFailureRate(0.5, 0.3), Weibull(1.7, 2.0)]


def assert_same_bits(array_values, scalar_values):
    np.testing.assert_array_equal(np.asarray(array_values).view(np.int64),
                                  np.array(scalar_values, dtype=float).view(np.int64))


class TestScalarMatchesArray:
    """A scalar call returns the bits of the same point of an array call.

    On a 0-d array 1 - p is a numpy scalar, whose ** is libm's pow, as a
    Python float's is; an array's ** runs numpy's SIMD kernel, which can
    differ in the last ulp (with AVX-512, at about 5% of the points for p^3).
    """

    # random points, and 100 where this machine's array kernel and libm
    # differ for (1-p)^3, if there are such points
    POOL = np.random.default_rng(2026).random(20000)
    P = np.concatenate((POOL[:300], POOL[(1.0 - POOL) ** 3 != [(1.0 - p) ** 3 for p in POOL.tolist()]][:100]))
    X = np.random.default_rng(2027).exponential(2.0, 300)

    @pytest.mark.parametrize("structure,copula", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
    def test_distortion_entries(self, structure, copula):
        d = build_distortion(structure, copula)
        for name in ("h", "one_minus_h", "h_prime", "H", "R", "H_prime", "R_prime"):
            f = getattr(d, name)
            assert_same_bits(f(self.P), [f(float(p)) for p in self.P])
        for kind in ("H", "R"):
            profile = d.elasticity_profile(self.P, kind)
            scalars = [d.elasticity_profile(float(p), kind) for p in self.P]
            for i in (0, 1):
                assert_same_bits(profile[i], [pair[i] for pair in scalars])

    @pytest.mark.parametrize("margin", SCALAR_MARGINS, ids=["exp", "lfr", "weibull"])
    @pytest.mark.parametrize("structure,copula", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
    def test_system_model_entries(self, structure, copula, margin):
        sysm = SystemModel(structure, copula, margin)
        for f in (sysm.cum_hazard, sysm.cum_rev_hazard):
            assert_same_bits(f(self.X), [f(float(x)) for x in self.X])

    @pytest.mark.parametrize("margin", SCALAR_MARGINS, ids=["exp", "lfr", "weibull"])
    def test_margin_entries(self, margin):
        # Weibull's (x/scale)^shape and its isf's t^(1/shape) are the powers here
        for name in ("sf", "cdf", "hazard", "cum_hazard", "cum_rev_hazard"):
            f = getattr(margin, name)
            assert_same_bits(f(self.X), [f(float(x)) for x in self.X])
        assert_same_bits(margin.isf(self.P), [margin.isf(float(p)) for p in self.P])

    @pytest.mark.parametrize("structure,copula", SCALAR_CASES.values(), ids=SCALAR_CASES.keys())
    def test_exch_entries(self, structure, copula):
        # FGM's K_3 and 1 - K_3 read p^3 and (1-p)^3
        for name in ("exch", "exch_deriv", "exch_compl"):
            f = getattr(copula, name)
            for j in range(copula.dim + 1):
                assert_same_bits(f(self.P, j), [f(float(p), j) for p in self.P])


def where_minus_log(value, compl):
    """-ln value from both forms on every point, one kept by np.where."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(value <= 0.5, -np.log(np.maximum(value, 0.0)), -np.log1p(-np.minimum(compl, 1.0)))


def where_cum_hazards(system, x):
    """Both system cumulative hazards from h and 1 - h each on every point."""
    sf = np.asarray(system.margin.sf(x), dtype=float)
    h, omh = system.distortion._evaluate(sf, 0), system.distortion._evaluate(sf, 1)
    return where_minus_log(h, omh), where_minus_log(omh, h)


def where_minus_log_cdf(delta):
    """-ln F from both forms on every point, one kept by np.where."""
    with np.errstate(divide="ignore"):
        small = -np.log(-np.expm1(-delta))
        large = -np.log1p(-np.exp(-delta))
        return np.where(delta <= math.log(2.0), small, large)


def scan_verdict(xs, values, rule, tol, relation):
    """verdict with the boolean-index copies and the running-extreme scan on every call."""
    xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    xs, kept = xs[finite], values[finite]
    skipped = finite.size - kept.size
    if kept.size == 0:
        raise ValueError("empty grid after skipping flagged points")
    monotone = rule in ("incr", "decr")
    if skipped > MAX_SKIP_FRACTION * finite.size or (monotone and kept.size < 2):
        return OrderVerdict(relation, "inconclusive", None, np.nan, tol, skipped, kept.size,
                            note="too many points skipped")
    if rule == "incr":
        viol = np.maximum.accumulate(kept)[1:] - kept[1:]
    elif rule == "decr":
        viol = kept[1:] - np.minimum.accumulate(kept)[1:]
    else:
        viol = kept if rule == "nonpositive" else -kept
    idx = int(np.argmax(viol))
    worst = float(viol[idx])
    return OrderVerdict(relation, "yes" if worst <= tol else "no", float(xs[idx + monotone]), worst, tol,
                        skipped, kept.size)


def outcome(f, *args):
    """The repr of f(*args), or the message of the ValueError it raises."""
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# x where sf is 1 (x = 0), where it underflows to 0 or h does (a series of 20
# at sf = e^-50), past every float (inf) and not a number
EDGE_X = np.array([0.0, 1e-300, 50.0, 400.0, 800.0, 1e150, np.inf, np.nan, 1.0, np.nan])


def verdict_values(rng, n=200):
    """Random walks, exact plateaus, signed-zero mixes, each as drawn and sorted both ways."""
    walk = np.cumsum(rng.standard_normal(n))
    plateaus = np.repeat(np.cumsum(rng.standard_normal(n // 10)), 10)
    zeros = rng.choice([0.0, -0.0], n)
    tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9], n)
    steps = np.cumsum(rng.choice([-1.0, 0.0, 0.0, 1.0], n))
    # sorted but for one reversal of an ulp
    dip = np.sort(walk)
    dip[n // 3] = np.nextafter(dip[n // 3 - 1], -np.inf)
    for base in (walk, plateaus, zeros, tiny, steps, dip):
        yield from (base, np.sort(base), np.sort(base)[::-1], -base)


def with_flags(rng, values):
    """values with non-finite points at the ends and in the middle, and with
    skip counts one below, at and one above MAX_SKIP_FRACTION of the points."""
    limit = int(MAX_SKIP_FRACTION * values.size)
    for positions in ([0], [values.size - 1], [values.size // 2], [0, values.size // 2, values.size - 1]):
        for flag in (np.nan, np.inf, -np.inf):
            flagged = values.copy()
            flagged[positions] = flag
            yield flagged
    for count in (limit - 1, limit, limit + 1):
        flagged = values.copy()
        flagged[rng.choice(values.size, count, replace=False)] = rng.choice([np.nan, np.inf, -np.inf], count)
        yield flagged


def assert_same_bits_but_nan_sign(got, want):
    """assert_same_bits, but any NaN matches any NaN: IEEE 754 leaves a NaN's
    sign unspecified, and without AVX-512 numpy's kernels give a NaN a sign
    that depends on its place in the array (a SIMD lane or the scalar tail)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert_same_bits(got[~np.isnan(got)], want[~np.isnan(want)])


class TestSplitEvaluationBits:
    """Each grid value computed only in the form its result reads gives the
    bits of both forms computed everywhere and one picked by np.where, and a
    verdict that skips its copies and scans gives the verdict of one that
    makes them, signed zeros included."""

    def assert_cum_hazards(self, system, x):
        want = where_cum_hazards(system, x)
        assert_same_bits_but_nan_sign(system.cum_hazard(x), want[0])
        assert_same_bits_but_nan_sign(system.cum_rev_hazard(x), want[1])
        assert_same_bits_but_nan_sign(system.margin.cum_rev_hazard(x),
                                      where_minus_log_cdf(system.margin.cum_hazard(x)))

    def test_every_kofn_up_to_20(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                system = SystemModel(k_of_n_paths(k, n), Independence(n), Exponential(1.3))
                x = Grid.system_bracketed(system, system).points
                self.assert_cum_hazards(system, np.concatenate((x, EDGE_X)))

    @pytest.mark.parametrize("margin", SCALAR_MARGINS, ids=["exp", "lfr", "weibull"])
    def test_golden_and_dependent(self, margin):
        triples = [(structure, copula) for _, structure, copula, _ in golden_corpus()] + [
            (k_of_n_paths(3, 6), GumbelHougaard(2.0, 6)), (k_of_n_paths(3, 6), ClaytonOakes(1.5, 6)),
            (k_of_n_paths(2, 3), FGM(0.7))]
        for structure, copula in triples:
            system = SystemModel(structure, copula, margin)
            x = Grid.system_bracketed(system, system).points
            self.assert_cum_hazards(system, np.concatenate((x, EDGE_X)))

    def test_minus_log_picks_by_the_value(self):
        # the complement here is not 1 - value, so each point shows which form it took
        rng = np.random.default_rng(38)
        value = np.concatenate(([0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.0, -0.0, 1.0, np.nan,
                                 -1.0, 2.0, np.inf], rng.random(200)))
        compl = rng.random(value.size)
        assert_same_bits_but_nan_sign(systems._minus_log(value, lambda far: compl[far]), where_minus_log(value, compl))

    def test_minus_log_cdf_picks_by_delta(self):
        ln2 = math.log(2.0)
        delta = np.concatenate(([ln2, np.nextafter(ln2, 0.0), np.nextafter(ln2, 1.0), 0.0, 5e-324, 40.0, 800.0,
                                 np.inf, np.nan], np.random.default_rng(39).exponential(1.0, 200)))
        assert_same_bits_but_nan_sign(_minus_log_cdf(delta), where_minus_log_cdf(delta))

    def test_scalar_edges(self):
        system = SystemModel(k_of_n_paths(3, 6), ClaytonOakes(1.5, 6), Exponential(1.0))
        for x in EDGE_X.tolist():
            want = where_cum_hazards(system, np.array([x]))
            assert_same_bits_but_nan_sign([system.cum_hazard(x), system.cum_rev_hazard(x)], [want[0][0], want[1][0]])

    @pytest.mark.parametrize("rule", RULES)
    def test_verdicts(self, rule):
        rng = np.random.default_rng(3838)
        xs = np.geomspace(0.01, 10.0, 200)
        for values in verdict_values(rng):
            for case in (values, *with_flags(rng, values)):
                for tol in (0.0, 1e-9):
                    want = outcome(scan_verdict, xs, case, rule, tol, "r")
                    assert outcome(verdict, xs, case, rule, tol, "r") == want
        for case in ([1.0, np.nan], [np.nan, np.nan], [-0.0, 0.0], [0.0, -0.0], [1.0, 1.0]):
            assert outcome(verdict, xs[:2], np.array(case), rule, 0.0, "r") == outcome(
                scan_verdict, xs[:2], np.array(case), rule, 0.0, "r")


def flagged_ratio(num, den):
    """The former elasticity quotient: num / den, with 0/0 read as nan and
    every other x/0 as +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    bad = den == 0.0
    if bad.any():
        out = np.where(bad & (num == 0.0), np.nan, out)
        out = np.where(bad & (num != 0.0), np.inf, out)
    return out


def flagged_elasticity(d, p, kind):
    """The former Distortion._elasticity, by flagged_ratio: H or R and its
    log-slope at p (a GridBasis made here), its warnings silenced."""
    b = systems.GridBasis(p)
    d1, den = d._evaluate(b, 2), d._evaluate(b, 0 if kind == "H" else 1)
    with np.errstate(all="ignore"):
        value = flagged_ratio((b.p if kind == "H" else b.q) * d1, den)
        curvature = flagged_ratio(d._evaluate(b, 3), d1)
        if kind == "H":
            return value, 1.0 / b.p + curvature - flagged_ratio(d1, den)
        return value, -1.0 / b.q + curvature + flagged_ratio(d1, den)


def floored_gumbel_compl(cop, p, coeffs):
    """The former GumbelHougaard._sum for 1 - K_j: ln p floored at 1e-300, and 1 written in at p = 0."""
    log_p = np.log(np.maximum(p, 1e-300))
    out = np.zeros_like(p)
    for j, c in coeffs:
        out += c * np.where(p > 0.0, -np.expm1(cop._exponent(j) * log_p), 1.0)
    return out


def masked_clayton_sum(cop, p, coeffs, which):
    """The former ClaytonOakes._sum on an array, whose limit points were those
    not both p > 0 and w < cutoff."""
    theta = cop.theta
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    w = -theta * logp
    direct = (p > 0.0) & (w < _CLAYTON_LOG_CUTOFF)
    limit = None if np.all(direct) else np.logical_not(direct)
    em = np.expm1(np.minimum(w, _CLAYTON_LOG_CUTOFF))
    if which == 2:
        power = (theta + 1.0) * logp
        if limit is not None:
            power = np.where(limit, 0.0, power)
    elif which == 3:
        power = (theta + 2.0) * logp
    out = np.zeros_like(p)
    for j, c in coeffs:
        if which == 3 and j == 1:
            continue
        log_s = np.log1p(j * em)
        if which == 3:
            if limit is not None:
                log_s = np.where(limit, math.log(j) + w, log_s)
            term = np.exp(math.log(j * (j - 1) * (theta + 1.0)) - power - (2.0 + 1.0 / theta) * log_s)
        else:
            if which == 0:
                term = np.exp(-log_s / theta)
            elif which == 1:
                term = -np.expm1(-log_s / theta)
            else:
                term = np.exp(math.log(j) - power - ((theta + 1.0) / theta) * log_s)
            if limit is not None:
                edge = j ** (-1.0 / theta)
                if which < 2:
                    edge = p * edge if which == 0 else 1.0 - p * edge
                term = np.where(limit, edge, term)
        out += c * term
    return out


def ieee_points(*extra):
    """p = 0, subnormal and tiny p, p about 1e-300, random p, log-uniform p
    and 1 - p down to 2^-53, 1, and the given points; no NaN."""
    rng = np.random.default_rng(40)
    tails = np.exp(-rng.uniform(0.0, 744.0, 150))
    edges = [0.0, 5e-324, 1e-310, np.nextafter(1e-300, 0.0), 1e-300, np.nextafter(1e-300, 1.0), 1e-200, 1e-9, 0.5,
             1.0 - 1e-9, 1.0 - 1e-16, 1.0 - 2.0**-53, 1.0]
    return np.concatenate((edges, rng.random(300), tails, 1.0 - np.exp(-rng.uniform(0.0, 36.7, 150)), extra))


def assert_same_bits_but_inf_sign(got, want):
    """assert_same_bits_but_nan_sign, where an infinity matches an infinity of
    either sign: where cancellation leaves a negative numerator over a zero
    denominator, IEEE's quotient is -inf and the former rule read +inf."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both = np.isinf(got) & np.isinf(want)
    assert_same_bits_but_nan_sign(got[~both], want[~both])


class TestIeeeFlagBits:
    """The elasticity quotients by plain IEEE division, Gumbel's 1 - K_j as
    -expm1(a ln p) with ln 0 = -inf, and Clayton's limit mask w >= cutoff
    give the bits of the former rules on arguments that are not NaN:
    flagged_ratio's flags, Gumbel's 1e-300 floor and Clayton's "not (p > 0
    and w < cutoff)".  Under the independence law every bit matches; a
    dependent copula's signed sums can cancel to a negative numerator over a
    zero denominator, where only the sign of the infinity moves."""

    P = ieee_points()

    def assert_elasticities(self, d, same=assert_same_bits_but_nan_sign):
        p = self.P
        open_p = p[(p > 0.0) & (p < 1.0)]
        clamped = np.clip(p, systems.EPS_CLAMP, 1.0 - systems.EPS_CLAMP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, value, derivative in (("H", d.H, d.H_prime), ("R", d.R, d.R_prime)):
                want, dlog = flagged_elasticity(d, clamped, kind)
                same(value(p), want)
                got = d.elasticity_profile(p, kind)
                same(got[0], want)
                same(got[1], (1.0 - clamped if kind == "H" else clamped) * dlog)
                want, dlog = flagged_elasticity(d, open_p, kind)
                with np.errstate(all="ignore"):
                    product = want * dlog
                same(derivative(open_p), product)

    def test_every_kofn_up_to_8_under_independence(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                self.assert_elasticities(kofn(k, n))

    def test_golden_and_dependent(self):
        distortions = [build_distortion(structure, copula) for _, structure, copula, _ in golden_corpus()]
        for copula in (FGM(1.0), FGM(-1.0), FGM(0.7)):
            distortions += [build_distortion(s, copula) for s in (Structure.series(3), Structure.parallel(3),
                                                                   k_of_n_paths(2, 3))] + [fgm_pair_series(copula.theta)]
        for copula in (GumbelHougaard(2.0, 6), GumbelHougaard(7.5, 6), ClaytonOakes(0.01, 6),
                       ClaytonOakes(1.5, 6), ClaytonOakes(20.0, 6)):
            distortions += [build_distortion(s, copula) for s in (k_of_n_paths(3, 6), Structure.parallel(6),
                                                                   Structure.series(6))]
        for d in distortions:
            self.assert_elasticities(d, same=assert_same_bits_but_inf_sign)

    @pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-9, 2.0, 7.5, 50.0])
    def test_gumbel_complement(self, theta):
        cop, p = GumbelHougaard(theta, 8), self.P
        coeffs = [((j, 1),) for j in range(1, 9)] + [kofn(k, 8).coeffs for k in range(1, 9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in coeffs:
                want = floored_gumbel_compl(cop, p, c)
                assert_same_bits(cop._sum(p, c, 1), want)
                assert_same_bits([cop._sum(x, c, 1, _FLOATS) for x in p.tolist()], want)

    @pytest.mark.parametrize("theta", [0.05, 0.3, 1.0, 2.7, 8.0, 40.0])
    @pytest.mark.parametrize("which", range(4), ids=["K", "1-K", "K'", "K''"])
    def test_clayton_mask(self, theta, which):
        cop = ClaytonOakes(theta, 6)
        cutoff = math.exp(-_CLAYTON_LOG_CUTOFF / theta)
        p = ieee_points(*(cutoff * f for f in (0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0)))
        if which == 3:
            p = p[(p > 0.0) & (p < 1.0)]
        coeffs = [((1, 1),), ((1, 2), (2, -1)), ((2, 3), (3, -3), (4, 1)), ((1, 1), (3, 1), (4, -1)), ((6, 1),)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in coeffs:
                want = masked_clayton_sum(cop, p, c, which)
                assert_same_bits(cop._sum(p, c, which), want)
                assert_same_bits([cop._sum(x, c, which, _FLOATS) for x in p.tolist()], want)
                # a limit point alone, and no limit point at all
                for part in (p[:1], p[p > cutoff * 2.0]):
                    assert_same_bits(cop._sum(part, c, which), masked_clayton_sum(cop, part, c, which))
