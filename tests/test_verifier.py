import dataclasses
import functools
import math
import re
import sys
import threading

import numpy as np
import pytest
from corpus_helpers import assert_same_bits, golden_corpus, random_instance, random_margin_pair, random_structure

from coherent_age.copulas import ClaytonOakes, FGM, GumbelHougaard, Independence
from coherent_age import systems
from coherent_age.distributions import Exponential, LinearFailureRate, Weibull
from coherent_age.orders import Grid, verdict
from coherent_age.systems import (
    POWER_BUDGET,
    Distortion,
    GridBasis,
    Structure,
    SystemModel,
    _members,
    build_distortion,
    k_of_n_paths,
)
from coherent_age.verifier import (
    DEFAULT_CONFIG,
    VerifyConfig,
    _combine,
    _elasticity_sign_condition,
    corollary_index_check,
    verify_bstar,
    verify_cstar,
)

FAST_CFG = VerifyConfig(grid_size=501)


def condition(report, name):
    """The report's entry for condition `name`."""
    return next(entry for entry in report.conditions if entry.name == name)


def fgm_pair_series_system(theta=1.0, margin=None):
    return SystemModel(
        Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(theta), margin or LinearFailureRate(1.0, 1.0)
    )


def series3_independent_system(margin=None):
    return SystemModel(Structure.series(3), Independence(3), margin or LinearFailureRate(2.0, 1.0))


def kofn_system(k, n, margin):
    return SystemModel(k_of_n_paths(k, n), Independence(n), margin)


def gumbel_series_system(m, theta, margin):
    return SystemModel(Structure.series(m), GumbelHougaard(theta, m), margin)


class TestWorkedSetups:
    def test_fgm_setup_certifies(self):
        report = verify_cstar(fgm_pair_series_system(), series3_independent_system())
        assert report.conclusion == "certified"
        assert condition(report, "i").status == "pass"
        assert condition(report, "iii").status == "pass"
        assert condition(report, "iii").boundary  # (1-p)H2'/H2 is identically zero
        assert condition(report, "iv").status == "pass"
        assert report.direct.holds == "yes"
        assert report.exit_code == 0

    def test_fgm_setup_all_theta(self):
        for theta in (-1.0, -0.5, 0.5, 1.0):
            report = verify_cstar(
                fgm_pair_series_system(theta), series3_independent_system(), FAST_CFG
            )
            assert report.conclusion == "certified"

    def test_swapped_margins_not_certified(self):
        # reversing the margins breaks the st half of condition (iv); the
        # direct check still passes (the conditions are sufficient, not
        # necessary)
        report = verify_cstar(
            fgm_pair_series_system(margin=LinearFailureRate(2.0, 1.0)),
            series3_independent_system(margin=LinearFailureRate(1.0, 1.0)),
        )
        assert report.conclusion == "not-certified-by-this-route"
        assert condition(report, "iv").status == "fail"
        assert report.exit_code == 2
        assert report.direct.holds == "yes"

    def test_identical_systems_certify_trivially(self):
        s1 = series3_independent_system(LinearFailureRate(1.5, 0.5))
        s2 = series3_independent_system(LinearFailureRate(1.5, 0.5))
        report = verify_cstar(s1, s2, FAST_CFG)
        assert report.conclusion == "certified"
        assert abs(report.direct.violation) <= report.direct.tolerance

    def test_identical_systems_need_not_certify(self):
        # reflexively true conclusion, but the FGM pair-series distortion
        # fails the elasticity sign condition on both routes: sufficient
        # conditions are not complete
        s1 = fgm_pair_series_system()
        s2 = fgm_pair_series_system()
        report = verify_cstar(s1, s2, FAST_CFG)
        assert report.conclusion == "not-certified-by-this-route"
        assert report.direct.holds == "yes"

    @pytest.mark.parametrize("m,n,theta", [(4, 2, 2.0), (3, 3, 1.5), (5, 2, 3.0)])
    def test_gumbel_chain_certifies(self, m, n, theta):
        report = verify_bstar(
            gumbel_series_system(m, theta, Exponential(3.0)),
            gumbel_series_system(n, theta, Exponential(2.0)),
        )
        assert report.conclusion == "certified"
        assert condition(report, "i").status == "pass"
        assert condition(report, "ii").status == "pass"
        assert report.direct.holds == "yes"

    def test_gumbel_reversed_sizes_fails_ratio(self):
        # m < n makes the elasticity ratio decrease, breaking condition (i)
        report = verify_bstar(
            gumbel_series_system(2, 2.0, Exponential(3.0)),
            gumbel_series_system(4, 2.0, Exponential(2.0)),
        )
        assert condition(report, "i").status == "fail"
        assert report.conclusion == "not-certified-by-this-route"


class TestIndependenceLaw:
    @pytest.mark.parametrize("a, b", [(2, 5), (3, 6), (4, 8), (5, 8), (3, 5)])
    def test_gumbel_at_one_verifies_as_independence(self, a, b):
        # GumbelHougaard(1.0) is the independence law; its signed sum of
        # c_j K_j cancelled in 1-h near p = 1 and certified none of these
        reports = [
            verify_bstar(
                SystemModel(Structure.parallel(a), copula(a), Exponential(3.0)),
                SystemModel(Structure.parallel(b), copula(b), Exponential(2.0)),
            )
            for copula in (Independence, lambda n: GumbelHougaard(1.0, n))
        ]
        assert reports[0].conclusion == "certified"
        assert repr(reports[1]) == repr(reports[0])

    @pytest.mark.parametrize("verify", [verify_cstar, verify_bstar])
    def test_fgm_at_zero_verifies_as_independence(self, verify):
        structure = Structure.from_paths(3, [[1, 2], [1, 3]])
        reports = [
            verify(SystemModel(structure, copula, LinearFailureRate(1.0, 1.0)), series3_independent_system(),
                   FAST_CFG)
            for copula in (Independence(3), FGM(0.0))
        ]
        assert repr(reports[1]) == repr(reports[0])


def relabelled(structure, rng):
    """The structure with its components renamed by a random permutation."""
    perm = rng.permutation(structure.n) + 1
    return Structure.from_paths(structure.n, [[int(perm[i - 1]) for i in _members(path)] for path in structure.paths])


class TestRelabelling:
    """Renaming the components leaves the counts, and so every report,
    unchanged (a metamorphic invariant: no reference value is needed)."""

    COPULAS = {
        "independence": Independence,
        "fgm": lambda n: FGM(0.6),
        "gumbel": lambda n: GumbelHougaard(1.8, n),
        "clayton": lambda n: ClaytonOakes(0.7, n),
    }

    def test_counts_and_reports(self):
        rng = np.random.default_rng(17)
        structures = [k_of_n_paths(k, n) for n in range(1, 7) for k in range(1, n + 1)]
        structures += [random_structure(rng, n) for n in range(2, 7) for _ in range(4)]
        renamed = [relabelled(s, rng) for s in structures]
        for structure, other in zip(structures, renamed):
            assert other.counts == structure.counts, (structure, other)
        for name, copula in self.COPULAS.items():
            # FGM is defined for three components only
            pool = [i for i, s in enumerate(structures) if s.n > 1 and (name != "fgm" or s.n == 3)]
            for relation, verify in 3 * (("c_star", verify_cstar), ("b_star", verify_bstar)):
                first, second = rng.choice(pool, 2, replace=False)
                margins = random_margin_pair(rng, relation)
                reports = [
                    verify(*(SystemModel(group[i], copula(group[i].n), m) for i, m in zip((first, second), margins)),
                           FAST_CFG)
                    for group in (structures, renamed)
                ]
                assert repr(reports[1]) == repr(reports[0]), (name, structures[first], structures[second])


class TestVerifyConfig:
    # the messages are those the command line prints after "error: "
    @pytest.mark.parametrize(
        "settings, message",
        [
            *(
                ({key: value}, f"{key} must be finite and >= 0, got {value!r}")
                for key in ("tol", "sign_slack")
                for value in (math.inf, math.nan, -1.0)
            ),
            ({"grid_size": 1}, "grid size 1, eps_endpoint 0.001: grid needs at least two points"),
            ({"grid_size": 2.5}, "grid size must be an integer, got 2.5"),
            (
                {"eps_endpoint": 0.6},
                "grid size 2001, eps_endpoint 0.6: eps_endpoint must satisfy 0 < eps < 0.5, got 0.6",
            ),
            (
                {"eps_endpoint": 0.4999999999999999},
                "grid size 2001, eps_endpoint 0.4999999999999999: grid points must be strictly increasing",
            ),
        ],
    )
    def test_refuses_what_the_command_line_refuses(self, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VerifyConfig(**settings)

    def test_grid_policy_is_not_a_setting(self):
        # every x-grid is log-spaced: the former option is an unknown keyword
        with pytest.raises(TypeError):
            VerifyConfig(grid_policy="log")

    def test_infinite_tolerance_cannot_certify_the_swapped_margins(self):
        # the swapped-margin pair is not certified at the default tolerance;
        # tol = inf would have passed every check
        sys1 = fgm_pair_series_system(margin=LinearFailureRate(2.0, 1.0))
        sys2 = series3_independent_system(margin=LinearFailureRate(1.0, 1.0))
        assert verify_cstar(sys1, sys2).conclusion == "not-certified-by-this-route"
        with pytest.raises(ValueError, match="tol must be finite and >= 0, got inf"):
            verify_cstar(sys1, sys2, VerifyConfig(tol=math.inf))

    def test_integral_float_grid_size_reads_as_an_integer(self):
        assert VerifyConfig(grid_size=31.0) == VerifyConfig(grid_size=31)
        assert type(VerifyConfig(grid_size=31.0).grid_size) is int

    def test_numpy_grid_size_reads_as_an_integer(self):
        assert VerifyConfig(grid_size=np.int64(31)) == VerifyConfig(grid_size=np.float32(31.0)) == VerifyConfig(grid_size=31)
        with pytest.raises(ValueError, match="grid size must be an integer"):
            VerifyConfig(grid_size=np.float64(31.5))
        with pytest.raises(ValueError, match="grid size must be a number"):
            VerifyConfig(grid_size=np.bool_(True))

    def test_default_config_is_the_default(self):
        assert DEFAULT_CONFIG == VerifyConfig()
        s1, s2 = fgm_pair_series_system(), series3_independent_system()
        assert repr(verify_bstar(s1, s2)) == repr(verify_bstar(s1, s2, VerifyConfig()))

    def test_keeps_its_p_grid_read_only(self):
        cfg = VerifyConfig(eps_endpoint=0.01, grid_size=31)
        grid = cfg.p_grid
        assert cfg.p_grid is grid
        assert np.array_equal(grid.points, np.linspace(0.01, 0.99, 31))
        with pytest.raises(ValueError, match="read-only"):
            grid.points[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p_grid = Grid.probability(0.01, 31)
        with pytest.raises(TypeError):
            VerifyConfig(p_grid=grid)

    def test_kept_grid_leaves_equality_hash_and_repr_alone(self):
        cfg = VerifyConfig(grid_size=31.0)
        assert cfg == VerifyConfig(grid_size=31)
        assert hash(cfg) == hash(VerifyConfig(grid_size=31))
        assert cfg != VerifyConfig(grid_size=32)
        assert repr(cfg) == (
            "VerifyConfig(eps_endpoint=0.001, grid_size=31, tol=1e-09, sign_slack=1e-08)"
        )


class TestCorollaryIndexCheck:
    def test_examples(self):
        assert corollary_index_check(1, 3, 2, 3, "c_star") is True
        assert corollary_index_check(2, 3, 1, 3, "c_star") is False
        assert corollary_index_check(2, 3, 2, 3, "c_star") is True
        assert corollary_index_check(2, 3, 2, 3, "b_star") is True

    def test_validation(self):
        with pytest.raises(ValueError):
            corollary_index_check(0, 3, 1, 2, "c_star")
        with pytest.raises(ValueError):
            corollary_index_check(1, 3, 4, 3, "c_star")
        with pytest.raises(ValueError):
            corollary_index_check(1, 3, 1, 3, "st")

    def test_composed_with_kofn_verification(self):
        # every quadruple the predicate admits must certify end to end
        margins_c = (LinearFailureRate(1.0, 1.0), LinearFailureRate(2.0, 1.0))
        margins_b = (Exponential(3.0), Exponential(2.0))
        checked = 0
        for n in range(1, 6):
            for k in range(1, n + 1):
                for m in range(1, 6):
                    for l in range(1, m + 1):
                        if corollary_index_check(k, n, l, m, "c_star"):
                            rep = verify_cstar(
                                kofn_system(k, n, margins_c[0]),
                                kofn_system(l, m, margins_c[1]),
                                FAST_CFG,
                            )
                            assert rep.conclusion == "certified", (k, n, l, m, "c_star")
                            assert rep.direct.holds == "yes"
                            checked += 1
                        if corollary_index_check(k, n, l, m, "b_star"):
                            rep = verify_bstar(
                                kofn_system(k, n, margins_b[0]),
                                kofn_system(l, m, margins_b[1]),
                                FAST_CFG,
                            )
                            assert rep.conclusion == "certified", (k, n, l, m, "b_star")
                            assert rep.direct.holds == "yes"
                            checked += 1
        assert checked > 50


class TestSoundness:
    def test_certified_implies_direct_check(self):
        rng = np.random.default_rng(4242)
        certified = 0
        for _ in range(50):
            for relation, verify in (("c_star", verify_cstar), ("b_star", verify_bstar)):
                sys1, sys2 = random_instance(rng, relation)
                report = verify(sys1, sys2, FAST_CFG)
                if report.conclusion == "certified":
                    certified += 1
                    assert report.direct.holds == "yes", (
                        relation,
                        sys1.structure,
                        sys1.copula,
                        sys1.margin,
                        sys2.structure,
                        sys2.copula,
                        sys2.margin,
                    )
        assert certified >= 5  # the corpus must actually exercise certification


class TestEvaluateOnce:
    @pytest.mark.parametrize("relation, verify", [("c_star", verify_cstar), ("b_star", verify_bstar)])
    def test_three_distortion_evaluations_per_system_on_the_p_grid(self, monkeypatch, relation, verify):
        # conditions (i)-(iii) need h or 1-h, h' and h'' once each; the
        # Bernstein engine (system 2) and the signed sum (system 1) alike
        # every argument of the p-grid's size counts, shifted copies too; the
        # direct check's system grid has the default 2001 points
        evaluate = Distortion._evaluate
        calls = []

        def counted(self, pa, which):
            # a verify passes its config's GridBasis, whose points are the p-grid's
            if np.size(pa.p if isinstance(pa, GridBasis) else pa) == FAST_CFG.grid_size:
                calls.append((id(self), which))
            return evaluate(self, pa, which)

        monkeypatch.setattr(Distortion, "_evaluate", counted)
        sys1, sys2 = fgm_pair_series_system(), series3_independent_system()
        verify(sys1, sys2, FAST_CFG)
        first = 0 if relation == "c_star" else 1
        for system in (sys1, sys2):
            made = sorted(which for owner, which in calls if owner == id(system.distortion))
            assert made == [first, 2, 3]


# the default config, one whose clamp to [1e-9, 1 - 1e-9] moves its end points,
# and an odd small grid
BASIS_CONFIGS = {"default": DEFAULT_CONFIG, "eps-1e-12": VerifyConfig(eps_endpoint=1e-12),
                 "odd-37": VerifyConfig(grid_size=37)}


@functools.cache
def basis_models():
    """(structure, copula) of every k-out-of-n with n <= 20, and of the FGM,
    Gumbel and Clayton systems of the golden corpus."""
    kofn = [(k_of_n_paths(k, n), Independence(n)) for n in range(1, 21) for k in range(1, n + 1)]
    return tuple(kofn + [(s, c) for _, s, c, _ in golden_corpus() if not isinstance(c, Independence)])


@functools.cache
def basis_distortions():
    return tuple(build_distortion(s, c) for s, c in basis_models())


def inline_bernstein_sum(p, weights):
    """The Bernstein sum with every power made inline, per use:
    w * p**k * (1-p)**(deg-k), summed in weight order."""
    pa = p.p if isinstance(p, GridBasis) else p
    q = 1.0 - pa
    deg = len(weights) - 1
    out = np.zeros_like(pa)
    for k, w in enumerate(weights):
        if w:
            out += w * pa**k * q ** (deg - k)
    return out


def inline(monkeypatch, f, *args):
    """f(*args) with inline_bernstein_sum in place of the library's Bernstein sum."""
    with monkeypatch.context() as patched:
        patched.setattr(systems, "_bernstein_sum", inline_bernstein_sum)
        return f(*args)


def basis_systems():
    """Every model of basis_models(), under a Weibull margin."""
    return [SystemModel(s, c, Weibull(1.5, 2.0)) for s, c in basis_models()]


class TestBasisMatchesArray:
    """The kept powers of a basis give the bits of powers made inline, per
    use, through a config's basis and through a plain array alike."""

    @pytest.mark.parametrize("cfg", BASIS_CONFIGS.values(), ids=BASIS_CONFIGS.keys())
    def test_profiles_equal_inline_powers(self, monkeypatch, cfg):
        points = cfg.p_grid.points
        for d in basis_distortions():
            for kind in ("H", "R"):
                want = inline(monkeypatch, d.elasticity_profile, points, kind)
                for _ in range(2):  # the powers made, then the powers kept
                    for source in (cfg.basis, points):
                        for got, expected in zip(d.elasticity_profile(source, kind), want):
                            assert_same_bits(got, expected)

    def test_public_elasticities_equal_inline_powers(self, monkeypatch):
        points = DEFAULT_CONFIG.p_grid.points
        for d in basis_distortions():
            for f in (d.H, d.R, d.h, d.one_minus_h, d.h_prime, d.H_prime, d.R_prime):
                assert_same_bits(f(points), inline(monkeypatch, f, points))

    def test_system_cumulative_hazards_equal_inline_powers(self, monkeypatch):
        for system in basis_systems():
            x = Grid.system_bracketed(system, system).points
            assert x.size == 2001
            for f in (system.cum_hazard, system.cum_rev_hazard):
                assert_same_bits(f(x), inline(monkeypatch, f, x))

    @pytest.mark.parametrize("grid_size", [2001, 501])
    def test_reused_config_reports_equal_fresh_ones(self, grid_size):
        rng = np.random.default_rng(3636 + grid_size)
        reused = DEFAULT_CONFIG if grid_size == 2001 else VerifyConfig(grid_size=grid_size)
        for _ in range(15):
            for relation, verify in (("c_star", verify_cstar), ("b_star", verify_bstar)):
                sys1, sys2 = random_instance(rng, relation)
                assert repr(verify(sys1, sys2, reused)) == repr(verify(sys1, sys2, VerifyConfig(grid_size=grid_size)))


def kept_keys(top):
    return sorted((k, of_q) for k in range(top + 1) for of_q in (False, True))


class TestKeptBasis:
    """A basis keeps p^k and q^k for k < POWER_BUDGET / (2 x bytes of the
    points), each once, whatever the order of use."""

    def test_two_verifies_share_the_power_arrays(self, monkeypatch):
        cfg = VerifyConfig(grid_size=501)
        power, made = GridBasis.power, []

        def recorded(self, k, of_q=False):
            out = power(self, k, of_q)
            if self is cfg.basis:
                made[-1][k, of_q] = out
            return out

        monkeypatch.setattr(GridBasis, "power", recorded)
        margins = (LinearFailureRate(2.0, 1.0), LinearFailureRate(1.0, 1.0))
        for relation, verify in (("c_star", verify_cstar), ("b_star", verify_bstar)):
            for _ in range(2):
                made.append({})
                verify(kofn_system(2, 4, margins[0]), kofn_system(3, 5, margins[1]), cfg)
            first, second = made[-2:]
            assert first and first.keys() == second.keys(), relation
            assert all(second[key] is first[key] for key in first), relation

    def test_kept_arrays_are_read_only(self):
        cfg = VerifyConfig(grid_size=101)
        verify_cstar(kofn_system(2, 4, LinearFailureRate(2.0, 1.0)), series3_independent_system(), cfg)
        b = cfg.basis
        kept = [b.p, b.q, *b._powers.values()]
        assert len(kept) > 2 and not any(a.flags.writeable for a in kept)
        with pytest.raises(ValueError, match="read-only"):
            b.power(2)[0] = 0.5
        # the config freezes its own clamped points; a basis never freezes its caller's
        points = np.linspace(0.1, 0.9, 9)
        GridBasis(points).power(2)
        assert points.flags.writeable and cfg.p_grid.points is not b.p

    def test_high_powers_first_leave_the_low_ones_kept(self):
        # series(60) reads p^k and q^(60-k) for every k <= 60; made first, it
        # must not crowd out the powers 3-of-6 reads afterwards
        cfg = VerifyConfig()
        for n, k in ((60, 60), (6, 3)):
            d = build_distortion(k_of_n_paths(k, n), Independence(n))
            for kind in ("H", "R"):
                d.elasticity_profile(cfg.basis, kind)
        assert set(kept_keys(6)) <= cfg.basis._powers.keys()

    def test_a_2001_point_basis_keeps_exactly_k_up_to_31(self, monkeypatch):
        b = VerifyConfig().basis
        assert b.p.size == 2001
        series60 = build_distortion(Structure.series(60), Independence(60))
        for d in (series60, *basis_distortions()[:210]):
            for kind in ("H", "R"):
                d.elasticity_profile(b, kind)
        assert sorted(b._powers) == kept_keys(31)
        assert sum(a.nbytes for a in b._powers.values()) <= POWER_BUDGET
        # past k = 31 a power is made per use, with the same bits
        for kind in ("H", "R"):
            want = inline(monkeypatch, series60.elasticity_profile, b.p, kind)
            for got, expected in zip(series60.elasticity_profile(b, kind), want):
                assert_same_bits(got, expected)
        assert b.power(32) is not b.power(32)
        assert_same_bits(b.power(32, True), b.q**32)
        assert b.power(31) is b.power(31)
        # no points, no bytes: every power is made per use
        empty = GridBasis(np.empty(0))
        assert empty.power(3).shape == (0,) and not empty._powers

    def test_threads_keep_each_power_once_and_share_it(self):
        # eight threads, more than the cores, start together on a fresh
        # config's basis with a short switch interval (numpy lets go of the
        # interpreter lock while it raises 2001 points to a power), in ten
        # rounds: every thread must get the one kept array of each power,
        # and every profile the bits of powers made inline
        dists = basis_distortions()[:15]  # every k-of-n with n <= 5
        points = DEFAULT_CONFIG.p_grid.points
        want = {(d, kind): d.elasticity_profile(points, kind) for d in dists for kind in "HR"}
        keys = kept_keys(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cfg, start, failures, seen = VerifyConfig(), threading.Barrier(8), [], []

                def work(order):
                    start.wait(timeout=60)
                    try:
                        seen.append({key: cfg.basis.power(*key) for key in order})
                        for (d, kind), plain in want.items():
                            for got, expected in zip(d.elasticity_profile(cfg.basis, kind), plain):
                                assert got.tobytes() == expected.tobytes(), (d, kind)
                    except AssertionError as exc:
                        failures.append(exc)

                # each thread asks for the powers in its own order
                threads = [threading.Thread(target=work, args=(keys[i:] + keys[:i],)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads) and not failures
                b = cfg.basis
                assert sorted(b._powers) == keys and len(seen) == 8
                assert all(got[key] is b._powers[key] for got in seen for key in keys)
        finally:
            sys.setswitchinterval(interval)


def reference_sign_condition(name, kind, p, values, sign_slack, tol):
    """The sign condition as three separate passes, each filtering the
    non-finite values on its own."""
    sign = "nonpositive" if kind == "H" else "nonnegative"
    sign_verdict = verdict(p, values, sign, sign_slack, f"{name}:sign")
    mono_verdict = verdict(p, values, "decr", tol, f"{name}:decreasing")
    finite = values[np.isfinite(values)]
    if sign == "nonpositive":
        boundary = bool(finite.size and np.max(finite) > -sign_slack)
    else:
        boundary = bool(finite.size and np.min(finite) < sign_slack)
    detail = "holds in the zero-within-slack boundary sense" if boundary else ""
    return _combine(name, [sign_verdict, mono_verdict], boundary=boundary, detail=detail)


def sign_condition_inputs():
    p = np.linspace(0.001, 0.999, 401)
    falling = -p - 0.5
    flagged = falling.copy()
    flagged[[0, 7, 200]] = [np.nan, np.inf, -np.inf]
    many = falling.copy()
    many[::10] = np.nan
    bump = falling.copy()
    bump[150] += 0.3
    lone = np.full_like(p, np.nan)
    lone[3] = -1.0
    return p, {
        "falling": falling, "flagged": flagged, "too-many-skipped": many, "bump": bump,
        "zero": np.zeros_like(p), "rising": 1.0 + p, "one-finite": lone,
    }


class TestElasticitySignCondition:
    @pytest.mark.parametrize("kind", ["H", "R"])
    @pytest.mark.parametrize("case", list(sign_condition_inputs()[1]))
    def test_fused_matches_three_passes(self, kind, case):
        p, inputs = sign_condition_inputs()
        values = inputs[case] if kind == "H" else -inputs[case][::-1]
        args = ("ii", kind, p, values, 1e-8, 1e-9)
        assert repr(_elasticity_sign_condition(*args)) == repr(reference_sign_condition(*args))

    def test_no_finite_value_is_refused_like_the_reference(self):
        p = np.linspace(0.1, 0.9, 5)
        values = np.full(5, np.nan)
        with pytest.raises(ValueError, match="empty grid"):
            reference_sign_condition("ii", "H", p, values, 1e-8, 1e-9)
        with pytest.raises(ValueError, match="empty grid"):
            _elasticity_sign_condition("ii", "H", p, values, 1e-8, 1e-9)


class TestReportShape:
    def test_report_serialises(self):
        report = verify_cstar(fgm_pair_series_system(), series3_independent_system(), FAST_CFG)
        payload = report.to_dict()
        assert payload["conclusion"] == "certified"
        assert {c["name"] for c in payload["conditions"]} == {"i", "ii", "iii", "iv"}
        assert payload["direct_check"]["holds"] == "yes"
