import dataclasses
import math
import re

import numpy as np
import pytest
from corpus_helpers import random_instance

from coherent_age.copulas import FGM, GumbelHougaard, Independence
from coherent_age.distributions import Exponential, LinearFailureRate
from coherent_age.orders import Grid, verdict
from coherent_age.systems import Distortion, Structure, SystemModel, k_of_n_paths
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
            if np.size(pa) == FAST_CFG.grid_size:
                calls.append((id(self), which))
            return evaluate(self, pa, which)

        monkeypatch.setattr(Distortion, "_evaluate", counted)
        sys1, sys2 = fgm_pair_series_system(), series3_independent_system()
        verify(sys1, sys2, FAST_CFG)
        first = 0 if relation == "c_star" else 1
        for system in (sys1, sys2):
            made = sorted(which for owner, which in calls if owner == id(system.distortion))
            assert made == [first, 2, 3]


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
