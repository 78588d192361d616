"""Tests of the benchmark's 50-digit reference against closed forms.

    python3 -m pytest bench/test_reference.py
"""

from itertools import combinations

import pytest
from mpmath import mp, mpf

import reference
from inputs import corollary_holds

PS = ("0", "1e-6", "0.001", "0.25", "0.5", "0.75", "0.999", "0.999999", "1")


def _kofn_block(k, n, copula=None):
    paths = [list(c) for c in combinations(range(1, n + 1), k)]
    return {"structure": {"n": n, "paths": paths}, "copula": copula or {"copula": "independence"},
            "margin": {"family": "exp", "rate": 1.0}}


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 7) for k in range(1, n + 1)])
def test_state_enumeration_matches_binomial_tail(k, n):
    system = reference.RefSystem(_kofn_block(k, n))
    with mp.workdps(reference.DPS):
        for p in PS:
            h, omh = system.h_pair(mpf(p))
            assert abs(h - reference.kofn_h(k, n, p)) <= mpf(10) ** -45
            assert abs(omh - (1 - reference.kofn_h(k, n, p))) <= mpf(10) ** -45


@pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_fgm_pair_series_closed_form(theta):
    block = {"structure": {"n": 3, "paths": [[1, 2], [1, 3]]}, "copula": {"copula": "fgm", "theta": theta},
             "margin": {"family": "exp", "rate": 1.0}}
    system = reference.RefSystem(block)
    with mp.workdps(reference.DPS):
        for p in map(mpf, PS):
            expected = 2 * p**2 - p**3 - theta * p**3 * (1 - p) ** 3
            assert abs(system.h(p) - expected) <= mpf(10) ** -45


@pytest.mark.parametrize("copula", [
    {"copula": "gumbel", "theta": 2.5},
    {"copula": "clayton", "theta": 0.4},
    {"copula": "clayton", "theta": 3.0},
])
def test_dependent_complement_survives_twice_the_digits(copula):
    # 1 - h of a parallel system near p = 1 is far below the terms of the
    # signed state sums; the precision check must still settle on a value
    block = _kofn_block(1, 4, copula)
    h, omh = reference.h_values(block, [1.0 - 1e-6])[0]
    assert 0.0 < omh < 1e-5
    assert h == pytest.approx(1.0 - omh, abs=1e-15)


def test_gumbel_theta_one_is_independence():
    gumbel = reference.RefSystem(_kofn_block(2, 4, {"copula": "gumbel", "theta": 1.0}))
    indep = reference.RefSystem(_kofn_block(2, 4))
    with mp.workdps(reference.DPS):
        for p in map(mpf, PS):
            assert abs(gumbel.h(p) - indep.h(p)) <= mpf(10) ** -45


def test_direct_ratio_of_exponential_margins():
    fast, slow = {"margin": {"family": "exp", "rate": 3.0}}, {"margin": {"family": "exp", "rate": 2.0}}
    assert reference.direct_ratio(fast, slow, "b_star")["holds"]
    assert not reference.direct_ratio(slow, fast, "b_star")["holds"]


def test_direct_ratio_confirms_a_corollary_pair():
    # 2-out-of-2 against 2-out-of-6: the corollary covers it for b_star
    assert corollary_holds(2, 2, 2, 6, "b_star")
    sys1 = dict(_kofn_block(2, 2), margin={"family": "exp", "rate": 3.0})
    sys2 = dict(_kofn_block(2, 6), margin={"family": "exp", "rate": 2.0})
    assert reference.direct_ratio(sys1, sys2, "b_star")["holds"]
