"""Certification pipelines assembling the sufficient conditions for the two
relative-ageing conclusions between coherent systems.

For the cumulative-hazard conclusion (relation ``c_star``) the conditions on
the distortion elasticities H_i(p) = p h_i'(p)/h_i(p) are:

    (i)   H1/H2 decreasing on (0, 1)
    (ii)  (1-p) H1'/H1 negative and decreasing
    (iii) (1-p) H2'/H2 negative and decreasing
    (iv)  X ageing faster than Y in cumulative hazard, and Y <=_st X

and certification requires {(i), (ii), (iv)} or {(i), (iii), (iv)}.  The
cumulative-reversed-hazard conclusion (``b_star``) mirrors this with
R_i(p) = (1-p) h_i'(p)/(1-h_i(p)), ratio R1/R2 increasing, p R_i'/R_i
positive and decreasing, and (iv) replaced by the b_star/st pair in the
opposite stochastic direction.

These conditions are sufficient, not necessary: a failed route never claims
the negation, and reports say "not-certified-by-this-route".  Every report
carries the direct grid check of the conclusion for a soundness audit --
certified with a failing direct check is a build-breaking inconsistency.

Sign conditions that are identically zero (e.g. any power distortion makes
(1-p)H'/H vanish) pass within a small slack and are flagged "boundary".

A stronger certification route exists in the literature with condition (iv)
replaced by the plain (non-cumulative) ageing-faster order plus an rh/hr
order; its hypotheses are strictly stronger and it is not implemented here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corollary import corollary_index_check
from .orders import Grid, OrderVerdict, VerifyConfig, _ratio, check_order, system_order_direct, verdict
from .systems import SystemModel

__all__ = [
    "VerifyConfig",
    "ConditionEntry",
    "ConditionReport",
    "verify_cstar",
    "verify_bstar",
    "corollary_index_check",
]

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 2
EXIT_INCONCLUSIVE = 3


# the config of a verify called without one: checked once, not per call
DEFAULT_CONFIG = VerifyConfig()


@dataclass(frozen=True)
class ConditionEntry:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    witness: float | None
    violation: float
    boundary: bool = False
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    relation: str
    conditions: tuple[ConditionEntry, ...]
    conclusion: str  # "certified" | "not-certified-by-this-route" | "inconclusive"
    direct: OrderVerdict

    @property
    def certified(self) -> bool:
        return self.conclusion == "certified"

    @property
    def exit_code(self) -> int:
        if self.conclusion == "certified":
            return EXIT_CERTIFIED
        if self.conclusion == "inconclusive":
            return EXIT_INCONCLUSIVE
        return EXIT_NOT_CERTIFIED

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "conclusion": self.conclusion,
            "conditions": [asdict(c) for c in self.conditions],
            "direct_check": {k: v for k, v in asdict(self.direct).items() if k not in ("checked", "note")},
        }


def _combine(name: str, parts: list[OrderVerdict], boundary: bool = False, detail: str = "") -> ConditionEntry:
    if any(v.holds == "no" for v in parts):
        worst = max((v for v in parts if v.holds == "no"), key=lambda v: v.violation)
        return ConditionEntry(name, "fail", worst.witness_x, worst.violation, boundary, detail)
    if any(v.holds == "inconclusive" for v in parts):
        return ConditionEntry(name, "inconclusive", None, np.nan, boundary,
                              detail or "; ".join(v.note for v in parts if v.note))
    worst = max(parts, key=lambda v: v.violation)
    return ConditionEntry(name, "pass", worst.witness_x, worst.violation, boundary, detail)


def _elasticity_sign_condition(name, kind, p, values, sign_slack, tol) -> ConditionEntry:
    """Condition of the form '(1-p)H'/H negative and decreasing' (kind='H')
    or 'p R'/R positive and decreasing' (kind='R'); `values` are that
    relative slope on the p-grid."""
    sign = "nonpositive" if kind == "H" else "nonnegative"
    sign_verdict = verdict(p, values, sign, sign_slack, f"{name}:sign")
    mono_verdict = verdict(p, values, "decr", tol, f"{name}:decreasing")
    # boundary: the sign condition holds only by slack (identically-zero case)
    kept = values[np.isfinite(values)]
    if sign == "nonpositive":
        boundary = bool(kept.size and np.max(kept) > -sign_slack)
    else:
        boundary = bool(kept.size and np.min(kept) < sign_slack)
    detail = "holds in the zero-within-slack boundary sense" if boundary else ""
    return _combine(name, [sign_verdict, mono_verdict], boundary=boundary, detail=detail)


def _conclude(cond: dict[str, ConditionEntry]) -> str:
    routes = [("i", "ii", "iv"), ("i", "iii", "iv")]
    for route in routes:
        if all(cond[c].status == "pass" for c in route):
            return "certified"
    if all(any(cond[c].status == "fail" for c in route) for route in routes):
        return "not-certified-by-this-route"
    return "inconclusive"


def _verify(sys1: SystemModel, sys2: SystemModel, relation: str, cfg: VerifyConfig) -> ConditionReport:
    p = cfg.p_grid.points
    xgrid = Grid.margin_bracketed(sys1.margin, sys2.margin, size=cfg.grid_size)
    # H for c_star, R for b_star: each elasticity feeds (i), and its relative
    # slope its own (ii)/(iii); one profile per distortion, three evaluations
    kind = "H" if relation == "c_star" else "R"
    (e1, g1), (e2, g2) = (d.elasticity_profile(p, kind) for d in (sys1.distortion, sys2.distortion))
    # (iv): the margins age faster in the same sense, and are st-ordered
    st_x, st_y = (sys2.margin, sys1.margin) if relation == "c_star" else (sys1.margin, sys2.margin)
    entries = {
        "i": _combine("i", [verdict(p, _ratio(e1, e2), "decr" if relation == "c_star" else "incr", cfg.tol, "i")]),
        "ii": _elasticity_sign_condition("ii", kind, p, g1, cfg.sign_slack, cfg.tol),
        "iii": _elasticity_sign_condition("iii", kind, p, g2, cfg.sign_slack, cfg.tol),
        "iv": _combine("iv", [check_order(sys1.margin, sys2.margin, relation, grid=xgrid, tol=cfg.tol),
                              check_order(st_x, st_y, "st", grid=xgrid, tol=cfg.tol)]),
    }

    # the direct check brackets by system-lifetime quantiles on its own;
    # xgrid covers the margin-order conditions only
    direct = system_order_direct(sys1, sys2, relation, grid=None, tol=cfg.tol)
    return ConditionReport(relation, tuple(entries.values()), _conclude(entries), direct)


def verify_cstar(sys1: SystemModel, sys2: SystemModel, cfg: VerifyConfig | None = None) -> ConditionReport:
    """Certify that system 1 ages faster than system 2 in cumulative hazard."""
    return _verify(sys1, sys2, "c_star", cfg or DEFAULT_CONFIG)


def verify_bstar(sys1: SystemModel, sys2: SystemModel, cfg: VerifyConfig | None = None) -> ConditionReport:
    """Certify that system 1 ages faster than system 2 in cumulative reversed hazard."""
    return _verify(sys1, sys2, "b_star", cfg or DEFAULT_CONFIG)
