"""Relative-ageing certification for coherent systems with dependent
identically distributed components: dual distortion functions from structure
and copula, grid-certified stochastic-order checks, sufficient-condition
verification pipelines, and a seeded Monte Carlo oracle.

Names resolve on first access (PEP 562): ``import coherent_age`` loads no
submodule and no numpy, and ``coherent_age.X`` imports X's home module once
and keeps X in the package namespace, so later lookups are plain ones.
"""

import importlib

_HOMES = {
    "copulas": ["ClaytonOakes", "Copula", "FGM", "GumbelHougaard", "Independence", "copula_from_dict"],
    "corollary": ["corollary_index_check"],
    "distributions": ["Exponential", "LifetimeDistribution", "LinearFailureRate", "Weibull", "distribution_from_dict"],
    "montecarlo": ["SimConfig", "SimulationResult", "sample_copula", "simulate_system"],
    "orders": ["Grid", "IdentityReport", "OrderVerdict", "VerifyConfig", "check_order", "integral_identity_check",
               "system_order_direct", "verdict"],
    "systems": ["Distortion", "Structure", "SystemModel", "build_distortion", "k_of_n_paths"],
    "verifier": ["ConditionEntry", "ConditionReport", "verify_bstar", "verify_cstar"],
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
