"""Relative-ageing certification for coherent systems with dependent
identically distributed components: dual distortion functions from structure
and copula, grid-certified stochastic-order checks, sufficient-condition
verification pipelines, and a seeded Monte Carlo oracle."""

from .copulas import ClaytonOakes, Copula, FGM, GumbelHougaard, Independence, copula_from_dict
from .distributions import (
    Exponential,
    LifetimeDistribution,
    LinearFailureRate,
    Weibull,
    distribution_from_dict,
)
from .montecarlo import SimConfig, SimulationResult, sample_copula, simulate_system
from .orders import (
    Grid,
    IdentityReport,
    OrderVerdict,
    check_order,
    integral_identity_check,
    system_order_direct,
    verdict,
)
from .systems import (
    Distortion,
    Structure,
    SystemModel,
    build_distortion,
    k_of_n_paths,
)
from .verifier import (
    ConditionEntry,
    ConditionReport,
    VerifyConfig,
    corollary_index_check,
    verify_bstar,
    verify_cstar,
)

__version__ = "0.1.0"

__all__ = [
    "ClaytonOakes",
    "ConditionEntry",
    "ConditionReport",
    "Copula",
    "Distortion",
    "Exponential",
    "FGM",
    "Grid",
    "GumbelHougaard",
    "IdentityReport",
    "Independence",
    "LifetimeDistribution",
    "LinearFailureRate",
    "OrderVerdict",
    "SimConfig",
    "SimulationResult",
    "Structure",
    "SystemModel",
    "VerifyConfig",
    "Weibull",
    "build_distortion",
    "check_order",
    "copula_from_dict",
    "corollary_index_check",
    "distribution_from_dict",
    "integral_identity_check",
    "k_of_n_paths",
    "sample_copula",
    "simulate_system",
    "system_order_direct",
    "verdict",
    "verify_bstar",
    "verify_cstar",
    "__version__",
]
