#!/usr/bin/env python3
"""Validate the analytic system survival curves of a mixed corpus of
(structure, copula, margin) triples against seeded Monte Carlo samples."""

import sys
from pathlib import Path

try:
    import coherent_age  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coherent_age import (
    ClaytonOakes,
    Exponential,
    FGM,
    GumbelHougaard,
    Independence,
    LinearFailureRate,
    SimConfig,
    Structure,
    Weibull,
    k_of_n_paths,
    simulate_system,
)

CORPUS = [
    ("fgm-pair-series", Structure.from_paths(3, [[1, 2], [1, 3]]), FGM(1.0), LinearFailureRate(1.0, 1.0)),
    ("series3-indep", Structure.series(3), Independence(3), LinearFailureRate(2.0, 1.0)),
    ("gumbel-series4", Structure.series(4), GumbelHougaard(2.0, 4), Exponential(3.0)),
    ("parallel2-indep", Structure.parallel(2), Independence(2), Exponential(1.0)),
    ("two-of-three", k_of_n_paths(2, 3), Independence(3), Weibull(2.0, 1.0)),
    ("clayton-series3", Structure.series(3), ClaytonOakes(1.0, 3), Exponential(2.0)),
    ("clayton-parallel3", Structure.parallel(3), ClaytonOakes(2.0, 3), Weibull(0.8, 2.0)),
    ("gumbel-two-of-four", k_of_n_paths(2, 4), GumbelHougaard(2.0, 4), Exponential(2.0)),
    ("fgm-neg1-two-of-three", k_of_n_paths(2, 3), FGM(-1.0), LinearFailureRate(1.0, 0.5)),
]


def main():
    print(f"{'triple':22s} {'max |emp-ana|/se':>18s} {'verdict':>9s}")
    worst = 0.0
    for i, (name, structure, copula, margin) in enumerate(CORPUS):
        res = simulate_system(structure, copula, margin, SimConfig(seed=2000 + i))
        dev = res.max_standardized_deviation
        worst = max(worst, dev)
        print(f"{name:22s} {dev:18.2f} {'ok' if dev < 4 else 'DEVIATES':>9s}")
    print(f"\nworst standardized deviation: {worst:.2f} (criterion: < 4)")
    return 0 if worst < 4 else 3


if __name__ == "__main__":
    raise SystemExit(main())
