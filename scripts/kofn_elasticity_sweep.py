#!/usr/bin/env python3
"""Sweep the k-out-of-n elasticity properties across all index combinations
up to a chosen size and print the worst observed margins."""

import argparse
import sys
import time
from pathlib import Path

try:
    import coherent_age  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coherent_age import Grid, Independence, build_distortion, check_monotone, check_sign, k_of_n_paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--grid-size", type=int, default=2001)
    parser.add_argument("--slack", type=float, default=1e-8)
    args = parser.parse_args()

    grid = Grid.probability(1e-3, args.grid_size)
    pairs = [(k, n) for n in range(1, args.max_n + 1) for k in range(1, n + 1)]
    dists = {(k, n): build_distortion(k_of_n_paths(k, n), Independence(n)) for k, n in pairs}

    start = time.perf_counter()
    worst = {"H-sign": 0.0, "H-mono": 0.0, "R-sign": 0.0, "R-mono": 0.0,
             "H-ratio": 0.0, "R-ratio": 0.0}
    # (H, (1-p) H'/H) and (R, p R'/R) per distortion, three evaluations each;
    # the checks read these arrays, and the ratio checks reuse H and R
    profiles = {kn: (d.elasticity_profile(grid.points, "H"), d.elasticity_profile(grid.points, "R"))
                for kn, d in dists.items()}
    for (_, g_h), (_, g_r) in profiles.values():
        worst["H-sign"] = max(worst["H-sign"], check_sign(lambda p: g_h, grid, "nonpositive", args.slack).violation)
        worst["H-mono"] = max(worst["H-mono"], check_monotone(lambda p: g_h, grid, "decr", args.slack).violation)
        worst["R-sign"] = max(worst["R-sign"], check_sign(lambda p: g_r, grid, "nonnegative", args.slack).violation)
        worst["R-mono"] = max(worst["R-mono"], check_monotone(lambda p: g_r, grid, "decr", args.slack).violation)

    checks = 0
    for k, n in pairs:
        for l, m in pairs:
            ((h1, _), (r1, _)), ((h2, _), (r2, _)) = profiles[(k, n)], profiles[(l, m)]
            if k <= l and m - l <= n - k:
                v = check_monotone(lambda p: h1 / h2, grid, "decr", args.slack)
                worst["H-ratio"] = max(worst["H-ratio"], v.violation)
                checks += 1
            if l <= k and n - k <= m - l:
                v = check_monotone(lambda p: r1 / r2, grid, "incr", args.slack)
                worst["R-ratio"] = max(worst["R-ratio"], v.violation)
                checks += 1

    elapsed = time.perf_counter() - start
    print(f"index pairs: {len(pairs)}, ratio checks: {checks}, slack: {args.slack:g}, "
          f"grid: {args.grid_size} pts")
    for name, value in worst.items():
        status = "ok" if value <= args.slack else "VIOLATION"
        print(f"  {name:8s} worst {value:+.3e}  {status}")
    # wall time goes to stderr so two runs of the same sweep print the same stdout
    print(f"time: {elapsed:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
