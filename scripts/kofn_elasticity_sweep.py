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

from coherent_age import Grid, Independence, build_distortion, k_of_n_paths, verdict


class Parser(argparse.ArgumentParser):
    """argparse whose error line starts with 'error:', after the usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"error: {message}\n")


def main():
    parser = Parser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--grid-size", type=int, default=2001)
    parser.add_argument("--slack", type=float, default=1e-8)
    args = parser.parse_args()
    if args.max_n < 1:
        parser.error(f"--max-n must be at least 1, got {args.max_n}")

    # the library's own limits (grid size, components per structure) decide
    try:
        grid = Grid.probability(1e-3, args.grid_size)
    except ValueError as exc:
        parser.error(f"--grid-size {args.grid_size}: {exc}")
    pairs = [(k, n) for n in range(1, args.max_n + 1) for k in range(1, n + 1)]
    dists = {}
    for k, n in pairs:
        try:
            dists[(k, n)] = build_distortion(k_of_n_paths(k, n), Independence(n))
        except ValueError as exc:
            parser.error(f"{k}-of-{n}: {exc}")
    p = grid.points

    start = time.perf_counter()
    worst = {"H-sign": 0.0, "H-mono": 0.0, "R-sign": 0.0, "R-mono": 0.0,
             "H-ratio": 0.0, "R-ratio": 0.0}
    # (H, (1-p) H'/H) and (R, p R'/R) per distortion, three evaluations each;
    # the checks read these arrays, and the ratio checks reuse H and R
    profiles = {kn: (d.elasticity_profile(p, "H"), d.elasticity_profile(p, "R")) for kn, d in dists.items()}
    # the library's tolerance rule decides the slack, at the first verdict
    try:
        for (_, g_h), (_, g_r) in profiles.values():
            worst["H-sign"] = max(worst["H-sign"], verdict(p, g_h, "nonpositive", args.slack, "sign").violation)
            worst["H-mono"] = max(worst["H-mono"], verdict(p, g_h, "decr", args.slack, "monotone").violation)
            worst["R-sign"] = max(worst["R-sign"], verdict(p, g_r, "nonnegative", args.slack, "sign").violation)
            worst["R-mono"] = max(worst["R-mono"], verdict(p, g_r, "decr", args.slack, "monotone").violation)
    except ValueError as exc:
        parser.error(f"--slack {args.slack}: {exc}")

    checks = 0
    for k, n in pairs:
        for l, m in pairs:
            ((h1, _), (r1, _)), ((h2, _), (r2, _)) = profiles[(k, n)], profiles[(l, m)]
            if k <= l and m - l <= n - k:
                v = verdict(p, h1 / h2, "decr", args.slack, "monotone")
                worst["H-ratio"] = max(worst["H-ratio"], v.violation)
                checks += 1
            if l <= k and n - k <= m - l:
                v = verdict(p, r1 / r2, "incr", args.slack, "monotone")
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
