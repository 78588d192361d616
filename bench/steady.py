"""Steadiness of the benchmark: run each workload repeatedly and compare.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--save FILE] [--against FILE]

Runs bench/run.py --runs times per workload, one seed each, and prints for
every end-to-end metric its median, quartiles (statistics.quantiles, n=4)
and the quartile spread as a share of the median, beside the metric's
bound.  --save keeps the raw results as JSON; --against FILE compares the
medians with an earlier saved set and prints how far each moved in its
worse direction, again beside the bound.  Failed shares must match exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, wall_s=wall, stderr=proc.stderr)
    return result


def summary(runs: list[dict], declared: dict) -> dict:
    out = {}
    for metric in declared["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs if metric["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "bound": metric["bound"], "better": metric["better"]}
    return out


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in declared["workloads"]]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    saved = {}
    for name in names:
        runs = [run_once(name, args.first_seed + i, args.seconds) for i in range(args.runs)]
        saved[name] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        walls = [r["wall_s"] for r in runs]
        print(f"== {name}: correct={all(r['correct'] for r in runs)} failed/attempted={shares} "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        before = summary(earlier.get(name, []), declared)
        for metric, s in summary(runs, declared).items():
            line = (f"  {metric:15s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                    f"spread {s['spread']:.4f} bound {s['bound']} ({s['spread'] / s['bound']:.2f} of it)")
            if metric in before:
                change = s["median"] / before[metric]["median"] - 1.0
                worse = change if s["better"] == "lower" else -change
                line += f"  worse by {worse:+.4f} vs earlier"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
