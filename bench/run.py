"""Benchmark of coherent-age: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: cli-specs, verify-audit,
kofn-corollary, oracle (see bench/README.md).  With --trace 0 the last line
of stdout holds every end-to-end metric of BENCHMARK.json; with --trace 1
every per-layer metric, and the spans go to .bench_out/.  Each workload runs
whole rounds of its operations for about --seconds seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_SNIPPET = "import sys, coherent_age, inputs; inputs.make(sys.argv[1], int(sys.argv[2]))"


def measure_setup(workload: str, seed: int) -> float:
    """Median time of a fresh interpreter importing the package and making
    the workload's inputs, calibrated like a CLI call: each is rescaled by
    the fresh numpy-importing interpreters timed before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env.pop("COHERENT_AGE_THREADS", None)

    def wall(argv) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True)
        return perf_counter() - start

    kernels = [wall(workloads.CHILD_KERNEL)]
    times = []
    for _ in range(SETUP_REPEATS):
        seconds = wall(["-c", SETUP_SNIPPET, workload, str(seed)])
        kernels.append(wall(workloads.CHILD_KERNEL))
        times.append(seconds * workloads.CHILD_FAST_S / (0.5 * (kernels[-2] + kernels[-1])))
    return statistics.median(times)


def run_rounds(seconds: float, do_round, min_rounds: int = 1) -> None:
    """Whole rounds of the same operations, as many as fit about `seconds`
    going by the first round, so every run attempts whole rounds."""
    start = perf_counter()
    do_round(True)
    rounds = max(min_rounds, round(seconds / (perf_counter() - start)))
    for _ in range(rounds - 1):
        do_round(False)


class SpreadProbes:
    """Probe operations for end-to-end metrics the workload's own loop does
    not exercise, run PROBE_PASSES times at evenly spaced times through the
    run."""

    def __init__(self, bench, workload: str, seconds: float, seed: int):
        golden = {t["name"]: t for t in inputs.golden_triples()}
        self.actions = []
        if workload != "cli-specs":
            item = {"command": "corollary", "spec": "specs/corollary_indices.json"}
            self.actions.append(lambda: bench.op_cli(item, counted=False))
        if workload != "oracle":
            sims = [dict(golden[name], seed=seed + i) for i, name in enumerate(workloads.PROBE_SIM_TRIPLES)]
            self.actions.append(lambda: [bench.op_sim(t, counted=False) for t in sims])
        self.gap = seconds / workloads.PROBE_PASSES
        self.left = workloads.PROBE_PASSES if self.actions else 0
        self.due = perf_counter()

    def tick(self) -> None:
        if self.left and perf_counter() >= self.due:
            for action in self.actions:
                action()
            self.left -= 1
            self.due += self.gap

    def finish(self) -> None:
        while self.left:
            self.due = perf_counter()
            self.tick()


def timed(bench, probes, op, item, first_round: bool, index: int, **kw) -> None:
    """op(item); in a traced run the first operations also run untraced,
    for the tracing overhead."""
    probes.tick()
    if bench.tracing and first_round and index < workloads.OVERHEAD_PAIRS:
        bench.overhead_pair(lambda counted: op(item, counted=counted, **kw))
    else:
        op(item, **kw)


def run_cli_specs(bench, probes, items, seconds):
    def do_round(first):
        for i, item in enumerate(items):
            timed(bench, probes, bench.op_cli, item, first, i)

    # two rounds at least: two calls of a spec must print the same bytes
    run_rounds(seconds, do_round, min_rounds=2)


def run_verify(bench, probes, items, seconds, failing=None):
    def do_round(first):
        for i, item in enumerate(items):
            timed(bench, probes, bench.op_verify, item, first, i, failing=failing)

    run_rounds(seconds, do_round)


def run_oracle(bench, probes, items, seconds):
    """Each round simulates every triple SIM_REPEATS times, in passes spread
    between the identity checks, so that a triple's repeats meet the CPU at
    different moments."""
    checks = [item for item in items if item["identity"]]
    passes = workloads.SIM_REPEATS

    def do_round(first):
        for p in range(passes):
            for i, item in enumerate(items):
                timed(bench, probes, bench.op_sim, item, first and p == 0, i)
            for i, item in enumerate(checks[p::passes]):
                timed(bench, probes, bench.op_identity, item, first, i)

    run_rounds(seconds, do_round)


def run_probes(bench) -> None:
    """In-process probes, checked but not counted in attempted; their
    operations are short and calibrated one by one."""
    if "verify_s" not in bench.e2e:
        specs = [json.loads((ROOT / s).read_text()) for c, s in inputs.CLI_SPECS if c == "verify"]
        for i in range(workloads.PROBE_VERIFY_OPS):
            bench.op_verify(specs[i % len(specs)], counted=False)
    if "identity_s" not in bench.e2e:
        golden = {t["name"]: t for t in inputs.golden_triples()}
        for _ in range(workloads.PROBE_IDENTITY_OPS):
            bench.op_identity(golden[workloads.PROBE_IDENTITY_TRIPLE], counted=False)
    if bench.tracing:
        for command, spec in inputs.CLI_SPECS:
            if f"cli.command_ms.{command}" not in bench.layer:
                bench.cli_layers([command, spec])
        bench.import_layers()


def end_to_end(bench, workload: str, setup_s: float) -> dict:
    verify = bench.e2e["verify_s"]
    cli = [statistics.median(v) for name, v in bench.e2e.items() if name.startswith("cli_call_s ")]
    # per triple the median simulation; triples differ in cost, so their
    # medians are averaged rather than pooled
    sim_s = statistics.mean(statistics.median(v) for name, v in bench.e2e.items() if name.startswith("sim_s "))
    raw = {name: statistics.median(v) for name, v in bench.raw.items()}
    print(f"uncalibrated medians: {raw}", file=sys.stderr)
    if workload == "cli-specs":
        peak_kb = bench.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "cli_call_s": statistics.median(cli),
        "verify_ms": 1e3 * statistics.median(verify),
        "verify_tail_ms": 1e3 * workloads.tail(verify),
        "verify_per_s": len(verify) / sum(verify),
        "identity_s": statistics.median(bench.e2e["identity_s"]),
        "sim_rows_per_s": workloads.SIM_ROWS / sim_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(bench) -> dict:
    layer = bench.layer
    out = {name: statistics.median(values) for name, values in layer.items()}
    if "orders.points" in layer:
        out["orders.kept_ratio"] = sum(layer["orders.kept"]) / sum(layer["orders.points"])
    if "verifier.certified" in layer:
        out["verifier.certified"] = sum(layer["verifier.certified"])
    out["trace.overhead_ms"] = bench.overhead_ms()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coherent_age" / "__init__.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: {ROOT} holds no coherent-age source tree (src/coherent_age, specs/)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.environ.pop("COHERENT_AGE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    setup_s = measure_setup(args.workload, args.seed)

    bench = workloads.Bench(ROOT, trace=bool(args.trace))
    items = inputs.make(args.workload, args.seed)
    probes = SpreadProbes(bench, args.workload, args.seconds, args.seed)
    if args.workload == "cli-specs":
        run_cli_specs(bench, probes, items, args.seconds)
    elif args.workload == "oracle":
        run_oracle(bench, probes, items, args.seconds)
    else:
        failing = workloads.kofn_fault if args.workload == "kofn-corollary" else None
        run_verify(bench, probes, items, args.seconds, failing)
    probes.finish()
    run_probes(bench)

    if args.trace:
        values = per_layer(bench)
        kind = "per_layer"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        bench.tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = end_to_end(bench, args.workload, setup_s)
        kind = "end_to_end"
    metrics = {}
    for m in declared[kind]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"missing: {m['name']}", file=sys.stderr)
    for what in sorted(bench.missing):
        print(f"missing layer function: {what}", file=sys.stderr)
    for what in bench.errors[:20]:
        print(f"check failed: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
