"""Operations, correctness checks and metrics of the benchmark workloads.

Every operation goes through the command line or the library API the
README documents.  Each output is checked against reference.py or against
a property the method must have, never against a saved copy of an output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference
from tracing import NullTracer, Tracer, duration

P_FIXED = (0.0, 1e-6, 1e-3, 0.5, 0.999, 1.0 - 1e-6, 1.0)
PGRID_SIZE = 2001
IDENTITY_GRID = 200
IDENTITY_CHUNKS = 20
SIM_ROWS = 100_000
# simulations of each triple in an oracle round
SIM_REPEATS = 3
# operations the probes run for end-to-end metrics a workload's own loop
# does not exercise, so that every run reports every metric
PROBE_PASSES = 3
PROBE_VERIFY_OPS = 40
PROBE_SIM_TRIPLES = ("fgm-pair-series", "series3-indep", "gumbel-series4", "clayton-series3")
PROBE_IDENTITY_TRIPLE = "series3-indep"
PROBE_IDENTITY_OPS = 2
# traced runs time this many operations also untraced, for the overhead
OVERHEAD_PAIRS = 12


# Calibration.  On a shared machine the CPU runs at two speeds about 1.7x
# apart, switching within a second or so, and raw timings of the same work
# spread by a third between runs.  Each in-process operation is therefore
# bracketed by a fixed kernel that runs no program code, and its time is
# rescaled to the kernel's time at the fast speed: time * FAST / (mean of
# the two kernel times).  The scalar kernel tracks the scalar numpy calls
# that dominate certification and quadrature; the array kernel tracks the
# large-array work of sampling.  Next to a certification the scaled ratio
# moved by 4% where raw times moved by 30%.
_CAL_ARRAY = np.random.default_rng(0).random(300_000)
SCALAR_FAST_S = 350e-6  # kernel times at the fast speed, 2-CPU reference machine
ARRAY_FAST_S = 3.6e-3


# CLI calls run in a child process, which the parent's kernels do not
# track; they are bracketed by a fresh interpreter importing numpy instead
# (its wall time moved by 5% between batches where the CLI's moved by 18%)
CHILD_KERNEL = ("-c", "import numpy")
CHILD_FAST_S = 0.146


def scalar_kernel_s() -> float:
    start = perf_counter()
    x = 0.3
    for _ in range(60):
        a = np.asarray(x, dtype=float)
        if np.any(a < 0.0):
            break
        x = float(-np.expm1(-a * 1.0001)) + 0.1
    return perf_counter() - start


def array_kernel_s() -> float:
    start = perf_counter()
    for _ in range(3):
        np.exp(-_CAL_ARRAY) * np.log1p(_CAL_ARRAY)
    return perf_counter() - start


def calibrated(fn, kernel=scalar_kernel_s, fast=SCALAR_FAST_S):
    """(fn(), raw seconds, seconds rescaled to the fast CPU speed)."""
    before = kernel()
    start = perf_counter()
    out = fn()
    seconds = perf_counter() - start
    return out, seconds, seconds * fast / (0.5 * (before + kernel()))


def tail(values):
    """The highest percentile with at least ten values beyond it; the
    median when there are fewer than forty values."""
    if len(values) < 40:
        return statistics.median(values)
    return sorted(values)[len(values) - 11]


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def conclusion_from(statuses: dict) -> str:
    """The conclusion the routes {i, ii, iv} and {i, iii, iv} give."""
    routes = (("i", "ii", "iv"), ("i", "iii", "iv"))
    if any(all(statuses[c] == "pass" for c in r) for r in routes):
        return "certified"
    if all(any(statuses[c] == "fail" for c in r) for r in routes):
        return "not-certified-by-this-route"
    return "inconclusive"


def parse_table(text: str):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


class Bench:
    """One benchmark run: its operations, checks, samples and spans."""

    def __init__(self, root: Path, trace: bool):
        import coherent_age

        self.ca = coherent_age
        self.root = root
        self.tracer = Tracer() if trace else NullTracer()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, list[float]] = {}
        self.layer: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.missing: set[str] = set()
        self.child_rss_kb = 0
        self._seen: dict[str, object] = {}
        self._cli_stdout: dict[str, bytes] = {}
        self._overhead: list[tuple[float, float]] = []
        # the untraced twin of an operation in a traced run samples nothing
        self.quiet = False
        self.last_seconds = 0.0
        self._ops = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        env.pop("COHERENT_AGE_THREADS", None)
        self.child_env = env

    # -- bookkeeping ---------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return isinstance(self.tracer, Tracer)

    def error(self, what: str) -> None:
        self.errors.append(what)

    def sample(self, name: str, value: float, table=None) -> None:
        table = self.e2e if table is None else table
        if not (self.quiet and table is not self.layer):
            table.setdefault(name, []).append(value)

    def timing(self, name: str, fn, kernel=scalar_kernel_s, fast=SCALAR_FAST_S):
        """fn(), sampling its calibrated seconds as `name` (raw ones aside)."""
        out, seconds, at_fast = calibrated(fn, kernel, fast)
        self.last_seconds = at_fast
        self.sample(name, at_fast)
        self.sample(name, seconds, self.raw)
        return out

    def once(self, key: str, fn):
        """fn() the first time key is seen in this run, its cached result after."""
        if key not in self._seen:
            self._seen[key] = fn()
        return self._seen[key]

    def first_time(self, key: str) -> bool:
        if key in self._seen:
            return False
        self._seen[key] = True
        return True

    def layer_call(self, name: str, fn):
        """Time fn() as layer span `name`; a function a later change removed
        or merged is reported as missing instead of failing the run."""
        try:
            with self.tracer.span(name) as record:
                out = fn()
        except (AttributeError, TypeError) as exc:
            self.missing.add(f"{name}: {exc}")
            return None, None
        return out, duration(record)

    def new_op(self) -> None:
        """Give the spans of the next operation their own operation id."""
        self._ops += 1
        self.tracer.op = self._ops

    def count(self, failed: bool) -> None:
        self.attempted += 1
        self.failed += int(failed)

    # -- program entry points --------------------------------------------------

    def model(self, block: dict):
        ca = self.ca
        structure = ca.Structure.from_paths(int(block["structure"]["n"]), block["structure"]["paths"])
        copula = ca.copula_from_dict(block["copula"], structure.n)
        margin = ca.distribution_from_dict(block["margin"])
        with self.tracer.span("systems.build") as record:
            system = ca.SystemModel(structure, copula, margin)
        if self.tracing:
            self.sample("systems.build_ms", 1e3 * duration(record), self.layer)
        return system

    def child_kernel_s(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, *CHILD_KERNEL], cwd=self.root, env=self.child_env, check=True)
        return perf_counter() - start

    def cli_call(self, argv: list[str]):
        """Run the command line in a fresh interpreter: (wall s, exit code,
        stdout, stderr, peak RSS kB of the child)."""
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "coherent_age.cli", *argv],
            cwd=self.root, env=self.child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        return wall, proc.returncode, out, err[0], usage.ru_maxrss

    # -- operations ---------------------------------------------------------------

    def op_cli(self, item: dict, counted: bool = True) -> None:
        self.new_op()
        argv = [item["command"], item["spec"]]
        if "seed" in item:
            argv += ["--seed", str(item["seed"])]
        before = self.child_kernel_s()
        with self.tracer.span("cli.call"):
            wall, code, out, err, rss = self.cli_call(argv)
        at_fast = wall * CHILD_FAST_S / (0.5 * (before + self.child_kernel_s()))
        self.child_rss_kb = max(self.child_rss_kb, rss)
        self.last_seconds = at_fast
        self.sample("cli_call_s " + " ".join(argv), at_fast)
        self.sample("cli_call_s", wall, self.raw)
        self.check_cli(item, code, out, err)
        previous = self._cli_stdout.setdefault(_key(argv), out)
        if previous != out:
            self.error(f"{' '.join(argv)}: stdout differs between two calls")
        if counted:
            self.count(False)
        if self.tracing and self.first_time("cli-layers" + _key(argv)):
            self.cli_layers(argv)

    def op_verify(self, item: dict, failing=None, counted: bool = True) -> None:
        """Build both systems from their spec dicts and certify the relation.

        failing(report) says whether the kept fault hit the operation."""
        self.new_op()
        verify = self.ca.verify_cstar if item["relation"] == "c_star" else self.ca.verify_bstar
        spans = []

        def op():
            with self.tracer.span("verify.op"):
                models = self.model(item["system1"]), self.model(item["system2"])
                with self.tracer.span("verifier.verify") as span:
                    spans.append(span)
                    return models, verify(*models)

        (sys1, sys2), report = self.timing("verify_s", op)
        failed = (failing or _unsound)(report)
        self.check_verify(item, sys1, sys2, report, failed)
        if counted:
            self.count(failed)
        if self.tracing and self.first_time("verify-layers" + _key(item)):
            self.verify_layers(item, sys1, sys2, report, duration(spans[0]))

    def op_identity(self, triple: dict, counted: bool = True) -> None:
        """The integral identity check on a 200-point grid, run as
        IDENTITY_CHUNKS calls on consecutive slices of the grid, each
        calibrated on its own: one call lasts about a second, longer than
        the CPU keeps one speed."""
        self.new_op()
        ca = self.ca
        system = self.model(triple["system"])
        grid = ca.Grid.margin_bracketed(system.margin, system.margin, size=IDENTITY_GRID)
        raw = scaled = worst = 0.0
        for points in np.array_split(grid.points, IDENTITY_CHUNKS):
            with self.tracer.span("orders.identity") as record:
                rep, seconds, at_fast = calibrated(
                    lambda: ca.integral_identity_check(system, ca.Grid(points), quad_tol=1e-9))
            raw, scaled, worst = raw + seconds, scaled + at_fast, max(worst, rep.max_abs)
            if self.tracing:
                self.sample("orders.identity_point_ms", 1e3 * duration(record) / len(points), self.layer)
        self.last_seconds = scaled
        self.sample("identity_s", scaled)
        self.sample("identity_s", raw, self.raw)
        if not worst <= 1e-6:
            self.error(f"identity {triple['name']}: residual {worst:.3e} > 1e-6")
        if counted:
            self.count(False)

    def op_sim(self, triple: dict, counted: bool = True) -> None:
        self.new_op()
        ca = self.ca
        system = self.model(triple["system"])
        cfg = ca.SimConfig(sample_count=SIM_ROWS, seed=triple["seed"], stream_count=4)
        spans = []

        def op():
            with self.tracer.span("montecarlo.simulate") as span:
                spans.append(span)
                return ca.simulate_system(system.structure, system.copula, system.margin, cfg)

        res = self.timing("sim_s " + triple["name"], op, array_kernel_s, ARRAY_FAST_S)
        self.check_sim(triple, res)
        if self.first_time("same-seed" + _key(triple)):
            a = ca.sample_copula(system.copula, cfg)
            b = ca.sample_copula(system.copula, cfg)
            if a.tobytes() != b.tobytes():
                self.error(f"simulate {triple['name']}: the same seed gave different samples")
        if counted:
            self.count(False)
        if self.tracing:
            self.sim_layers(triple, system, cfg, duration(spans[0]))

    # -- checks -----------------------------------------------------------------

    def check_cli(self, item: dict, code: int, out: bytes, err: bytes) -> None:
        command, spec_path = item["command"], item["spec"]
        where = f"{command} {spec_path}"
        spec = json.loads((self.root / spec_path).read_text(encoding="utf-8"))
        text = out.decode("utf-8", errors="replace")
        try:
            expected = getattr(self, "_cli_" + command.replace("-", "_"))(item, spec, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.error(f"{where}: unreadable output ({exc}); exit {code}; stderr {err[-300:]!r}")
            return
        if code != expected:
            self.error(f"{where}: exit code {code}, documented {expected}; stderr {err[-300:]!r}")

    def _cli_distortion(self, item, spec, text):
        _, header, rows = parse_table(text)
        if header != ["p", "h", "h_prime", "H", "R"]:
            raise ValueError(f"header {header}")
        table = np.array(rows, dtype=float)
        ref = np.array(self.once("ref-table" + item["spec"], lambda: reference.distortion_table(
            spec["system1"], table[:, 0])))
        err_h = float(np.max(np.abs(table[:, 1] - ref[:, 0])))
        err_rel = float(np.max(np.abs(table[:, 2:] - ref[:, 1:]) / np.abs(ref[:, 1:])))
        if not (err_h <= 1e-12 and err_rel <= 1e-9):
            self.error(f"distortion: h off by {err_h:.2e}, h'/H/R off by {err_rel:.2e} relative")
        return 0 if np.all(np.isfinite(table)) else 3

    def _cli_check_order(self, item, spec, text):
        _, header, rows = parse_table(text)
        relation, holds = rows[0][0], rows[0][1]
        if relation != spec["relation"] or holds != "yes":
            self.error(f"check-order: verdict {relation} {holds}, expected {spec['relation']} yes")
        ref = self.once("ref-order" + item["spec"], lambda: reference.direct_ratio(
            {"margin": spec["system1"]["margin"]}, {"margin": spec["system2"]["margin"]}, spec["relation"]))
        if not ref["holds"]:
            self.error(f"check-order: reference ratio reverses by {ref['violation']:.2e}")
        return {"yes": 0, "no": 2, "inconclusive": 3}[holds]

    def _cli_verify(self, item, spec, text):
        payload = json.loads(text)
        statuses = {c["name"]: c["status"] for c in payload["conditions"]}
        if payload["conclusion"] != conclusion_from(statuses):
            self.error(f"verify {item['spec']}: conclusion {payload['conclusion']} does not follow {statuses}")
        if payload["conclusion"] != "certified":
            self.error(f"verify {item['spec']}: {payload['conclusion']}, the worked example is certified")
        ref = self.once("ref-direct" + item["spec"], lambda: reference.direct_ratio(
            spec["system1"], spec["system2"], spec["relation"]))
        if not ref["holds"]:
            self.error(f"verify {item['spec']}: reference ratio reverses by {ref['violation']:.2e}")
        expected = {"certified": 0, "inconclusive": 3}.get(payload["conclusion"], 2)
        if payload["exit_code"] != expected:
            self.error(f"verify {item['spec']}: exit_code field {payload['exit_code']}")
        return expected

    def _cli_simulate(self, item, spec, text):
        meta, header, rows = parse_table(text)
        if header != ["x", "empirical_sf", "analytic_sf", "std_err"]:
            raise ValueError(f"header {header}")
        table = np.array(rows, dtype=float)
        count = int(meta["sample_count"])
        self._check_curve(f"simulate {item['spec']}", spec["system1"], table[:, 0], table[:, 2], table[:, 1], count)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(table[:, 1] - table[:, 2]) / table[:, 3]
        return 3 if np.max(dev) > 4.0 else 0

    def _cli_corollary(self, item, spec, text):
        payload = json.loads(text)
        k, n, l, m = (spec[c] for c in "knlm")
        holds = inputs.corollary_holds(k, n, l, m, spec["relation"])
        if payload["holds"] is not holds:
            self.error(f"corollary: printed {payload['holds']}, the index predicate gives {holds}")
        return 0 if holds else 2

    def _check_curve(self, where, block, xs, analytic, empirical, count) -> None:
        """Analytic survival against the reference, and the empirical curve
        within 5 standard errors of the reference."""
        ref = np.array(self.once("ref-curve" + _key(block) + _key(list(xs)), lambda: [
            float(reference.twice_checked(lambda x: reference.RefSystem(block).h(reference.margin_sf(block["margin"], x)), x))
            for x in xs
        ]))
        err = float(np.max(np.abs(analytic - ref)))
        if not err <= 1e-12:
            self.error(f"{where}: analytic survival off the reference by {err:.2e}")
        se = np.sqrt(ref * (1.0 - ref) / count)
        dev = float(np.max(np.abs(empirical - ref) / se))
        if not dev <= 5.0:
            self.error(f"{where}: empirical survival {dev:.2f} standard errors off")

    def check_sim(self, triple, res) -> None:
        self._check_curve(f"simulate {triple['name']}", triple["system"], res.x, res.analytic_sf,
                          res.empirical_sf, res.sample_count)

    def check_verify(self, item, sys1, sys2, report, failed) -> None:
        where = f"{item['relation']} {item.get('kofn') or _key([item['system1'], item['system2']])}"
        for block, system in ((item["system1"], sys1), (item["system2"], sys2)):
            if self.first_time("h-checked" + _key(block)):
                ref = np.array(reference.h_values(block, P_FIXED))
                got = np.array([system.distortion.h(np.array(P_FIXED)),
                                system.distortion.one_minus_h(np.array(P_FIXED))]).T
                worst = float(np.max(np.abs(got - ref)))
                if not worst <= 1e-12:
                    self.error(f"{_key(block)}: h or 1-h off the reference by {worst:.2e}")
        statuses = {c.name: c.status for c in report.conditions}
        if report.conclusion != conclusion_from(statuses):
            self.error(f"{where}: conclusion {report.conclusion} does not follow {statuses}")
        if report.conclusion == "certified" and not failed:
            ref = self.once("ref-direct" + _key(item), lambda: reference.direct_ratio(
                item["system1"], item["system2"], item["relation"]))
            if not ref["holds"]:
                self.error(f"{where}: certified, but the reference ratio reverses by {ref['violation']:.2e}")

    # -- per-layer decomposition (traced runs only) -------------------------------

    def cli_layers(self, argv) -> None:
        from coherent_age import cli

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))

        _, seconds = self.layer_call(f"cli.command.{argv[0]}", run)
        if seconds is not None:
            self.sample(f"cli.command_ms.{argv[0]}", 1e3 * seconds, self.layer)

    def verify_layers(self, item, sys1, sys2, report, verify_s) -> None:
        ca, lc, relation = self.ca, self.layer_call, item["relation"]
        lay = self.layer
        xs = [float(x) for x in np.geomspace(0.05, 5.0, 100)]
        _, s = lc("distributions.cdf_scalar", lambda: [sys1.margin.cdf(x) for x in xs])
        if s is not None:
            self.sample("distributions.cdf_scalar_us", 1e6 * s / len(xs), lay)
        p = ca.Grid.probability(1e-3, PGRID_SIZE).points

        def exch(copula):
            for j in range(1, copula.dim + 1):
                copula.exch(p, j), copula.exch_deriv(p, j), copula.exch_compl(p, j)

        _, s = lc("copulas.exch", lambda: exch(sys1.copula))
        if s is not None:
            self.sample("copulas.exch_ms", 1e3 * s, lay)

        def functionals(d):
            d.h(p), d.one_minus_h(p), d.h_prime(p), d.H(p), d.R(p), d.H_prime(p), d.R_prime(p)

        attributed = 0.0
        for system in (sys1, sys2):
            _, s = lc("systems.functionals", lambda: functionals(system.distortion))
            if s is not None:
                self.sample("systems.functionals_ms", 1e3 * s, lay)
                attributed += s
        xgrid, s = lc("orders.margin_bracket", lambda: ca.Grid.margin_bracketed(sys1.margin, sys2.margin))
        if s is not None:
            self.sample("orders.margin_bracket_ms", 1e3 * s, lay)
            attributed += s
        verdicts = [report.direct]
        if xgrid is not None:
            for system in (sys1, sys2):
                _, s = lc("systems.cum_hazard", lambda: (system.cum_hazard(xgrid.points),
                                                         system.cum_rev_hazard(xgrid.points)))
                if s is not None:
                    self.sample("systems.cum_hazard_ms", 1e3 * s, lay)
            st_pair = (sys2, sys1) if relation == "c_star" else (sys1, sys2)
            for a, b, rel in ((sys1, sys2, relation), (st_pair[0], st_pair[1], "st")):
                v, s = lc("orders.check_order", lambda: ca.check_order(a.margin, b.margin, rel, grid=xgrid))
                if s is not None:
                    self.sample("orders.check_order_ms", 1e3 * s, lay)
                    attributed += s
                    verdicts.append(v)
        sgrid, s = lc("orders.system_bracket", lambda: ca.Grid.system_bracketed(sys1, sys2))
        if s is not None:
            self.sample("orders.system_bracket_ms", 1e3 * s, lay)
            attributed += s
            v, s = lc("orders.direct", lambda: ca.system_order_direct(sys1, sys2, relation, grid=sgrid))
            if s is not None:
                self.sample("orders.direct_ms", 1e3 * s, lay)
                attributed += s
                verdicts.append(v)
        self.sample("verifier.unattributed_ms", 1e3 * (verify_s - attributed), lay)
        self.sample("orders.kept", sum(v.checked for v in verdicts), lay)
        self.sample("orders.points", sum(v.checked + v.skipped for v in verdicts), lay)
        self.sample("verifier.certified", float(report.conclusion == "certified"), lay)

    def sim_layers(self, triple, system, cfg, simulate_s) -> None:
        _, s = self.layer_call("montecarlo.sample", lambda: self.ca.sample_copula(system.copula, cfg))
        if s is None:
            return
        family = triple["system"]["copula"]["copula"]
        self.sample(f"montecarlo.sample_rows_per_s.{family}", cfg.sample_count / s, self.layer)
        self.sample("montecarlo.eval_ms", 1e3 * (simulate_s - s), self.layer)

    def import_layers(self) -> None:
        snippet = "import time; t = time.perf_counter(); import coherent_age.cli; print(time.perf_counter() - t)"
        for _ in range(3):
            out = subprocess.run([sys.executable, "-c", snippet], cwd=self.root, env=self.child_env,
                                 capture_output=True, text=True, check=True).stdout
            self.sample("cli.import_s", float(out), self.layer)
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coherent_age.cli"],
                             cwd=self.root, env=self.child_env, capture_output=True, text=True,
                             check=True).stderr
        self.sample("cli.import_scipy_s", scipy_import_s(err), self.layer)

    # -- overhead of tracing --------------------------------------------------------

    def overhead_pair(self, run_op) -> None:
        """Run one operation traced and untraced, alternating which runs
        first; the untraced twin is neither counted nor sampled."""
        times = {}
        for traced in ((True, False) if len(self._overhead) % 2 else (False, True)):
            tracer = self.tracer
            if not traced:
                self.tracer, self.quiet = NullTracer(), True
            run_op(traced)
            self.tracer, self.quiet = tracer, False
            times[traced] = self.last_seconds
        self._overhead.append((times[True], times[False]))

    def overhead_ms(self) -> float:
        traced = statistics.median(t for t, _ in self._overhead)
        plain = statistics.median(p for _, p in self._overhead)
        return 1e3 * (traced - plain)


def _unsound(report) -> bool:
    return report.conclusion == "certified" and report.direct.holds != "yes"


def kofn_fault(report) -> bool:
    """The corollary says every kofn-corollary pair ages faster, so a report
    that is not certified, or whose direct check disagrees, is the
    cancellation fault in the distortion engine."""
    return report.conclusion != "certified" or report.direct.holds != "yes"


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent importing scipy packages, from `python -X importtime`:
    the cumulative time of every scipy entry with no scipy ancestor."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        stripped = name.strip()
        entries.append((len(name) - len(name.lstrip()), stripped, int(cumulative)))
    total = 0
    ancestors: list[tuple[int, str]] = []
    # the log lists children before parents; walk it parents first
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6
