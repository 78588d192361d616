"""Command-line front end for reproducible certification runs.

One JSON spec file drives each run; flags exist only for overrides.  One
table (``_COMMANDS``) says what each subcommand reads and runs: its
top-level fields and blocks, its grid and tolerance settings, its flags and
its output key.  ``load_spec``, the parser and the dispatch all read it, so
any other flag is a usage error and any other key a spec error.  Numeric
output is written with 17 significant digits so golden-file diffs are
meaningful, and every CSV/JSON artifact records the sha256 of the input spec.

Every spec field is read under the one rule in ``_num``: objects through
``_require``, numbers through ``_number``, ``_real`` and ``_integer``, and the
margin and copula fragments through ``read_fragment``, whose field lists and
defaults are the family classes' own.  The grid and tolerance settings,
from the spec and the flags, are checked once by the ``VerifyConfig`` built
from them, under the rule the library applies.  Any breach raises
``SpecError``.

The module loads only the spec rule and the corollary predicate; each
subcommand imports the numeric modules it runs, so ``simulate`` starts
without the order checks and verifier.  The module's own records are a
named tuple and a plain namespace, not dataclasses, so ``corollary`` starts
without numpy, ``dataclasses`` and ``inspect``; ``fractions`` loads only
for FGM's exact weights.

Subcommands and exit codes:

    distortion   table of p, h, h_prime, H, R          0 ok / 3 numeric flags
    check-order  margin order verdict CSV              0 holds / 2 fails / 3 inconclusive
    verify       condition-by-condition report (JSON)  0 certified / 2 not / 3 inconclusive
    simulate     empirical vs analytic survival CSV    0 ok / 3 oracle deviation > 4
    corollary    k-out-of-n index predicate            0 true / 2 false

Exit code 1 is reserved for input errors: a spec-schema error, an output
path that cannot be written, or a command-line usage error, which prints
the usage and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._num import SpecError, _integer, _real, _require
from .corollary import corollary_index_check

if TYPE_CHECKING:
    from .distributions import LifetimeDistribution
    from .montecarlo import SimConfig
    from .orders import OrderVerdict, VerifyConfig
    from .systems import Structure, SystemModel

__all__ = ["main", "SpecError", "load_spec"]

VERIFY_RELATIONS = ("c_star", "b_star")


def format_float(v: float) -> str:
    return f"{float(v):.17g}"


def spec_hash(raw: dict) -> str:
    import hashlib

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# schema validation

def _load_structure(d: dict, where: str) -> Structure:
    from .systems import Structure

    block = f"{where}.structure"
    _require(d, {"n", "paths"}, set(), block)
    n = _integer(d["n"], f"{block}.n")
    paths = d["paths"]
    if not (isinstance(paths, list) and all(isinstance(path, list) for path in paths)):
        raise SpecError(f"{block}.paths must be a list of lists, got {paths!r}")
    paths = [[_integer(i, f"{block}.paths entry") for i in path] for path in paths]
    try:
        return Structure.from_paths(n, paths)
    except ValueError as exc:
        raise SpecError(f"invalid structure in {where}: {exc}") from exc


def _load_system(d: dict, where: str, model: bool) -> SystemModel | LifetimeDistribution:
    """The system at ``where``: its SystemModel when ``model``, else its margin.

    A structure and a copula come together (the copula takes its dimension
    from the structure); a command that reads only the margin still
    validates them when given.
    """
    from .distributions import distribution_from_dict

    pair = {"structure", "copula"}
    _require(d, {"margin"}, pair, where)
    if model or pair & set(d):
        _require(d, {"margin"} | pair, set(), where)
    margin = distribution_from_dict(d["margin"], f"{where}.margin")
    if "structure" not in d:
        return margin
    from .copulas import copula_from_dict
    from .systems import SystemModel

    structure = _load_structure(d["structure"], where)
    copula = copula_from_dict(d["copula"], structure.n, f"{where}.copula")
    # the structure refuses what it cannot build when it is read, and the
    # copula takes its dimension from it, so the build cannot fail here
    return SystemModel(structure, copula, margin) if model else margin


class RunSpec(SimpleNamespace):
    """Validated run spec plus the raw dict it came from.

    A plain namespace, compared and shown field by field; not a dataclass,
    so that reading a spec loads no ``dataclasses``.
    """

    def __init__(self, raw: dict, command: str,
                 system1: SystemModel | LifetimeDistribution | None = None,
                 system2: SystemModel | LifetimeDistribution | None = None,
                 relation: str | None = None, cfg: VerifyConfig | None = None, sim: SimConfig | None = None,
                 output: str | None = None, indices: tuple[int, int, int, int] | None = None):
        super().__init__(raw=raw, command=command, system1=system1, system2=system2, relation=relation,
                         cfg=cfg, sim=sim, output=output, indices=indices)

    @property
    def sha256(self) -> str:
        return spec_hash(self.raw)


def load_spec(raw: dict, command: str, **flags) -> RunSpec:
    """Validate a raw spec dict for one subcommand; unknown fields are rejected.

    ``flags`` are the command's override flags by name (its row's
    ``flags``); those not None override the spec's values, and any other
    raises TypeError.  The final grid and tolerance settings are checked by
    the VerifyConfig built from them, whose ValueError becomes a SpecError.
    """
    if command not in _COMMANDS:
        raise SpecError(f"unknown command {command!r}")
    row = _COMMANDS[command]
    _require(raw, row.required, row.optional, "spec")
    spec = RunSpec(raw=raw, command=command)
    given = {key: value for key, value in flags.items() if value is not None}
    if not set(given) <= set(row.flags):
        raise TypeError(f"{command} takes only the flags {sorted(row.flags)}, got {sorted(given)}")

    if command == "corollary":
        spec.indices = tuple(_integer(raw[key], key) for key in ("k", "n", "l", "m"))
    for key in ("system1", "system2"):
        if key in raw:
            setattr(spec, key, _load_system(raw[key], key, row.models))

    if "relation" in raw:
        allowed = VERIFY_RELATIONS
        if command == "check-order":
            from .orders import RELATIONS as allowed
        spec.relation = raw["relation"]
        if spec.relation not in allowed:
            raise SpecError(f"relation must be one of {allowed}, got {spec.relation!r}")

    if row.settings:
        from .orders import VerifyConfig

        # VerifyConfig field names: grid.size gains a grid_ prefix
        settings = {}
        if "grid" in raw:
            keys = {key.removeprefix("grid_") for key in row.settings if key.startswith("grid_")}
            _require(raw["grid"], set(), keys, "grid")
            settings.update((f"grid_{key}", value) for key, value in raw["grid"].items())

        if "tolerances" in raw:
            keys = {key for key in row.settings if not key.startswith("grid_")}
            _require(raw["tolerances"], set(), keys, "tolerances")
            settings.update((key, _real(value, f"tolerances.{key}")) for key, value in raw["tolerances"].items())

        try:
            spec.cfg = VerifyConfig(**{**settings, **given})
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    if command == "simulate":
        from dataclasses import fields

        from .montecarlo import SimConfig

        block = raw.get("simulation", {})
        _require(block, set(), {f.name for f in fields(SimConfig)}, "simulation")
        values = {key: _integer(value, f"simulation.{key}") for key, value in block.items()}
        try:
            spec.sim = SimConfig(**{**values, **given})
        except ValueError as exc:
            raise SpecError(f"invalid simulation block: {exc}") from exc

    if "output" in raw:
        _require(raw["output"], set(), {row.output}, "output")
        if row.output in raw["output"]:
            spec.output = raw["output"][row.output]
            if not isinstance(spec.output, str):
                raise SpecError(f"output.{row.output} must be a path string, got {spec.output!r}")

    return spec


# ---------------------------------------------------------------------------
# emitters

def emit_table(meta: dict, header: list[str], rows: list[list[float]]) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write output: {exc}") from exc


def _verdict_csv(meta: dict, verdict: OrderVerdict) -> str:
    header = ["relation", "holds", "witness_x", "violation", "skipped_points"]
    witness = verdict.witness_x if verdict.witness_x is not None else float("nan")
    row = [verdict.relation, verdict.holds, float(witness), float(verdict.violation), verdict.skipped]
    return emit_table(meta, header, [row])


# ---------------------------------------------------------------------------
# commands: each returns its output text and its exit code

def _cmd_distortion(spec: RunSpec) -> tuple[str, int]:
    import numpy as np

    dist = spec.system1.distortion
    p = spec.cfg.p_grid.points
    columns = [np.asarray(f(p), dtype=float) for f in (dist.h, dist.h_prime, dist.H, dist.R)]
    rows = [[float(v) for v in row] for row in zip(p, *columns)]
    text = emit_table({"spec_sha256": spec.sha256}, ["p", "h", "h_prime", "H", "R"], rows)
    # numeric flags: a non-finite value anywhere in the table
    return text, 0 if np.all(np.isfinite(columns)) else 3


def _cmd_check_order(spec: RunSpec) -> tuple[str, int]:
    from .orders import Grid, check_order

    try:
        grid = Grid.margin_bracketed(spec.system1, spec.system2, size=spec.cfg.grid_size)
    except ValueError as exc:
        raise SpecError(f"cannot grid the two margins: {exc}") from exc
    verdict = check_order(spec.system1, spec.system2, spec.relation, grid=grid, tol=spec.cfg.tol)
    text = _verdict_csv({"spec_sha256": spec.sha256}, verdict)
    return text, {"yes": 0, "no": 2, "inconclusive": 3}[verdict.holds]


def _cmd_verify(spec: RunSpec) -> tuple[str, int]:
    from .verifier import verify_bstar, verify_cstar

    verify = verify_cstar if spec.relation == "c_star" else verify_bstar
    try:
        report = verify(spec.system1, spec.system2, spec.cfg)
    except ValueError as exc:
        raise SpecError(f"cannot verify the two systems: {exc}") from exc
    payload = {"spec_sha256": spec.sha256, **report.to_dict(), "exit_code": report.exit_code}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", report.exit_code


def _cmd_simulate(spec: RunSpec) -> tuple[str, int]:
    from .montecarlo import simulate_system

    model = spec.system1
    try:
        result = simulate_system(model.structure, model.copula, model.margin, spec.sim)
    # numpy refuses a sample it cannot hold: MemoryError when the allocation
    # fails, ValueError when its size is past what an array can address
    except (MemoryError, ValueError) as exc:
        raise SpecError(f"cannot simulate the system: {exc}") from exc
    meta = {
        "spec_sha256": spec.sha256,
        "seed": spec.sim.seed,
        "sample_count": spec.sim.sample_count,
        "stream_count": spec.sim.stream_count,
    }
    rows = [
        [float(a), float(b), float(c), float(d)]
        for a, b, c, d in zip(result.x, result.empirical_sf, result.analytic_sf, result.std_err)
    ]
    text = emit_table(meta, ["x", "empirical_sf", "analytic_sf", "std_err"], rows)
    return text, 3 if result.max_standardized_deviation > 4.0 else 0


def _cmd_corollary(spec: RunSpec) -> tuple[str, int]:
    k, n, l, m = spec.indices
    try:
        holds = corollary_index_check(k, n, l, m, spec.relation)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    payload = {
        "spec_sha256": spec.sha256,
        "k": k, "n": n, "l": l, "m": m,
        "relation": spec.relation,
        "holds": holds,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", 0 if holds else 2


class _Command(NamedTuple):
    """What one subcommand reads and runs.

    ``required`` and ``optional`` are its top-level spec fields; ``settings``
    the VerifyConfig fields it reads (``grid_size`` from ``grid.size``, the
    rest from ``tolerances``); ``flags`` its override flags, as load_spec
    keywords, with their types; ``output`` the one key of the ``output``
    block it writes to (stdout without it); ``models`` whether its systems
    must be whole models, else a system is read as its margin.
    """

    required: set[str]
    optional: set[str]
    settings: set[str]
    flags: dict[str, type]
    output: str | None
    models: bool
    run: Callable[[RunSpec], tuple[str, int]]


_COMMANDS = {
    "distortion": _Command({"system1"}, {"grid", "tolerances", "output"}, {"grid_size", "eps_endpoint"},
                           {"grid_size": int, "eps_endpoint": float}, "csv", True, _cmd_distortion),
    "check-order": _Command({"system1", "system2", "relation"}, {"grid", "tolerances", "output"},
                            {"grid_size", "tol"}, {"grid_size": int, "tol": float}, "csv", False, _cmd_check_order),
    "verify": _Command({"system1", "system2", "relation"}, {"grid", "tolerances", "output"},
                       {"grid_size", "tol", "sign_slack", "eps_endpoint"},
                       {"grid_size": int, "tol": float, "eps_endpoint": float}, "json", True, _cmd_verify),
    "simulate": _Command({"system1"}, {"simulation", "output"}, set(), {"seed": int}, "csv", True, _cmd_simulate),
    "corollary": _Command({"k", "n", "l", "m", "relation"}, set(), set(), {}, None, False, _cmd_corollary),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the code of every input error,
    so that a mistyped flag never reads as a verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coherent-age",
        description="Grid-certified relative-ageing comparisons of coherent systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("spec", help="path to the JSON run spec")
        for key, kind in row.flags.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError covers JSONDecodeError and an integer literal past the
    # interpreter's digit limit, which json.load refuses with a plain ValueError;
    # RecursionError a document nested past the interpreter's recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 1
    row = _COMMANDS[args.command]
    try:
        spec = load_spec(raw, args.command, **{key: getattr(args, key) for key in row.flags})
        text, code = row.run(spec)
        _write(text, spec.output)
        return code
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
