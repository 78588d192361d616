"""Command-line front end for reproducible certification runs.

One JSON spec file drives each run; flags exist only for overrides, and
each subcommand takes only the flags (``_FLAGS``) and the grid and tolerance
keys (``_SETTINGS``) it reads, so any other flag is a usage error and any
other key a spec error.  Numeric output is written with
17 significant digits so golden-file diffs are meaningful, and every CSV/JSON
artifact records the sha256 of the input spec.

Every spec field is read under the one rule in ``_num``: objects through
``_require``, numbers through ``_number``, ``_real`` and ``_integer``, and the
margin and copula fragments through ``read_fragment``, whose field lists and
defaults are the family classes' own.  The grid and tolerance settings,
from the spec and the flags, are checked once by the ``VerifyConfig`` built
from them, under the rule the library applies.  Any breach raises
``SpecError``.

The module loads only the spec rule and the corollary predicate; each
subcommand imports the numeric modules it runs, so ``corollary`` starts
without numpy and ``simulate`` without the order checks and verifier.

Subcommands and exit codes:

    distortion   table of p, h, h_prime, H, R          0 ok / 3 numeric flags
    check-order  margin order verdict CSV              0 holds / 2 fails / 3 inconclusive
    verify       condition-by-condition report (JSON)  0 certified / 2 not / 3 inconclusive
    simulate     empirical vs analytic survival CSV    0 ok / 3 oracle deviation > 4
    corollary    k-out-of-n index predicate            0 true / 2 false

Exit code 1 is reserved for input errors: a spec-schema error or a
command-line usage error, which prints the usage and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._num import SpecError, _integer, _real, _require
from .corollary import corollary_index_check

if TYPE_CHECKING:
    from .copulas import Copula
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


@dataclass
class SystemBlock:
    margin: LifetimeDistribution
    structure: Structure | None = None
    copula: Copula | None = None

    def model(self, where: str) -> SystemModel:
        from .systems import SystemModel

        if self.structure is None or self.copula is None:
            raise SpecError(f"{where} needs both 'structure' and 'copula' for this command")
        # the structure refuses what it cannot build when it is read, and the
        # copula takes its dimension from it, so the build cannot fail here
        return SystemModel(self.structure, self.copula, self.margin)


def _load_system(d: dict, where: str) -> SystemBlock:
    from .distributions import distribution_from_dict

    _require(d, {"margin"}, {"structure", "copula"}, where)
    margin = distribution_from_dict(d["margin"], f"{where}.margin")
    structure = _load_structure(d["structure"], where) if "structure" in d else None
    copula = None
    if "copula" in d:
        if structure is None:
            raise SpecError(f"{where}: 'copula' requires 'structure' for its dimension")
        from .copulas import copula_from_dict

        copula = copula_from_dict(d["copula"], structure.n, f"{where}.copula")
    elif structure is not None:
        raise SpecError(f"{where}: 'structure' requires 'copula'")
    return SystemBlock(margin=margin, structure=structure, copula=copula)


# the grid and tolerance keys each command reads
_SETTINGS = {
    "distortion": ({"size"}, {"eps_endpoint"}),
    "check-order": ({"size"}, {"tol"}),
    "verify": ({"size"}, {"tol", "sign_slack", "eps_endpoint"}),
}
_SIM_DEFAULTS = {"sample_count": 100_000, "seed": 0, "stream_count": 4}
_OUTPUT_KEYS = {"csv", "json"}


@dataclass
class RunSpec:
    """Validated run spec plus the raw dict it came from."""

    raw: dict
    command: str
    system1: SystemBlock | None = None
    system2: SystemBlock | None = None
    relation: str | None = None
    cfg: VerifyConfig | None = None
    sim: SimConfig | None = None
    out_csv: str | None = None
    out_json: str | None = None
    indices: tuple[int, int, int, int] | None = None

    @property
    def sha256(self) -> str:
        return spec_hash(self.raw)


def load_spec(
    raw: dict,
    command: str,
    *,
    grid_size: int | None = None,
    tol: float | None = None,
    eps_endpoint: float | None = None,
    seed: int | None = None,
) -> RunSpec:
    """Validate a raw spec dict for one subcommand; unknown fields are rejected.

    Keywords that are not None override the spec's values (the command-line
    flags); the final grid and tolerance settings are checked by the
    VerifyConfig built from them, whose ValueError becomes a SpecError.
    """
    schemas = {
        "distortion": ({"system1"}, {"grid", "tolerances", "output"}),
        "check-order": ({"system1", "system2", "relation"}, {"grid", "tolerances", "output"}),
        "verify": ({"system1", "system2", "relation"}, {"grid", "tolerances", "output"}),
        "simulate": ({"system1"}, {"simulation", "output"}),
        "corollary": ({"k", "n", "l", "m", "relation"}, set()),
    }
    if command not in schemas:
        raise SpecError(f"unknown command {command!r}")
    required, optional = schemas[command]
    _require(raw, required, optional, "spec")
    spec = RunSpec(raw=raw, command=command)

    if command == "corollary":
        spec.indices = tuple(_integer(raw[key], key) for key in ("k", "n", "l", "m"))
        spec.relation = raw["relation"]
        if spec.relation not in VERIFY_RELATIONS:
            raise SpecError(f"relation must be one of {VERIFY_RELATIONS}, got {spec.relation!r}")
        return spec

    spec.system1 = _load_system(raw["system1"], "system1")
    if "system2" in raw:
        spec.system2 = _load_system(raw["system2"], "system2")

    if "relation" in raw:
        from .orders import RELATIONS

        allowed = VERIFY_RELATIONS if command == "verify" else RELATIONS
        spec.relation = raw["relation"]
        if spec.relation not in allowed:
            raise SpecError(f"relation must be one of {allowed}, got {spec.relation!r}")

    if command in _SETTINGS:
        from .orders import VerifyConfig

        # VerifyConfig field names: grid.size gains a grid_ prefix
        settings = {}
        if "grid" in raw:
            _require(raw["grid"], set(), _SETTINGS[command][0], "grid")
            settings.update((f"grid_{key}", value) for key, value in raw["grid"].items())

        if "tolerances" in raw:
            _require(raw["tolerances"], set(), _SETTINGS[command][1], "tolerances")
            settings.update((key, _real(value, f"tolerances.{key}")) for key, value in raw["tolerances"].items())

        flags = {"grid_size": grid_size, "tol": tol, "eps_endpoint": eps_endpoint}
        settings.update((key, value) for key, value in flags.items() if value is not None)
        try:
            spec.cfg = VerifyConfig(**settings)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    if command == "simulate":
        from .montecarlo import SimConfig

        block = raw.get("simulation", {})
        _require(block, set(), set(_SIM_DEFAULTS), "simulation")
        if seed is not None:
            block = {**block, "seed": seed}
        fields = {key: _integer(block.get(key, default), f"simulation.{key}")
                  for key, default in _SIM_DEFAULTS.items()}
        try:
            spec.sim = SimConfig(**fields)
        except ValueError as exc:
            raise SpecError(f"invalid simulation block: {exc}") from exc

    if "output" in raw:
        _require(raw["output"], set(), _OUTPUT_KEYS, "output")
        spec.out_csv = raw["output"].get("csv")
        spec.out_json = raw["output"].get("json")

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
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _verdict_csv(meta: dict, verdict: OrderVerdict) -> str:
    header = ["relation", "holds", "witness_x", "violation", "skipped_points"]
    witness = verdict.witness_x if verdict.witness_x is not None else float("nan")
    row = [verdict.relation, verdict.holds, float(witness), float(verdict.violation), verdict.skipped]
    return emit_table(meta, header, [row])


# ---------------------------------------------------------------------------
# commands

def _cmd_distortion(spec: RunSpec) -> int:
    import numpy as np

    dist = spec.system1.model("system1").distortion
    p = spec.cfg.p_grid.points
    columns = [np.asarray(f(p), dtype=float) for f in (dist.h, dist.h_prime, dist.H, dist.R)]
    rows = [[float(v) for v in row] for row in zip(p, *columns)]
    text = emit_table({"spec_sha256": spec.sha256}, ["p", "h", "h_prime", "H", "R"], rows)
    _write(text, spec.out_csv)
    # numeric flags: a non-finite value anywhere in the table
    return 0 if np.all(np.isfinite(columns)) else 3


def _cmd_check_order(spec: RunSpec) -> int:
    from .orders import Grid, check_order

    m1, m2 = spec.system1.margin, spec.system2.margin
    try:
        grid = Grid.margin_bracketed(m1, m2, size=spec.cfg.grid_size)
    except ValueError as exc:
        raise SpecError(f"cannot grid the two margins: {exc}") from exc
    verdict = check_order(m1, m2, spec.relation, grid=grid, tol=spec.cfg.tol)
    text = _verdict_csv({"spec_sha256": spec.sha256}, verdict)
    _write(text, spec.out_csv)
    return {"yes": 0, "no": 2, "inconclusive": 3}[verdict.holds]


def _cmd_verify(spec: RunSpec) -> int:
    from .verifier import verify_bstar, verify_cstar

    sys1 = spec.system1.model("system1")
    sys2 = spec.system2.model("system2")
    verify = verify_cstar if spec.relation == "c_star" else verify_bstar
    try:
        report = verify(sys1, sys2, spec.cfg)
    except ValueError as exc:
        raise SpecError(f"cannot verify the two systems: {exc}") from exc
    payload = {"spec_sha256": spec.sha256, **report.to_dict(), "exit_code": report.exit_code}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", spec.out_json)
    return report.exit_code


def _cmd_simulate(spec: RunSpec) -> int:
    from .montecarlo import simulate_system

    model = spec.system1.model("system1")
    result = simulate_system(model.structure, model.copula, model.margin, spec.sim)
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
    _write(text, spec.out_csv)
    return 3 if result.max_standardized_deviation > 4.0 else 0


def _cmd_corollary(spec: RunSpec) -> int:
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
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if holds else 2


_COMMANDS = {
    "distortion": _cmd_distortion,
    "check-order": _cmd_check_order,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "corollary": _cmd_corollary,
}


# the override flags each subcommand reads, as load_spec keywords
_FLAGS = {
    "distortion": {"grid_size": int, "eps_endpoint": float},
    "check-order": {"grid_size": int, "tol": float},
    "verify": {"grid_size": int, "tol": float, "eps_endpoint": float},
    "simulate": {"seed": int},
    "corollary": {},
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
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("spec", help="path to the JSON run spec")
        for key, kind in flags.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError covers JSONDecodeError and an integer literal past the
    # interpreter's digit limit, which json.load refuses with a plain ValueError
    except (OSError, ValueError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 1
    try:
        spec = load_spec(raw, args.command, **{key: getattr(args, key) for key in _FLAGS[args.command]})
        return _COMMANDS[args.command](spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
