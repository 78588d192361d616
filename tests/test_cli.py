import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coherent_age.cli import SpecError, load_spec, main
from coherent_age.distributions import LinearFailureRate, Weibull

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def parse_table(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """The (meta, header, rows) of a CSV the command line emitted."""
    meta: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    assert header, "no header line found"
    return meta, header, rows

FGM_SYSTEM = {
    "structure": {"n": 3, "paths": [[1, 2], [1, 3]]},
    "copula": {"copula": "fgm", "theta": 1.0},
    "margin": {"family": "lfr", "alpha": 1.0, "beta": 1.0},
}
SERIES3_SYSTEM = {
    "structure": {"n": 3, "paths": [[1, 2, 3]]},
    "copula": {"copula": "independence"},
    "margin": {"family": "lfr", "alpha": 2.0, "beta": 1.0},
}
VERIFY_SPEC = {"system1": FGM_SYSTEM, "system2": SERIES3_SYSTEM, "relation": "c_star"}

# spec values that are not JSON numbers, by test id
NOT_NUMBERS = {"word": "many", "numeric-string": "2", "bool": True}
# spec integers that the one integer rule refuses, with the rule each breaks
NON_INTEGERS = pytest.mark.parametrize(
    "value, rule",
    [(value, "a number") for value in NOT_NUMBERS.values()] + [(2.5, "an integer"), (1000.9, "an integer")],
    ids=[*NOT_NUMBERS, "fraction", "large-fraction"],
)
# spec reals that the number rule refuses
NON_NUMBERS = pytest.mark.parametrize(
    "value", [*NOT_NUMBERS.values(), None, [2.0]], ids=[*NOT_NUMBERS, "null", "list"]
)


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, *extra):
    return main([command, write_spec(tmp_path, payload), *extra])


def fresh_python(code: str, *argv: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return out.stdout


# prints the package modules loaded so far, and numpy if it is loaded
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('coherent_age'))))"
RUN_MAIN = ("import contextlib, io, json, sys\n"
            "from coherent_age.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(sys.argv[1:])\n" + LOADED)
# the modules each subcommand loads, beyond the package: the command line
# itself loads only the spec rule and the corollary predicate
FRONT = {"cli", "_num", "corollary"}
MARGINS_AND_SYSTEMS = FRONT | {"copulas", "distributions", "systems", "numpy"}
COMMAND_MODULES = {
    "distortion": ("fgm_distortion_table.json", MARGINS_AND_SYSTEMS | {"orders"}),
    "check-order": ("margins_check_order.json", FRONT | {"distributions", "orders", "numpy"}),
    "verify": ("fgm_lfr_verify.json", MARGINS_AND_SYSTEMS | {"orders", "verifier"}),
    "simulate": ("series3_simulate.json", MARGINS_AND_SYSTEMS | {"montecarlo"}),
    "corollary": ("corollary_indices.json", FRONT),
}


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        code = "import sys, coherent_age.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        assert fresh_python(code).strip() == "False"

    def test_package_import_loads_no_submodule(self):
        assert json.loads(fresh_python("import json, sys, coherent_age; " + LOADED)) == ["coherent_age"]

    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_command_loads_its_modules(self, command):
        spec, modules = COMMAND_MODULES[command]
        loaded = json.loads(fresh_python(RUN_MAIN, command, str(ROOT / "specs" / spec)))
        want = {"coherent_age", *(m if m == "numpy" else f"coherent_age.{m}" for m in modules)}
        assert set(loaded) == want

    def test_corollary_runs_where_numpy_cannot_load(self):
        # a None entry in sys.modules makes every import of numpy fail; a
        # nonzero exit fails fresh_python
        code = "import sys\nsys.modules['numpy'] = None\nfrom coherent_age.cli import main\nsys.exit(main(sys.argv[1:]))"
        out = fresh_python(code, "corollary", str(ROOT / "specs" / "corollary_indices.json"))
        assert out == (ROOT / "tests" / "golden" / "corollary_indices.out").read_text()


class TestDistortion:
    def test_fgm_polynomial_reproduced(self, tmp_path):
        out = tmp_path / "table.csv"
        payload = {"system1": FGM_SYSTEM, "output": {"csv": str(out)}}
        assert run(tmp_path, "distortion", payload) == 0
        meta, header, rows = parse_table(out.read_text())
        assert header == ["p", "h", "h_prime", "H", "R"]
        assert "spec_sha256" in meta
        p = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        target = 2 * p**2 - p**3 - p**3 * (1 - p) ** 3
        np.testing.assert_allclose(h, target, atol=1e-12)

    def test_series_cube(self, tmp_path, capsys):
        payload = {"system1": SERIES3_SYSTEM, "grid": {"size": 11}}
        assert run(tmp_path, "distortion", payload) == 0
        meta, header, rows = parse_table(capsys.readouterr().out)
        p = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(h, p**3, atol=1e-14)

    def test_one_of_two_parallel(self, tmp_path, capsys):
        payload = {
            "system1": {
                "structure": {"n": 2, "paths": [[1], [2]]},
                "copula": {"copula": "independence"},
                "margin": {"family": "exp", "rate": 1.0},
            },
            "grid": {"size": 21},
        }
        assert run(tmp_path, "distortion", payload) == 0
        _, _, rows = parse_table(capsys.readouterr().out)
        p = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(h, 2 * p - p**2, atol=1e-14)

    def test_grid_size_flag_overrides(self, tmp_path, capsys):
        payload = {"system1": SERIES3_SYSTEM, "grid": {"size": 11}}
        assert run(tmp_path, "distortion", payload, "--grid-size", "31") == 0
        _, _, rows = parse_table(capsys.readouterr().out)
        assert len(rows) == 31

    def test_numeric_flags_exit_three(self, tmp_path, capsys):
        # a 300-component series makes h underflow across most of the grid,
        # flagging the elasticity columns
        payload = {
            "system1": {
                "structure": {"n": 300, "paths": [list(range(1, 301))]},
                "copula": {"copula": "gumbel", "theta": 1.0},
                "margin": {"family": "exp", "rate": 1.0},
            },
            "grid": {"size": 11},
        }
        assert run(tmp_path, "distortion", payload) == 3
        capsys.readouterr()


class TestVerify:
    def test_worked_setup_exits_zero(self, tmp_path, capsys):
        assert run(tmp_path, "verify", VERIFY_SPEC) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conclusion"] == "certified"
        assert payload["direct_check"]["holds"] == "yes"
        assert payload["exit_code"] == 0

    def test_swapped_margins_exit_two(self, tmp_path, capsys):
        swapped = {
            "system1": {**FGM_SYSTEM, "margin": {"family": "lfr", "alpha": 2.0, "beta": 1.0}},
            "system2": {**SERIES3_SYSTEM, "margin": {"family": "lfr", "alpha": 1.0, "beta": 1.0}},
            "relation": "c_star",
        }
        assert run(tmp_path, "verify", swapped) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["conclusion"] == "not-certified-by-this-route"

    def test_gumbel_setup_exits_zero(self, tmp_path):
        payload = {
            "system1": {
                "structure": {"n": 4, "paths": [[1, 2, 3, 4]]},
                "copula": {"copula": "gumbel", "theta": 2.0},
                "margin": {"family": "exp", "rate": 3.0},
            },
            "system2": {
                "structure": {"n": 2, "paths": [[1, 2]]},
                "copula": {"copula": "gumbel", "theta": 2.0},
                "margin": {"family": "exp", "rate": 2.0},
            },
            "relation": "b_star",
        }
        assert run(tmp_path, "verify", payload) == 0

    def test_parallel_pair_from_path_sets_certifies(self, tmp_path, capsys):
        # 1-out-of-3 vs 1-out-of-5 is covered by the k-out-of-n corollary for
        # b_star; built from path sets, the verdict must not depend on 1-h
        # cancelling near p = 1
        def parallel(n, rate):
            return {
                "structure": {"n": n, "paths": [[i] for i in range(1, n + 1)]},
                "copula": {"copula": "independence"},
                "margin": {"family": "exp", "rate": rate},
            }

        payload = {"system1": parallel(3, 3.0), "system2": parallel(5, 2.0), "relation": "b_star"}
        assert run(tmp_path, "verify", payload) == 0
        assert json.loads(capsys.readouterr().out)["conclusion"] == "certified"

    def test_json_output_deterministic(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            assert run(tmp_path, "verify", VERIFY_SPEC) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCheckOrder:
    def test_margin_order_csv(self, tmp_path, capsys):
        payload = {
            "system1": {"margin": {"family": "exp", "rate": 3.0}},
            "system2": {"margin": {"family": "exp", "rate": 2.0}},
            "relation": "b_star",
        }
        assert run(tmp_path, "check-order", payload) == 0
        meta, header, rows = parse_table(capsys.readouterr().out)
        assert header == ["relation", "holds", "witness_x", "violation", "skipped_points"]
        assert rows[0][0] == "b_star"
        assert rows[0][1] == "yes"

    def test_failing_order_exits_two(self, tmp_path):
        payload = {
            "system1": {"margin": {"family": "exp", "rate": 2.0}},
            "system2": {"margin": {"family": "exp", "rate": 3.0}},
            "relation": "st",
        }
        assert run(tmp_path, "check-order", payload) == 2


    def test_quantile_past_the_float_range_is_one_error_line(self, tmp_path, capsys):
        # Weibull(0.002)'s 0.999 quantile overflows: no grid can be built
        payload = {
            "system1": {"margin": {"family": "weibull", "shape": 0.002, "scale": 1.0}},
            "system2": {"margin": {"family": "exp", "rate": 1.0}},
            "relation": "c_star",
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "check-order", payload) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot grid the two margins: the quantile bracket [0.0, inf] is not finite\n"
        )


class TestSimulate:
    def test_csv_and_reproducibility(self, tmp_path):
        out = tmp_path / "sim.csv"
        payload = {
            "system1": SERIES3_SYSTEM,
            "simulation": {"sample_count": 20000, "seed": 42, "stream_count": 4},
            "output": {"csv": str(out)},
        }
        assert run(tmp_path, "simulate", payload) == 0
        first = out.read_bytes()
        assert run(tmp_path, "simulate", payload) == 0
        assert out.read_bytes() == first
        meta, header, rows = parse_table(first.decode())
        assert meta["seed"] == "42"
        assert header == ["x", "empirical_sf", "analytic_sf", "std_err"]
        assert len(rows) == 20

    def test_seed_override_flag(self, tmp_path, capsys):
        payload = {
            "system1": SERIES3_SYSTEM,
            "simulation": {"sample_count": 5000, "seed": 1, "stream_count": 2},
        }
        assert run(tmp_path, "simulate", payload, "--seed", "77") == 0
        meta, _, _ = parse_table(capsys.readouterr().out)
        assert meta["seed"] == "77"


class TestUnreadFlags:
    # each subcommand takes only the flags it reads; any other is a usage
    # error, not an override dropped without a word
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("distortion", "--tol"),
            ("distortion", "--seed"),
            ("check-order", "--eps-endpoint"),
            ("check-order", "--seed"),
            ("verify", "--seed"),
            ("simulate", "--grid-size"),
            ("simulate", "--tol"),
            ("simulate", "--eps-endpoint"),
            ("corollary", "--grid-size"),
            ("corollary", "--tol"),
            ("corollary", "--eps-endpoint"),
            ("corollary", "--seed"),
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, command, flag):
        payload = {
            "distortion": {"system1": FGM_SYSTEM},
            "check-order": VERIFY_SPEC,
            "verify": VERIFY_SPEC,
            "simulate": {"system1": SERIES3_SYSTEM},
            "corollary": {"k": 1, "n": 3, "l": 2, "m": 3, "relation": "c_star"},
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, payload, flag, "7")
        # exit 1, the code of an input error: 2 would read as "not certified"
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: coherent-age ")
        assert captured.err.endswith(f"\nerror: unrecognized arguments: {flag} 7\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: coherent-age verify ")

    # each command takes only the grid and tolerance keys it reads
    @pytest.mark.parametrize(
        "command, block, key",
        [
            ("distortion", "grid", "policy"),
            ("distortion", "tolerances", "tol"),
            ("distortion", "tolerances", "sign_slack"),
            ("check-order", "tolerances", "eps_endpoint"),
            ("check-order", "tolerances", "sign_slack"),
            # every x-grid is log-spaced; no command reads a grid policy
            ("check-order", "grid", "policy"),
            ("verify", "grid", "policy"),
        ],
    )
    def test_spec_key_the_command_does_not_read_is_refused(self, tmp_path, capsys, command, block, key):
        payload = {"system1": FGM_SYSTEM} if command == "distortion" else VERIFY_SPEC
        value = "log" if key == "policy" else 0.2
        assert run(tmp_path, command, {**payload, block: {key: value}}) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown fields in {block}: [{key!r}]\n"

    def test_grid_block_on_simulate_is_refused(self, tmp_path, capsys):
        payload = {"system1": SERIES3_SYSTEM, "grid": {"size": 3, "policy": "linear"}}
        assert run(tmp_path, "simulate", payload) == 1
        assert capsys.readouterr().err == "error: unknown fields in spec: ['grid']\n"


class TestCorollary:
    def test_true_quadruple(self, tmp_path, capsys):
        payload = {"k": 1, "n": 3, "l": 2, "m": 3, "relation": "c_star"}
        assert run(tmp_path, "corollary", payload) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_false_quadruple(self, tmp_path):
        payload = {"k": 2, "n": 3, "l": 1, "m": 3, "relation": "c_star"}
        assert run(tmp_path, "corollary", payload) == 2


class TestSchemaValidation:
    def test_unknown_top_level_field(self, tmp_path):
        assert run(tmp_path, "verify", {**VERIFY_SPEC, "bogus": 1}) == 1

    def test_unknown_nested_field(self, tmp_path):
        bad = {
            "system1": {**FGM_SYSTEM, "extra": True},
            "system2": SERIES3_SYSTEM,
            "relation": "c_star",
        }
        assert run(tmp_path, "verify", bad) == 1

    def test_bad_relation(self, tmp_path):
        assert run(tmp_path, "verify", {**VERIFY_SPEC, "relation": "st"}) == 1

    def test_missing_field(self, tmp_path):
        assert run(tmp_path, "verify", {"system1": FGM_SYSTEM, "relation": "c_star"}) == 1

    def test_copula_without_structure(self, tmp_path):
        bad = {
            "system1": {"margin": {"family": "exp", "rate": 1.0}, "copula": {"copula": "independence"}},
            "system2": SERIES3_SYSTEM,
            "relation": "c_star",
        }
        assert run(tmp_path, "verify", bad) == 1

    def test_quantile_past_the_float_range_is_a_spec_error(self, tmp_path, capsys):
        system1 = {**SERIES3_SYSTEM, "margin": {"family": "weibull", "shape": 0.002, "scale": 1.0}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "verify", {**VERIFY_SPEC, "system1": system1}) == 1
        assert capsys.readouterr().err == (
            "error: cannot verify the two systems: the quantile bracket [0.0, inf] is not finite\n"
        )

    def test_too_many_path_sets_is_a_spec_error(self, tmp_path, capsys):
        # parallel(21): 21 components outside the (empty) common part of its path sets
        parallel21 = {
            "structure": {"n": 21, "paths": [[i] for i in range(1, 22)]},
            "copula": {"copula": "independence"},
            "margin": {"family": "exp", "rate": 1.0},
        }
        spec = {"system1": parallel21, "system2": SERIES3_SYSTEM, "relation": "c_star"}
        assert run(tmp_path, "verify", spec) == 1
        err = capsys.readouterr().err
        assert err == ("error: invalid structure in system1: structure has 21 components outside the common part "
                       "of its path sets; refusing more than 20\n")

    @pytest.mark.parametrize("value", ["abc", "1e-9", True], ids=["word", "numeric-string", "bool"])
    def test_non_numeric_tolerance_is_a_spec_error(self, tmp_path, capsys, value):
        assert run(tmp_path, "verify", {**VERIFY_SPEC, "tolerances": {"tol": value}}) == 1
        assert capsys.readouterr().err == f"error: tolerances.tol must be a number, got {value!r}\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("many", "grid size must be a number, got 'many'"),
            ("31", "grid size must be a number, got '31'"),
            (True, "grid size must be a number, got True"),
            (2.5, "grid size must be an integer, got 2.5"),
        ],
        ids=["word", "numeric-string", "bool", "fraction"],
    )
    def test_non_integer_grid_size_is_a_spec_error(self, tmp_path, capsys, value, message):
        # spec numbers have one type rule: a JSON number, not a string or a bool
        assert run(tmp_path, "verify", {**VERIFY_SPEC, "grid": {"size": value}}) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @NON_INTEGERS
    @pytest.mark.parametrize("field", ["sample_count", "seed", "stream_count"])
    def test_non_integer_simulation_field_is_a_spec_error(self, tmp_path, capsys, field, value, rule):
        # the simulation block follows the grid size's integer rule
        block = {"sample_count": 1000, "seed": 2, "stream_count": 2, field: value}
        assert run(tmp_path, "simulate", {"system1": SERIES3_SYSTEM, "simulation": block}) == 1
        assert capsys.readouterr().err == f"error: simulation.{field} must be {rule}, got {value!r}\n"

    @NON_INTEGERS
    def test_non_integer_component_count_is_a_spec_error(self, tmp_path, capsys, value, rule):
        system = {**SERIES3_SYSTEM, "structure": {"n": value, "paths": [[1, 2, 3]]}}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: system1.structure.n must be {rule}, got {value!r}\n"

    @NON_INTEGERS
    def test_non_integer_path_entry_is_a_spec_error(self, tmp_path, capsys, value, rule):
        system = {**SERIES3_SYSTEM, "structure": {"n": 3, "paths": [[1, value, 3]]}}
        assert run(tmp_path, "verify", {**VERIFY_SPEC, "system2": system}) == 1
        assert capsys.readouterr().err == f"error: system2.structure.paths entry must be {rule}, got {value!r}\n"

    @pytest.mark.parametrize("paths", ["123", [1, 2, 3], [[1, 2], "3"]], ids=["string", "flat", "string-path"])
    def test_paths_must_be_a_list_of_lists(self, tmp_path, capsys, paths):
        system = {**SERIES3_SYSTEM, "structure": {"n": 3, "paths": paths}}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: system1.structure.paths must be a list of lists, got {paths!r}\n"

    @pytest.mark.parametrize(
        "structure, message",
        [
            ({"n": 3, "paths": [[1, 2, 3]], "bogus": 1}, "unknown fields in system1.structure: ['bogus']"),
            ({"n": 3}, "missing fields in system1.structure: ['paths']"),
            ([3, [[1, 2, 3]]], "system1.structure must be a JSON object"),
        ],
        ids=["unknown", "missing", "not-object"],
    )
    def test_structure_schema_errors_name_the_structure_block(self, tmp_path, capsys, structure, message):
        system = {**SERIES3_SYSTEM, "structure": structure}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "block, fragment, field",
        [
            ("margin", {"family": "exp"}, "rate"),
            ("margin", {"family": "lfr", "beta": 1.0}, "alpha"),
            ("margin", {"family": "weibull", "scale": 1.0}, "shape"),
            ("copula", {"copula": "fgm"}, "theta"),
            ("copula", {"copula": "gumbel"}, "theta"),
            ("copula", {"copula": "clayton"}, "theta"),
        ],
        ids=["exp", "lfr", "weibull", "fgm", "gumbel", "clayton"],
    )
    def test_missing_family_parameter_is_a_spec_error(self, tmp_path, capsys, block, fragment, field):
        # a parameter without a default in the family class is required
        system = {**FGM_SYSTEM, block: fragment}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: missing fields in system1.{block}: ['{field}']\n"

    @NON_NUMBERS
    @pytest.mark.parametrize("block, field", [("margin", "alpha"), ("copula", "theta")])
    def test_non_number_family_parameter_is_a_spec_error(self, tmp_path, capsys, block, field, value):
        # margin and copula parameters follow the tolerances' number rule
        system = {**FGM_SYSTEM, block: {**FGM_SYSTEM[block], field: value}}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: system1.{block}.{field} must be a number, got {value!r}\n"

    @pytest.mark.parametrize(
        "block, fragment, message",
        [
            (
                "margin",
                {"family": "exp", "rate": -1.0},
                "invalid system1.margin: rate must be a positive finite real, got -1.0",
            ),
            (
                "margin",
                {"family": ["exp"]},
                "system1.margin.family must be one of ['exp', 'lfr', 'weibull'], got ['exp']",
            ),
            ("margin", ["exp", 1.0], "system1.margin must be a JSON object"),
            ("copula", {"copula": "fgm", "theta": 2}, "invalid system1.copula: FGM theta must lie in [-1, 1], got 2.0"),
            ("copula", {"copula": "gumbel", "theta": 2.0, "dim": 3}, "unknown fields in system1.copula: ['dim']"),
        ],
        ids=["out-of-range", "list-family", "not-object", "fgm-theta", "fixed-dim"],
    )
    def test_malformed_family_fragment_is_a_spec_error(self, tmp_path, capsys, block, fragment, message):
        system = {**FGM_SYSTEM, block: fragment}
        assert run(tmp_path, "distortion", {"system1": system}) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "payload, what",
        [
            ({**VERIFY_SPEC, "tolerances": {"tol": 10**400}}, "tolerances.tol"),
            ({**VERIFY_SPEC, "system2": {**SERIES3_SYSTEM, "margin": {"family": "exp", "rate": 10**400}}},
             "system2.margin.rate"),
        ],
        ids=["tolerance", "margin"],
    )
    def test_integer_beyond_float_range_is_a_spec_error(self, tmp_path, capsys, payload, what):
        assert run(tmp_path, "verify", payload) == 1
        assert capsys.readouterr().err == f"error: {what} is too large for a float\n"

    @pytest.mark.parametrize(
        "margin, expected",
        [
            ({"family": "weibull", "shape": 2}, Weibull(2.0, 1.0)),
            ({"family": "lfr", "alpha": 1.5}, LinearFailureRate(1.5, 0.0)),
        ],
        ids=["weibull-scale", "lfr-beta"],
    )
    def test_optional_family_parameters_take_their_defaults(self, margin, expected):
        raw = {"system1": {"margin": margin}, "system2": {"margin": margin}, "relation": "st"}
        spec = load_spec(raw, "check-order")
        assert spec.system1.margin == expected

    @NON_INTEGERS
    @pytest.mark.parametrize("field", ["k", "n", "l", "m"])
    def test_non_integer_corollary_index_is_a_spec_error(self, tmp_path, capsys, field, value, rule):
        payload = {"k": 1, "n": 3, "l": 2, "m": 3, "relation": "c_star", field: value}
        assert run(tmp_path, "corollary", payload) == 1
        assert capsys.readouterr().err == f"error: {field} must be {rule}, got {value!r}\n"

    def test_integral_float_indices_are_accepted(self, tmp_path, capsys):
        outputs = []
        for structure, indices in (
            ({"n": 3, "paths": [[1, 2], [1, 3]]}, {"k": 1, "n": 3, "l": 2, "m": 3}),
            ({"n": 3.0, "paths": [[1.0, 2.0], [1, 3.0]]}, {"k": 1.0, "n": 3.0, "l": 2.0, "m": 3.0}),
        ):
            system = {**FGM_SYSTEM, "structure": structure}
            assert run(tmp_path, "distortion", {"system1": system, "grid": {"size": 11}}) == 0
            assert run(tmp_path, "corollary", {**indices, "relation": "c_star"}) == 0
            out = capsys.readouterr().out
            # past the spec hashes, which differ with the spelling
            outputs.append([line for line in out.splitlines() if "spec_sha256" not in line])
        assert outputs[0] == outputs[1]

    def test_integral_float_simulation_fields_are_accepted(self, tmp_path, capsys):
        outputs = []
        for block in (
            {"sample_count": 20000, "seed": 42, "stream_count": 4},
            {"sample_count": 20000.0, "seed": 42.0, "stream_count": 4.0},
        ):
            assert run(tmp_path, "simulate", {"system1": SERIES3_SYSTEM, "simulation": block}) == 0
            outputs.append(capsys.readouterr().out.splitlines()[1:])  # past the spec hash
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
    @pytest.mark.parametrize("source", ["tol", "sign_slack", "--tol"])
    def test_out_of_range_tolerance_is_a_spec_error(self, tmp_path, capsys, source, value):
        # the final tolerances, from the spec or the flag, must be finite and >= 0
        if source.startswith("--"):
            code = run(tmp_path, "verify", VERIFY_SPEC, f"{source}={value}")
        else:
            code = run(tmp_path, "verify", {**VERIFY_SPEC, "tolerances": {source: value}})
        assert code == 1
        name = source.lstrip("-")
        assert capsys.readouterr().err == f"error: {name} must be finite and >= 0, got {value!r}\n"

    def test_finite_difference_tolerance_is_refused(self, tmp_path, capsys):
        # the elasticity derivatives are closed forms; no tolerance of their own
        code = run(tmp_path, "verify", {**VERIFY_SPEC, "tolerances": {"tol_fd": 1e-6}})
        assert code == 1
        assert capsys.readouterr().err == "error: unknown fields in tolerances: ['tol_fd']\n"

    def test_integral_float_grid_size_is_accepted(self, tmp_path, capsys):
        tables = []
        for size in (31, 31.0):
            assert run(tmp_path, "distortion", {"system1": FGM_SYSTEM, "grid": {"size": size}}) == 0
            _, header, rows = parse_table(capsys.readouterr().out)
            tables.append((header, rows))
        assert len(tables[0][1]) == 31
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "block, flags, message",
        [
            ({"grid": {"size": 1}}, [], "grid size 1, eps_endpoint 0.001: grid needs at least two points"),
            ({}, ["--grid-size", "1"], "grid size 1, eps_endpoint 0.001: grid needs at least two points"),
            (
                {"tolerances": {"eps_endpoint": 0.6}},
                [],
                "grid size 2001, eps_endpoint 0.6: eps_endpoint must satisfy 0 < eps < 0.5, got 0.6",
            ),
            (
                {},
                ["--eps-endpoint", "0.6"],
                "grid size 2001, eps_endpoint 0.6: eps_endpoint must satisfy 0 < eps < 0.5, got 0.6",
            ),
            (
                {"tolerances": {"eps_endpoint": 0}},
                [],
                "grid size 2001, eps_endpoint 0.0: eps_endpoint must satisfy 0 < eps < 0.5, got 0.0",
            ),
            (
                {},
                ["--eps-endpoint", "0"],
                "grid size 2001, eps_endpoint 0.0: eps_endpoint must satisfy 0 < eps < 0.5, got 0.0",
            ),
            (
                {"tolerances": {"eps_endpoint": 0.4999999999999999}},
                [],
                "grid size 2001, eps_endpoint 0.4999999999999999: grid points must be strictly increasing",
            ),
            (
                {},
                ["--eps-endpoint", "0.4999999999999999"],
                "grid size 2001, eps_endpoint 0.4999999999999999: grid points must be strictly increasing",
            ),
        ],
        ids=[
            "spec-size-1", "flag-size-1", "spec-eps-0.6", "flag-eps-0.6",
            "spec-eps-0", "flag-eps-0", "spec-eps-near-half", "flag-eps-near-half",
        ],
    )
    @pytest.mark.parametrize("command", ["distortion", "verify"])
    def test_out_of_range_grid_value_is_a_spec_error(self, tmp_path, capsys, command, block, flags, message):
        # spec values and flag overrides go through the same check, whose rule
        # is the one Grid.probability applies
        payload = {**(VERIFY_SPEC if command == "verify" else {"system1": FGM_SYSTEM}), **block}
        assert run(tmp_path, command, payload, *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreadable_spec(self, capsys):
        assert main(["verify", "/nonexistent/spec.json"]) == 1
        assert "cannot read spec" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 1

    def test_integer_past_the_digit_limit_is_one_error_line(self, tmp_path, capsys):
        # json.load refuses such a literal with a plain ValueError where the
        # interpreter limits integer digits; elsewhere the number rule does
        path = tmp_path / "long.json"
        margin = '{"family": "exp", "rate": ' + "1" * 5000 + "}"
        path.write_text('{"system1": {"margin": ' + margin + '}, "system2": {"margin": ' + margin + '}, '
                        '"relation": "st"}')
        assert main(["check-order", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_load_spec_rejects_unknown_command(self):
        with pytest.raises(SpecError):
            load_spec({}, "unknown")

    def test_spec_hash_stable_under_key_order(self, tmp_path, capsys):
        a = {"system1": FGM_SYSTEM, "system2": SERIES3_SYSTEM, "relation": "c_star"}
        b = {"relation": "c_star", "system2": SERIES3_SYSTEM, "system1": FGM_SYSTEM}
        hashes = []
        for payload in (a, b):
            assert run(tmp_path, "verify", payload) == 0
            hashes.append(json.loads(capsys.readouterr().out)["spec_sha256"])
        assert hashes[0] == hashes[1]


class TestRoundTrip:
    def test_distortion_csv_full_precision(self, tmp_path):
        out = tmp_path / "t.csv"
        payload = {"system1": FGM_SYSTEM, "grid": {"size": 51}, "output": {"csv": str(out)}}
        assert run(tmp_path, "distortion", payload) == 0
        meta, header, rows = parse_table(out.read_text())
        from coherent_age.cli import spec_hash

        assert meta["spec_sha256"] == spec_hash(payload)
        # 17 significant digits survive a float round trip exactly
        from coherent_age.systems import Structure, build_distortion
        from coherent_age.copulas import FGM as FGMCopula

        d = build_distortion(Structure.from_paths(3, [[1, 2], [1, 3]]), FGMCopula(1.0))
        for row in rows[::10]:
            p = float(row[0])
            assert float(row[1]) == float(d.h(p))


GOLDEN = ROOT / "tests" / "golden"
GOLDEN_RUNS = json.loads((GOLDEN / "runs.json").read_text())


def assert_same_value(got, want, where):
    """Numbers within rel 1e-12 / abs 1e-14 (numpy builds may differ in the
    last ulp); every other value exactly."""
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)
        assert close or (math.isnan(got) and math.isnan(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_same_json(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    else:
        assert_same_value(got, want, where)


def as_number(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def assert_same_table(got: str, want: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    header = next(i for i, line in enumerate(want_lines) if not line.startswith("# "))
    assert got_lines[: header + 1] == want_lines[: header + 1], "meta or header lines differ"
    for n in range(header + 1, len(want_lines)):
        g_fields, w_fields = got_lines[n].split(","), want_lines[n].split(",")
        assert len(g_fields) == len(w_fields), f"line {n + 1}: field counts differ"
        for g, w in zip(g_fields, w_fields):
            if g != w:
                assert_same_value(as_number(g), as_number(w), f"line {n + 1}")


class TestGolden:
    """Each bundled spec against the stdout and exit code recorded in
    tests/golden (runs.json names them); the recorded outputs change only
    with a deliberate, called-out change of output."""

    @pytest.mark.parametrize("golden", GOLDEN_RUNS, ids=[r["spec"].removesuffix(".json") for r in GOLDEN_RUNS])
    def test_bundled_spec_output(self, capsys, golden):
        code = main([golden["command"], str(ROOT / "specs" / golden["spec"])])
        got = capsys.readouterr().out
        want = (GOLDEN / golden["stdout"]).read_text()
        assert code == golden["exit_code"]
        if want.startswith("{"):
            assert_same_json(json.loads(got), json.loads(want))
        else:
            assert_same_table(got, want)
