import importlib
import pkgutil
import runpy
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import coherent_age
from coherent_age import systems
from coherent_age._num import SpecError, _integer, _number
from coherent_age.verifier import corollary_index_check

MODULES = ["coherent_age", *(f"coherent_age.{m.name}" for m in pkgutil.iter_modules(coherent_age.__path__))]
SWEEP = str(Path(__file__).resolve().parents[1] / "scripts" / "kofn_elasticity_sweep.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", [name for name in coherent_age.__all__ if name != "__version__"])
def test_package_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"coherent_age.{coherent_age._HOME[name]}")
    assert name in home.__all__
    assert getattr(coherent_age, name) is getattr(home, name)
    # resolved once: later lookups find it in the package namespace
    assert vars(coherent_age)[name] is getattr(home, name)


def test_corollary_predicate_is_one_object():
    assert coherent_age.corollary_index_check is corollary_index_check


def test_dir_lists_every_public_name():
    assert set(coherent_age.__all__) <= set(dir(coherent_age))


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("coherent_age").no_such_name
    with pytest.raises(AttributeError) as lazy:
        coherent_age.no_such_name
    assert str(lazy.value) == str(plain.value) == "module 'coherent_age' has no attribute 'no_such_name'"


# the spec rule looks numpy up once numpy is loaded, as it is here
@pytest.mark.parametrize("value", [np.int64(3), np.float64(3.0)], ids=["int64", "float64"])
def test_spec_rule_reads_numpy_numbers(value):
    assert _number(value, "x") is value
    assert _integer(value, "x") == 3 and type(_integer(value, "x")) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), "3"], ids=["bool", "numpy-bool", "str"])
@pytest.mark.parametrize("rule", [_number, _integer])
def test_spec_rule_refuses_non_numbers(rule, value):
    with pytest.raises(SpecError, match="x must be a number"):
        rule(value, "x")


def run_sweep(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [SWEEP, *argv])
    runpy.run_path(SWEEP, run_name="__main__")


@pytest.mark.parametrize("argv, message", [
    (["--max-n", "7"], "error: 1-of-7: structure has 7 components outside the common part of its path sets; "
                       "refusing more than 6"),
    (["--grid-size", "1"], "error: --grid-size 1: grid needs at least two points"),
    (["--max-n", "0"], "error: --max-n must be at least 1, got 0"),
    (["--max-n", "-2"], "error: --max-n must be at least 1, got -2"),
    # the slack is a verdict tolerance, under the library's rule
    (["--max-n", "2", "--slack", "nan"], "error: --slack nan: tol must be finite and >= 0, got nan"),
    (["--max-n", "2", "--slack", "-1"], "error: --slack -1.0: tol must be finite and >= 0, got -1.0"),
    (["--max-n", "2", "--slack", "inf"], "error: --slack inf: tol must be finite and >= 0, got inf"),
], ids=["max-n-7", "grid-size-1", "max-n-0", "max-n-negative", "slack-nan", "slack-negative", "slack-inf"])
def test_sweep_argument_errors_are_one_line(monkeypatch, capsys, argv, message):
    # a cap of 6 makes --max-n 7 a refusal without building a 2^20 table
    monkeypatch.setattr(systems, "MAX_COMPONENTS", 6)
    with pytest.raises(SystemExit) as exit_info:
        run_sweep(monkeypatch, *argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [message]


def test_sweep_smallest_run(monkeypatch, capsys):
    run_sweep(monkeypatch, "--max-n", "1", "--grid-size", "2")
    out = capsys.readouterr().out
    assert out.startswith("index pairs: 1, ratio checks: 2, slack: 1e-08, grid: 2 pts\n")
