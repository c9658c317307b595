"""The package namespace: each public name is loaded from its module on first use."""
import importlib
import json

import pytest

import tailtest

from .test_cli import run_fresh

PUBLIC = [
    "BlockTooSmallError", "BlockedTestResult", "BrysonQuantileTable", "BrysonResult",
    "DatasetError", "DegenerateSampleError", "DistributionSpec", "MaxNotAboveOneError",
    "NonFiniteDrawError", "Sample", "SeedSpec", "SimulationPlan", "SimulationReport",
    "TailClass", "TailTestResult", "blocked_test", "bryson_statistic", "bryson_test",
    "emit_table", "erlang_tails", "format_spec", "make_stream", "parse_plan_file", "parse_spec",
    "partition", "recommend_blocks", "run_plan", "sample", "shift_sample",
    "simulate_bryson_quantiles", "tail_test",
]


def loaded_after(code: str) -> list[str]:
    """The tailtest submodules, and numpy if loaded, that a fresh interpreter holds after code."""
    proc = run_fresh("-c", code + "; import json, sys; print(json.dumps(sorted("
                     "m for m in sys.modules if m == 'numpy' or m.startswith('tailtest.'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_names():
    assert tailtest.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_the_object_its_module_defines(name):
    obj = getattr(tailtest, name)
    assert obj.__module__.startswith("tailtest.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert vars(tailtest)[name] is obj  # bound at the first read: later reads skip __getattr__


def test_dir_lists_the_public_names():
    assert set(tailtest.__all__) <= set(dir(tailtest))


def test_other_names_are_missing():
    assert not hasattr(tailtest, "nope")
    with pytest.raises(AttributeError, match="^module 'tailtest' has no attribute 'nope'$"):
        getattr(tailtest, "nope")


def test_bare_import_loads_no_submodule_and_not_numpy():
    assert loaded_after("import tailtest") == []


def test_a_name_loads_only_its_module_and_what_that_imports():
    assert loaded_after("from tailtest import tail_test") == [
        "numpy", "tailtest.base", "tailtest.blocking", "tailtest.rng"]


def test_cli_loads_every_module():
    # cli imports its commands at module level, so a CLI run loads what an eager package did
    assert [m for m in loaded_after("import tailtest.cli") if m != "numpy"] == [
        "tailtest.base", "tailtest.blocking", "tailtest.bryson", "tailtest.cli",
        "tailtest.distributions", "tailtest.power", "tailtest.rng"]
