"""The package surface that the benchmark harness in perfbench/ relies on."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import skynav

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sk_names(name: str) -> set:
    """Every name the perfbench file reads off the package as ``sk.<name>``."""
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "sk"}


def test_perfbench_names_resolve():
    """The tracer wraps each LAYERS entry at its home module, and the workloads and the
    self-test call the planners through the package, so each name must be there."""
    for layer, entries in _load("tracer").LAYERS.items():
        home = importlib.import_module(f"skynav.{layer}")
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            assert callable(getattr(owner, attr, None)), f"skynav.{layer}.{entry}"
    # selftest.py replaces these three on the package
    used = _sk_names("workloads") | _sk_names("run") | {"plan_drrt", "plan_astar", "plan_aco"}
    assert len(used) > 3
    assert used <= set(skynav.__all__)
    assert all(hasattr(skynav, name) for name in skynav.__all__)
