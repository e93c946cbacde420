"""The names the benchmark in ``perfbench/`` relies on still exist.

The benchmark wraps the functions listed in ``perfbench/layers.py``
(``TRACED``) for ``--trace 1`` and builds its stream states with names
that ``perfbench/workloads.py`` imports from the package. Both files are
read as source, so a refactor that drops or moves one of those names
fails here rather than in a benchmark run.
"""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def traced_functions():
    for node in parse("layers.py").body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            traced = ast.literal_eval(node.value)
            return [(module, func) for module, funcs in traced.items() for func in funcs]
    raise AssertionError("perfbench/layers.py defines no TRACED table")


def package_imports():
    return [(node.module, alias.name) for node in ast.walk(parse("workloads.py"))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "ridge_relay"
            for alias in node.names]


@pytest.mark.parametrize("module, func", traced_functions())
def test_traced_function_resolves_in_its_home_module(module, func):
    home = importlib.import_module(f"ridge_relay.{module}")
    assert callable(getattr(home, func, None)), f"ridge_relay.{module}.{func} is gone"


def test_workloads_import_only_existing_names():
    imports = package_imports()
    assert imports, "perfbench/workloads.py imports nothing from ridge_relay"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"
