"""Every package module uses each name it imports, and the package
defines nothing that only tests call.

An import nothing reads still costs load time and hides which modules
depend on which. A function or class that no package code references
serves only the tests, unless it is library API on its own account; such
oracles belong beside the tests. The package's ``__init__`` is left out
of both scans, because its imports are its public re-exports.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "ridge_relay")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def names_read(tree):
    """Every name the tree reads, names inside string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= names_read(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - names_read(tree))


def test_unused_imports_are_found():
    source = ("import os\nfrom json import dumps as d, loads\nfrom io import StringIO\n"
              "def f(x: \"StringIO | None\"):\n    return os.sep, loads\n")
    assert unused_imports(source) == ["d"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


# name -> why the package keeps a definition that no package code references
UNREFERENCED = {
    "exact_moments_general": "the paper's exact moments of the chain, general designs",
    "exact_moments_orthonormal": "the paper's exact moments of the chain, orthonormal designs",
    "estimate_xi": "the pooled mixed-model baseline the paper compares against",
    "mixed_fixed_effects": "the pooled mixed-model baseline the paper compares against",
    "mixed_moments": "the pooled mixed-model baseline's sampling moments",
    "plain_ridge": "the zero-target ridge baseline the paper compares against",
    "cv_score": "perfbench traces it, until the per-candidate oracle moves to the tests",
    "constraint_terms": "perfbench traces it, until the per-candidate oracle moves to the tests",
    "worker_count": "perfbench stamps it into every run, until parallel.py goes",
}


def unreferenced(sources):
    """Functions and classes (dunder methods aside) that no tree of
    ``sources`` reads by name or as an attribute."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_unreferenced_definitions_are_found():
    sources = ("__all__ = ['f', 'g']\ndef f():\n    return h()\ndef g():\n    pass\n",
               "class C:\n    def __init__(self):\n        pass\n    def m(self):\n"
               "        pass\ndef h():\n    return C().n\n")
    assert unreferenced(sources) == ["f", "g", "m"]


def test_the_package_defines_nothing_only_tests_call():
    sources = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert unreferenced(sources) == sorted(UNREFERENCED)
