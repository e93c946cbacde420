"""Every package module uses each name it imports.

An import nothing reads still costs load time and hides which modules
depend on which. The package's ``__init__`` is left out, because its
imports are its public re-exports.
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
