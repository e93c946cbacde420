"""Every package module uses each name it imports, and the package
defines nothing, and records no field, that only tests read.

An import nothing reads still costs load time and hides which modules
depend on which. A function or class that no package code references
serves only the tests, unless it is library API on its own account; such
oracles belong beside the tests. The same holds for a record's field
that no package code reads: every call computes and stores it for
nothing. A read by name cannot tell two classes' members of one name
apart, so a property or method whose name another class also defines is
listed with the function that reads it on its own class. The package's
``__init__`` is left out of every scan, because its imports are its
public re-exports.
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
    "stack_batches": "the pooled baseline's stacked input, exported library API",
    "fit_targeted_ridge_grid": "exported library API; its checked entry, the package calls "
                               "the body",
    "loo_ridge_grid": "exported library API; its checked entry, the package calls the body",
    "irls_fit_grid": "exported library API; its checked entry, the package calls the body",
    "cv_score": "perfbench traces it, until the per-candidate oracle moves to the tests",
    "constraint_terms": "perfbench traces it, until the per-candidate oracle moves to the tests",
    "worker_count": "perfbench's tracer reads it for parallel.planned_workers_max, "
                    "until parallel.py goes",
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


def package_sources():
    sources = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    return sources


def test_the_package_defines_nothing_only_tests_call():
    assert unreferenced(package_sources()) == sorted(UNREFERENCED)


# Class.field -> why the package keeps a field that no package code reads
UNREAD_FIELDS = {
    "MomentReport.covariance": "the paper's exact moments of the chain",
    "MixedFit.xi": "the pooled baseline's variance estimates",
    "MixedFit.sigma_eps_sq": "the pooled baseline's variance estimates",
    "MixedFit.sigma_gamma_sq": "the pooled baseline's variance estimates",
    "TrajectoryResult.lambdas": "a study's chosen penalties, returned to library callers",
}


def unread_fields(sources):
    """``Class.field`` for every entry of a class's ``_fields`` tuple, and
    every field of a ``NamedTuple`` class, that no tree of ``sources``
    reads as an attribute."""
    fields, read = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                named = any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                            for base in node.bases)
                for stmt in node.body:
                    if named and isinstance(stmt, ast.AnnAssign):
                        fields.append(f"{node.name}.{stmt.target.id}")
                    elif (isinstance(stmt, ast.Assign)
                          and [getattr(t, "id", None) for t in stmt.targets] == ["_fields"]):
                        fields += [f"{node.name}.{elt.value}" for elt in stmt.value.elts]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(field for field in fields if field.split(".")[1] not in read)


def test_unread_fields_are_found():
    sources = ("import typing\nclass R:\n    _fields = ('a', 'b', 'c')\n"
               "    def __init__(self):\n        self.c = 1\n",
               "class T(typing.NamedTuple):\n    x: int\n    y: int\n"
               "def f(r, t):\n    return r.a + t.y\n")
    assert unread_fields(sources) == ["R.b", "R.c", "T.x"]


def test_the_package_records_no_field_only_tests_read():
    assert unread_fields(package_sources()) == sorted(UNREAD_FIELDS)


# Class.member -> the package function that reads the member on that class,
# for a property or method whose name another package class also defines:
# there a read by name alone does not show which class's member it is
SHARED_NAMES = {
    "Batch.n": "penalty_tuning.select_penalty",
    "Batch.p": "penalty_tuning._zero_target_fit",
    "CoefficientVector.names": "model_core.EstimatorState.__init__",
    "EstimatorState.t": "cli_io.cmd_select_lambda",
    "FoldPlan.n": "penalty_tuning.cv_score",
    "ScenarioConfig.grid": "sim_harness.ScenarioConfig.selection",
    "ScenarioConfig.to_dict": "cli_io._trajectory_datasets",
    "SelectionReport.to_dict": "cli_io.cmd_select_lambda",
    "StackedData.n": "baselines.mixed_fixed_effects",
    "StackedData.p": "baselines.mixed_fixed_effects",
    "StackedHistory.covariates": "penalty_tuning._Logistic.history_loss",
    "StackedHistory.rows": "penalty_tuning._Logistic.history_loss",
    "TriangularHistory.covariates": "penalty_tuning._Linear.history_loss",
    "_Linear.fit": "penalty_tuning._zero_target_fit",
    "_Linear.mean": "cli_io.cmd_predict",
    "_Logistic.fit": "penalty_tuning._zero_target_fit",
    "_Logistic.mean": "cli_io.cmd_predict",
    "_PooledRefit.fit": "sim_harness.run_study_mixed_vs_updated",
}


def shared_members(sources):
    """``Class.member`` for every property or method (dunder methods aside)
    whose name another class of ``sources`` also defines: as a method, a
    class attribute, an entry of ``_fields`` or a ``NamedTuple`` field.
    Classes under one base, the record base ``_Record`` aside, count as one
    class, since the package calls their methods through that base."""
    classes = {node.name: node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)}

    def root(name):
        bases = [getattr(base, "id", None) for base in classes[name].bases]
        return next((root(base) for base in bases if base in classes and base != "_Record"),
                    name)

    owners, methods = {}, []
    for name, node in classes.items():
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    continue
                methods.append((name, stmt.name))
                defined = [stmt.name]
            elif isinstance(stmt, ast.AnnAssign):
                defined = [stmt.target.id]
            elif isinstance(stmt, ast.Assign):
                defined = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                if defined == ["_fields"]:
                    defined = [elt.value for elt in stmt.value.elts]
            else:
                continue
            for member in defined:
                owners.setdefault(member, set()).add(root(name))
    return sorted(f"{name}.{member}" for name, member in methods
                  if owners[member] - {root(name)})


def test_shared_members_are_found():
    sources = ("class A:\n    _fields = ('n',)\n    def size(self):\n        pass\n",
               "class B:\n    x = 1\n    @property\n    def n(self):\n        pass\n"
               "    def m(self):\n        pass\n    def x(self):\n        pass\n",
               "class C(B):\n    def m(self):\n        pass\n"
               "class D:\n    def size(self):\n        pass\n")
    assert shared_members(sources) == ["A.size", "B.n", "D.size"]


def reads_attribute(module, qualname, attr):
    """Whether the function ``qualname`` of ``module`` reads ``.attr``."""
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        node = ast.parse(fh.read())
    for part in qualname.split("."):
        node = next(stmt for stmt in node.body
                    if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)) and stmt.name == part)
    return any(isinstance(sub, ast.Attribute) and sub.attr == attr for sub in ast.walk(node))


def test_a_member_sharing_its_name_is_read_by_the_function_listed():
    """A property or method whose name another class also defines counts
    as read only where ``SHARED_NAMES`` names the function that reads it."""
    assert shared_members(package_sources()) == sorted(SHARED_NAMES)
    for member, function in SHARED_NAMES.items():
        module, qualname = function.split(".", 1)
        assert reads_attribute(module, qualname, member.split(".")[1]), (member, function)
