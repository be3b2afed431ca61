"""The package's load-time import graph: each module imports only layers below it.

``special`` <- ``core`` <- {``roots``, ``pmf``, ``oracle``} <- ``moments`` <-
``cli``. Imports inside function bodies run when the
function runs, so they are not load-time edges; ``roots`` keeps exactly one,
in ``gap_moments``.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "runsdist"

# module -> the package modules it may import when it loads ("__init__" is the package)
ALLOWED = {
    "special": set(),
    "core": {"special"},
    "roots": {"core", "special"},
    "pmf": {"core", "special"},
    "oracle": {"core", "special"},
    "moments": {"core", "special", "pmf"},
    "cli": {"__init__", "core", "special", "pmf", "oracle", "moments"},
    "__init__": {"core", "special", "pmf", "oracle", "moments"},
}


def _targets(node: ast.ImportFrom) -> set:
    if node.module:
        return {node.module.split(".")[0]}
    # ``from . import x`` names a module or an attribute of the package
    return {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in node.names}


def _imports(name: str) -> tuple:
    """(load-time targets, {(function, target)} of imports inside functions)."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    load, deferred = set(), set()

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, func or child.name)
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                if func is None:
                    load.update(_targets(child))
                else:
                    deferred.update((func, t) for t in _targets(child))
            elif isinstance(child, ast.Import):
                assert not any(a.name.startswith("runsdist") for a in child.names), name
            else:
                walk(child, func)

    walk(tree, None)
    return load, deferred


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_layers_form_a_dag():
    list(TopologicalSorter(ALLOWED).static_order())  # raises CycleError on a cycle


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_load_time_imports_stay_below(name):
    load, _ = _imports(name)
    assert load <= ALLOWED[name], f"{name} imports {sorted(load - ALLOWED[name])} at load time"


def test_roots_reaches_moments_only_inside_gap_moments():
    _, deferred = _imports("roots")
    assert {t for _, t in deferred} & {"pmf", "moments"} == {"moments"}
    assert {f for f, t in deferred if t in ("pmf", "moments")} == {"gap_moments"}
