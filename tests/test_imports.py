"""Every name a module imports at load time is read somewhere in that module.

No linter runs on this repository, so an import left behind by deleted code
would go unnoticed. ``__init__`` is skipped: its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "runsdist").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def _imported(tree: ast.Module) -> set:
    """Names bound by the module-level imports, ``from __future__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.Module) -> set:
    """Names the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(_read(ast.parse(ann.value)))
    return names


@pytest.mark.parametrize("path", [m for m in MODULES if m.stem != "__init__"],
                         ids=lambda m: f"{m.parent.name}/{m.name}")
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    unread = _imported(tree) - _read(tree)
    assert not unread, f"{path.name} imports {sorted(unread)} and never reads them"
