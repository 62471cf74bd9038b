"""Every module-level import in the package is used by its module."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schrobridge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    Names listed in a literal ``__all__`` count as used (re-exports);
    ``from __future__`` imports are skipped.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_scanner_flags_an_unused_import_and_keeps_re_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .grids import Grid1D, ScalarField, normalize\n"
              "__all__ = ['normalize']\n"
              "def f(g: Grid1D):\n"
              "    return np.zeros(3)\n")
    assert unused_imports(source) == ["ScalarField (line 4)", "os (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
