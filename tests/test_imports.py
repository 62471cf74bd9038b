"""Every module-level import in the package is used by its module, every
top-level export is used by the package itself, and scipy is loaded only
by the one code path that calls it: a ``numeric-fk`` solve loads
``scipy.linalg``; the package import, ``bridge-solve``, a heat
``simulate`` and the ``gallery quantum-free`` suite load no scipy
module."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "schrobridge"
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


def exports() -> list[tuple[str, str]]:
    """(module, name) of every name ``__init__.py`` imports from a module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def package_references() -> set[tuple[str | None, str]]:
    """Names read by the package's modules, as (None, name), and attribute
    reads ``module.name`` of a package module, as (module, name)."""
    found = set()
    for module in MODULES:
        for n in ast.walk(ast.parse(module.read_text())):
            if isinstance(n, ast.Name):
                found.add((None, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                found.add((n.value.id, n.attr))
    return found


@pytest.fixture(scope="module")
def references():
    return package_references()


@pytest.mark.parametrize("module, name", exports())
def test_every_export_is_used_by_the_package(module, name, references):
    assert (None, name) in references or (module, name) in references


# -------------------------------------------------- scipy loads on first use


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """Modules named scipy or scipy.* that a fresh interpreter has loaded
    after running ``code`` with this checkout's src/ on its path."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')))\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def cli_scipy_modules(argv: list[str], cwd: Path) -> list[str]:
    """scipy modules loaded by one successful ``cli.main(argv)`` call."""
    return scipy_modules_after(
        "from schrobridge import cli\n"
        f"assert cli.main({argv!r}) == cli.EXIT_OK\n", cwd)


def _config(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return str(path)


HEAT_BOUNDARY = {"rho0": {"form": "gaussian", "mean": 0.0, "var": 1.0},
                 "rhoT": {"form": "gaussian", "mean": 0.0, "var": 3.0}}


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import schrobridge, schrobridge.cli",
                               tmp_path) == []


def test_bridge_solve_loads_no_scipy(tmp_path):
    argv = ["bridge-solve", "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,3",
            "--grid-points", "129", "--time-slices", "11",
            "--out", str(tmp_path / "out")]
    assert cli_scipy_modules(argv, tmp_path) == []


def test_heat_simulation_loads_no_scipy(tmp_path):
    config = _config(tmp_path, {
        "pipeline": "simulate", "kernel": {"tag": "heat", "nu": 1.0},
        "boundary": HEAT_BOUNDARY, "grid": {"n_points": 129},
        "time_slices": 11,
        "sde": {"n_paths": 500, "dt": 1e-2, "seed": 3}})
    argv = ["simulate", "--config", config, "--out", str(tmp_path / "out")]
    assert cli_scipy_modules(argv, tmp_path) == []


def test_quantum_free_gallery_loads_no_scipy(tmp_path):
    argv = ["gallery", "quantum-free", "--out", str(tmp_path / "out")]
    assert cli_scipy_modules(argv, tmp_path) == []


def test_numeric_fk_run_loads_scipy_linalg_but_not_scipy_special(tmp_path):
    config = _config(tmp_path, {
        "pipeline": "bridge-solve",
        "kernel": {"tag": "numeric-fk", "potential": {"kind": "packet"}},
        "boundary": HEAT_BOUNDARY, "grid": {"n_points": 129},
        "time_slices": 11})
    argv = ["run", "--config", config, "--out", str(tmp_path / "out")]
    loaded = cli_scipy_modules(argv, tmp_path)
    assert "scipy.linalg" in loaded
    assert not any(m == "scipy.special" or m.startswith("scipy.special.")
                   for m in loaded)
