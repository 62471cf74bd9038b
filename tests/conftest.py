"""Shared fixtures and the acceptance summary hook."""
from __future__ import annotations

import os
from dataclasses import replace
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from schrobridge import BoundaryData, Grid1D, gallery, make_kernel
from schrobridge.kernels import ENTRY_FLOOR

# pass/fail lines recorded by tests/test_acceptance.py, echoed at the end
# of the run so they survive output capture
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    return _ACCEPTANCE_LINES


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind (the CSV writers fork
    formatting processes and must reap every one)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# FieldStack.at blends the two bracketing slices on the nodes before it
# interpolates, so it may differ from the reference by a few ulps of the
# values it interpolates (2.2 eps at worst on test_grids' cases)
INTERP_ULPS = 16


def _bracket(times, t):
    """Bracketing slice indices of t and the weight of the later one."""
    if t <= times[0]:
        return 0, 0, 0.0
    if t >= times[-1]:
        return times.size - 1, times.size - 1, 0.0
    hi = int(np.searchsorted(times, t))
    lo = hi - 1
    return lo, hi, (t - times[lo]) / (times[hi] - times[lo])


def _interp_reference(stack, positions, t):
    """FieldStack.at as two np.interp calls blended linearly in time."""
    x = np.asarray(positions, dtype=float)
    lo, hi, w = _bracket(stack.times, t)
    nodes = stack.grid.nodes
    a = np.interp(x, nodes, stack.values[lo])
    if hi == lo:
        return a
    b = np.interp(x, nodes, stack.values[hi])
    return (1.0 - w) * a + w * b


def _assert_near_interp(stack, positions, t, got):
    """got has the reference's shape and NaN positions, and each value is
    within INTERP_ULPS eps of the largest |value| at the four lattice
    nodes that bracket its position in (t, x)."""
    want = _interp_reference(stack, positions, t)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    nodes, v = stack.grid.nodes, stack.values
    x = np.clip(np.asarray(positions, dtype=float), nodes[0], nodes[-1])
    c = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    lo, hi, _ = _bracket(stack.times, t)
    scale = np.max(np.abs([v[lo][c], v[lo][c + 1], v[hi][c], v[hi][c + 1]]),
                   axis=0)
    err = np.abs(got - want)
    bad = ~np.isnan(want) & (err > INTERP_ULPS * np.finfo(float).eps * scale)
    assert not bad.any(), (
        f"off by {err[bad].max():.3g} at x = {x[bad][0]!r}, t = {t}")


@pytest.fixture(scope="session")
def interp_reference():
    """The np.interp formula that FieldStack.at follows to a few ulps."""
    return _interp_reference


@pytest.fixture(scope="session")
def assert_near_interp():
    """Asserts FieldStack.at's output is within INTERP_ULPS of the
    np.interp formula, with the same shape and NaN positions."""
    return _assert_near_interp


def _dense_entries(kernel, grid, s, t):
    """Kernel sampled on every pair of grid nodes, then floored; a tilted
    spec's untilted spec, whose entries its matrix holds."""
    if getattr(kernel, "log_tilt", None) is not None:
        kernel = replace(kernel, log_tilt=None)
    e = kernel.evaluate(grid.nodes[:, None], s, grid.nodes[None, :], t)
    return np.maximum(e, ENTRY_FLOOR)


@pytest.fixture(scope="session")
def dense_reference():
    """The n x m build whose entries KernelMatrix.from_kernel reproduces."""
    return _dense_entries


def _fmt(x):
    return f"{float(x):.17g}"


def _write(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def _density_csv(path, density):
    _write(path, ["x,value"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in
                                zip(density.grid.nodes, density.values)])


def _field_csv(path, stack):
    lines = ["t,x,value"]
    for k, t in enumerate(stack.times):
        lines += [f"{_fmt(t)},{_fmt(x)},{_fmt(v)}"
                  for x, v in zip(stack.grid.nodes, stack.values[k])]
    _write(path, lines)


def _paths_csv(path, ensemble):
    lines = ["path_id,t,x"]
    for pid in range(ensemble.n_paths):
        lines += [f"{pid},{_fmt(t)},{_fmt(x)}"
                  for t, x in zip(ensemble.times, ensemble.positions[pid])]
    _write(path, lines)


@pytest.fixture(scope="session")
def csv_reference():
    """Per-element float() writers whose bytes the CSV writers must match."""
    return SimpleNamespace(density=_density_csv, field=_field_csv,
                           paths=_paths_csv)


@pytest.fixture(scope="session")
def gallery_report():
    """gallery_report(name): the named suite's report at its defaults,
    built once per session and shared by the gallery and acceptance gates."""
    return cache(gallery.run_scenario)


@pytest.fixture(scope="session")
def coarse_bridge():
    """A small, fast bridge solve for API-level tests."""
    kernel = make_kernel("quantum-k1")
    grid = Grid1D(-12.0, 12.0, 257)
    times = np.linspace(0.0, 1.0, 6)
    return gallery.packet_bridge(kernel, grid=grid, times=times)


@pytest.fixture
def default_grid() -> Grid1D:
    return Grid1D()


@pytest.fixture
def packet_boundary_default() -> BoundaryData:
    return gallery.packet_boundary(Grid1D())
