"""Shared fixtures and the acceptance summary hook."""
from __future__ import annotations

import numpy as np
import pytest

from schrobridge import BoundaryData, Grid1D, TiltedTimeSquaredKernel, gallery

# pass/fail lines recorded by tests/test_acceptance.py, echoed at the end
# of the run so they survive output capture
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def _interp_reference(stack, positions, t):
    """FieldStack.at as two np.interp calls blended linearly in time."""
    x = np.asarray(positions, dtype=float)
    times = stack.times
    if t <= times[0]:
        lo, hi, w = 0, 0, 0.0
    elif t >= times[-1]:
        lo, hi, w = times.size - 1, times.size - 1, 0.0
    else:
        hi = int(np.searchsorted(times, t))
        lo = hi - 1
        w = (t - times[lo]) / (times[hi] - times[lo])
    nodes = stack.grid.nodes
    a = np.interp(x, nodes, stack.values[lo])
    if hi == lo:
        return a
    b = np.interp(x, nodes, stack.values[hi])
    return (1.0 - w) * a + w * b


@pytest.fixture(scope="session")
def interp_reference():
    """The np.interp formula that FieldStack.at must reproduce bit for bit."""
    return _interp_reference


@pytest.fixture(scope="session")
def wide_bridge():
    """Boundary data, solved factors, and the interpolation for the
    free-packet scenario on the wide lattice.  Expensive, so shared."""
    kernel = TiltedTimeSquaredKernel()
    return gallery.packet_bridge(kernel)


@pytest.fixture(scope="session")
def coarse_bridge():
    """A small, fast bridge solve for API-level tests."""
    kernel = TiltedTimeSquaredKernel()
    grid = Grid1D(-12.0, 12.0, 257)
    times = np.linspace(0.0, 1.0, 6)
    return gallery.packet_bridge(kernel, grid=grid, times=times)


@pytest.fixture
def default_grid() -> Grid1D:
    return Grid1D()


@pytest.fixture
def packet_boundary_default() -> BoundaryData:
    return gallery.packet_boundary(Grid1D())
