from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from schrobridge import (BoundaryData, BridgeFactors, ConvergenceError,
                         Grid1D, IncompatibilityError, KernelMatrix,
                         NormalizationError, PositivityError,
                         PropagationError, backward_transition,
                         forward_transition, gauge_align, make_kernel,
                         normalize, propagate_factors, sample_field,
                         solve_boundary_system)
from schrobridge import bridge, kernels
from schrobridge.bridge import _worst_node, marginal_l1_residual
from schrobridge.grids import DENSITY_FLOOR
from schrobridge.packet import PACKET


def _packet_boundary(grid: Grid1D) -> BoundaryData:
    rho0 = normalize(sample_field(grid, PACKET.rho, 0.0))
    rhoT = normalize(sample_field(grid, PACKET.rho, 1.0))
    return BoundaryData(rho0=rho0, rhoT=rhoT)


def _holding(matrix: KernelMatrix):
    """A propagator over (0, 1) on the matrix's grid whose matrix() is it."""
    propagator = make_kernel("heat").propagator(matrix.grid, (0.0, 1.0))
    propagator.matrix = lambda: matrix
    return propagator


# ------------------------------------------------------------- validation


def test_boundary_data_rejects_bad_inputs():
    g = Grid1D(-10.0, 10.0, 65)
    rho0 = normalize(sample_field(g, PACKET.rho, 0.0))
    with pytest.raises(NormalizationError):
        BoundaryData(rho0=rho0, rhoT=rho0.with_values(2.0 * rho0.values))
    neg = rho0.values.copy()
    neg[3] = -neg[3]
    neg[40] = 0.0
    message = re.escape("must be strictly positive: 2 of 65 nodes are <= 0, "
                        f"the first is node 3 (x = -9.0625, value {neg[3]:.3e})")
    with pytest.raises(PositivityError, match=f"^rho0 {message}$"):
        BoundaryData(rho0=rho0.with_values(neg), rhoT=rho0)
    with pytest.raises(PositivityError, match=f"^rhoT {message}$"):
        BoundaryData(rho0=rho0, rhoT=rho0.with_values(neg))
    with pytest.raises(ValueError):
        other = normalize(sample_field(Grid1D(-10.0, 10.0, 33), PACKET.rho, 0.0))
        BoundaryData(rho0=rho0, rhoT=other)


def test_solver_rejects_mismatched_grid():
    g = Grid1D(-10.0, 10.0, 65)
    propagator = make_kernel("heat").propagator(Grid1D(-10.0, 10.0, 33),
                                                (0.0, 1.0))
    with pytest.raises(ValueError):
        solve_boundary_system(propagator, _packet_boundary(g))


def test_solver_rejects_a_grid_of_the_same_size_on_another_box():
    # same node count, different box: the nodes and weights differ
    propagator = make_kernel("quantum-k1").propagator(
        Grid1D(-12.0, 12.0, 257), (0.0, 1.0))
    boundary = _packet_boundary(Grid1D(-10.0, 10.0, 257))
    with pytest.raises(ValueError, match=r"x_min=-12\.0.*differs from the "
                                         r"boundary grid .*x_min=-10\.0"):
        solve_boundary_system(propagator, boundary)


@pytest.mark.parametrize("kernel", [
    make_kernel("heat"), kernels.NumericFeynmanKacKernel(
        kernels.Potential.zero(), grid=Grid1D(-10.0, 10.0, 33))],
    ids=["gaussian", "numeric-fk"])
def test_a_propagator_on_another_grid_is_refused_before_any_build(
        kernel, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a kernel matrix was built")
    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(refuse))
    monkeypatch.setattr(kernels, "solve_feynman_kac", refuse)
    propagator = kernel.propagator(Grid1D(-10.0, 10.0, 33), (0.0, 1.0))
    with pytest.raises(ValueError, match="differs from the boundary grid"):
        solve_boundary_system(propagator,
                              _packet_boundary(Grid1D(-10.0, 10.0, 65)))


def test_ipf_builds_the_boundary_matrix_once_per_solve(monkeypatch):
    grid = Grid1D(-10.0, 10.0, 65)
    propagator = make_kernel("example1").propagator(
        grid, np.linspace(0.0, 1.0, 5))
    built = []
    matrix = type(propagator).matrix
    monkeypatch.setattr(type(propagator), "matrix",
                        lambda self: built.append(self) or matrix(self))
    boundary = _packet_boundary(grid)
    solve_boundary_system(propagator, boundary)
    assert built == [propagator]
    solve_boundary_system(propagator, boundary)
    assert built == [propagator] * 2


def test_the_factors_carry_the_lattice_end_times():
    grid = Grid1D(-10.0, 10.0, 65)
    factors = solve_boundary_system(
        make_kernel("heat").propagator(grid, (0.25, 0.5, 1.5)),
        _packet_boundary(grid))
    assert type(factors.u0.time_label) is float
    assert (factors.u0.time_label, factors.vT.time_label) == (0.25, 1.5)


def test_only_ipf_and_the_numeric_probe_build_a_propagator_matrix():
    """No caller builds K(0, T) to hand to IPF: ``.matrix()`` is called in
    the package only inside ``solve_boundary_system`` and
    ``NumericFeynmanKacKernel.evaluate``."""
    callers = set()

    def visit(node, scope):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "matrix"):
            callers.add(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in Path(bridge.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), ())
    assert callers == {"solve_boundary_system",
                       "NumericFeynmanKacKernel.evaluate"}


# -------------------------------------------------------------- the solve


def test_ipf_matches_a_brute_force_reference():
    """The vectorized sweep must agree with a plain textbook loop."""
    grid = Grid1D(-10.0, 10.0, 65)
    boundary = _packet_boundary(grid)
    kernel = make_kernel("example1")
    mat = KernelMatrix.from_kernel(kernel, grid, 0.0, 1.0)
    factors = solve_boundary_system(kernel.propagator(grid, (0.0, 1.0)),
                                    boundary, tol=1e-13)

    K, w = mat.entries, grid.weights
    v = boundary.rhoT.values.copy()
    for _ in range(300):
        u = boundary.rho0.values / (K @ (w * v))
        v = boundary.rhoT.values / ((w * u) @ K)
    gauge = float(w @ u)
    np.testing.assert_allclose(factors.u0.values, u / gauge, rtol=1e-10)
    np.testing.assert_allclose(factors.vT.values, v * gauge, rtol=1e-10)
    assert float(w @ factors.u0.values) == pytest.approx(1.0, abs=1e-12)


def test_solved_factors_reproduce_both_marginals(coarse_bridge):
    boundary, factors, _ = coarse_bridge
    grid = boundary.rho0.grid
    mat = KernelMatrix.from_kernel(make_kernel("quantum-k1"), grid, 0.0, 1.0)
    u, v = factors.u0.values, factors.vT.values
    res = marginal_l1_residual(u, mat.apply_target(v), v, mat.apply_source(u),
                               boundary)
    assert res < 1e-10


def test_ipf_applies_the_kernel_twice_a_sweep_and_reports_its_residual(
        monkeypatch):
    grid = Grid1D(-10.0, 10.0, 129)
    boundary = _packet_boundary(grid)
    kernel = make_kernel("example1")
    mat = KernelMatrix.from_kernel(kernel, grid, 0.0, 1.0)
    applied = []
    for name in ("apply_source", "apply_target"):
        method = getattr(KernelMatrix, name)
        monkeypatch.setattr(
            KernelMatrix, name,
            lambda self, g, method=method: applied.append(1) or method(self, g))
    log: list[tuple[int, float, float]] = []
    # a loose tol stops while the residual is well above rounding noise
    factors = solve_boundary_system(
        kernel.propagator(grid, (0.0, 1.0)), boundary, tol=1e-6,
        callback=lambda k, ch, res: log.append((k, ch, res)))
    assert len(log) > 1
    assert len(applied) == 2 * len(log) + 1
    monkeypatch.undo()
    # the last sweep's pair is the returned one up to the gauge scalar
    u, v = factors.u0.values, factors.vT.values
    K, w = mat.entries, grid.weights
    left = u * (K @ (w * v)) - boundary.rho0.values
    right = v * ((w * u) @ K) - boundary.rhoT.values
    assert log[-1][2] == pytest.approx(
        float(w @ np.abs(left) + w @ np.abs(right)), rel=1e-9)


def test_callback_reports_monotone_convergence():
    grid = Grid1D(-10.0, 10.0, 129)
    boundary = _packet_boundary(grid)
    propagator = make_kernel("example1").propagator(grid, (0.0, 1.0))
    log: list[tuple[int, float, float]] = []
    solve_boundary_system(propagator, boundary, tol=1e-12,
                          callback=lambda k, ch, res: log.append((k, ch, res)))
    assert [k for k, _, _ in log] == list(range(1, len(log) + 1))
    residuals = np.array([res for _, _, res in log])
    assert np.all(np.diff(residuals) <= 1e-14)
    assert log[-1][1] <= 1e-12


def test_convergence_error_carries_diagnostics(monkeypatch):
    grid = Grid1D(-10.0, 10.0, 65)
    boundary = _packet_boundary(grid)
    propagator = make_kernel("example1").propagator(grid, (0.0, 1.0))
    monkeypatch.setattr(bridge, "IPF_MAX_SWEEPS", 2)
    with pytest.raises(ConvergenceError) as info:
        solve_boundary_system(propagator, boundary, tol=1e-15)
    assert info.value.last_change > 0.0
    assert np.isfinite(info.value.last_residual)
    assert str(info.value).endswith(
        f"(last change {info.value.last_change:.3e}, "
        f"marginal residual {info.value.last_residual:.3e})")


def test_incompatible_kernel_is_reported():
    grid = Grid1D(-10.0, 10.0, 65)
    boundary = _packet_boundary(grid)
    entries = np.ones((65, 65))
    entries[30, :] = 0.0  # one start node that cannot reach anything
    mat = KernelMatrix(grid=grid, entries=entries)
    with pytest.raises(IncompatibilityError,
                       match=r"end factor to a non-positive intermediate at "
                             r"sweep 1, worst at node 30 \(x = -0.625, "
                             r"value 0.000e\+00\)$"):
        solve_boundary_system(_holding(mat), boundary)


def test_unreachable_end_node_is_named_with_its_sweep():
    grid = Grid1D(-10.0, 10.0, 65)
    boundary = _packet_boundary(grid)
    entries = np.ones((65, 65))
    entries[:, 40] = 0.0  # one end node that nothing reaches
    mat = KernelMatrix(grid=grid, entries=entries)
    with pytest.raises(IncompatibilityError,
                       match=r"start factor to a non-positive intermediate at "
                             r"sweep 1, worst at node 40 \(x = 2.5, "
                             r"value 0.000e\+00\)$"):
        solve_boundary_system(_holding(mat), boundary)


def test_worst_node_prefers_the_first_non_finite_entry():
    grid = Grid1D(-1.0, 1.0, 5)
    assert (_worst_node(grid, np.array([1.0, -2.0, np.nan, np.inf, 0.5]))
            == "node 2 (x = 0, value nan)")
    assert (_worst_node(grid, np.array([1.0, -2.0, 3.0, -2.0, 0.5]))
            == "node 1 (x = -0.5, value -2.000e+00)")


# ----------------------------------------------------------- propagation


def test_propagated_marginals_and_masses(coarse_bridge):
    boundary, _, solution = coarse_bridge
    rho = solution.rho.values
    w = solution.rho.grid.weights
    np.testing.assert_allclose(solution.masses, 1.0, atol=1e-10)
    np.testing.assert_allclose(rho[0], boundary.rho0.values, atol=1e-10)
    np.testing.assert_allclose(rho[-1], boundary.rhoT.values, atol=1e-10)
    assert float(w @ rho[2]) == pytest.approx(1.0, abs=1e-10)


def test_propagation_mass_guard_trips_on_non_gauge_scaling(coarse_bridge):
    # (lam u0, lam vT) is not a gauge move: the density mass becomes lam^2
    _, factors, _ = coarse_bridge
    broken = BridgeFactors(
        u0=factors.u0.with_values(1.1 * factors.u0.values),
        vT=factors.vT.with_values(1.1 * factors.vT.values))
    with pytest.raises(PropagationError):
        propagate_factors(broken, make_kernel("quantum-k1").propagator(
            broken.u0.grid, np.linspace(0.0, 1.0, 4)))


def test_solution_is_mirror_symmetric(coarse_bridge):
    # even boundary data and an even kernel force an even density and an
    # odd forward drift
    _, _, solution = coarse_bridge
    rho, b = solution.rho.values, solution.b.values
    np.testing.assert_allclose(rho, rho[:, ::-1], atol=1e-12)
    mask = rho >= DENSITY_FLOOR
    sym = np.where(mask & mask[:, ::-1], b + b[:, ::-1], 0.0)
    assert np.max(np.abs(sym)) < 1e-7


def test_solution_fields_share_one_lattice(coarse_bridge):
    _, factors, solution = coarse_bridge
    fields = (solution.u, solution.v, solution.rho, solution.b,
              solution.b_star)
    for f in fields:
        assert f.grid == factors.u0.grid
        np.testing.assert_array_equal(f.times, np.linspace(0.0, 1.0, 6))
    np.testing.assert_array_equal(solution.rho.values,
                                  solution.u.values * solution.v.values)
    mid = solution.rho.slice(0.4)
    assert mid.time_label == 0.4
    np.testing.assert_array_equal(mid.values, solution.rho.values[2])
    with pytest.raises(ValueError,
                       match="time 0.37 is not on the stack lattice"):
        solution.rho.slice(0.37)


def test_propagate_rejects_bad_time_axes(coarse_bridge):
    _, factors, _ = coarse_bridge
    kernel, grid = make_kernel("quantum-k1"), factors.u0.grid
    with pytest.raises(ValueError):
        propagate_factors(factors, kernel.propagator(
            grid, np.array([0.0, 0.5, 0.5, 1.0])))
    with pytest.raises(ValueError, match="from 0 to the horizon"):
        propagate_factors(factors, kernel.propagator(
            grid, np.array([0.1, 0.5, 1.0])))


# ------------------------------------------------------------ transitions


def test_forward_transition_rows_are_normalized(coarse_bridge):
    _, _, solution = coarse_bridge
    grid = solution.rho.grid
    probes = grid.nodes[[64, 128, 192]][:, None]
    rows = forward_transition(solution, probes, 0.2, grid.nodes[None, :], 0.8)
    np.testing.assert_allclose(rows @ grid.weights, 1.0, atol=1e-8)


def test_reversal_identity_on_lattice_probes(coarse_bridge):
    _, _, solution = coarse_bridge
    grid = solution.rho.grid
    rng = np.random.default_rng(11)
    core = np.flatnonzero(np.abs(grid.nodes) <= 3.0)
    ys = grid.nodes[rng.choice(core, 40)]
    xs = grid.nodes[rng.choice(core, 40)]
    s, t = 0.2, 0.8
    rho_s = np.interp(ys, grid.nodes, solution.rho.slice(s).values)
    rho_t = np.interp(xs, grid.nodes, solution.rho.slice(t).values)
    lhs = rho_s * forward_transition(solution, ys, s, xs, t)
    rhs = backward_transition(solution, ys, s, xs, t) * rho_t
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_transition_time_guards(coarse_bridge):
    _, _, solution = coarse_bridge
    with pytest.raises(ValueError):
        forward_transition(solution, 0.0, 0.33, 1.0, 0.8)


# ------------------------------------------------------- gauge behaviour


def test_gauge_invariance_of_all_observables(coarse_bridge):
    boundary, factors, solution = coarse_bridge
    lam = 7.3
    scaled = BridgeFactors(
        u0=factors.u0.with_values(lam * factors.u0.values),
        vT=factors.vT.with_values(factors.vT.values / lam))
    grid = solution.rho.grid
    other = propagate_factors(scaled, make_kernel("quantum-k1").propagator(
        grid, solution.rho.times))
    np.testing.assert_allclose(other.rho.values, solution.rho.values,
                               rtol=0.0, atol=1e-13)
    mask = solution.rho.values >= DENSITY_FLOOR
    for a, b in ((other.b, solution.b), (other.b_star, solution.b_star)):
        assert np.max(np.abs(np.where(mask, a.values - b.values, 0.0))) < 1e-9

    ys = grid.nodes[[100, 128, 150]]
    p1 = forward_transition(solution, ys, 0.2, ys, 0.8)
    p2 = forward_transition(other, ys, 0.2, ys, 0.8)
    np.testing.assert_allclose(p1, p2, rtol=1e-12)
    q1 = backward_transition(solution, ys, 0.2, ys, 0.8)
    q2 = backward_transition(other, ys, 0.2, ys, 0.8)
    np.testing.assert_allclose(q1, q2, rtol=1e-12)


def test_gauge_align_recovers_known_scalar():
    rng = np.random.default_rng(5)
    ref = np.abs(rng.standard_normal(40)) + 0.1
    w = np.full(40, 0.25)
    lam = gauge_align(ref / 3.7, ref, w)
    assert lam == pytest.approx(3.7, rel=1e-12)
    with pytest.raises(ValueError):
        gauge_align(np.zeros(40), ref, w)
