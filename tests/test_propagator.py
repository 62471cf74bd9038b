"""Propagators: slice-aligned Feynman-Kac sweeps and the closed-form path."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from schrobridge import (PACKET, BoundaryData, BridgeSolution, Grid1D,
                         KernelMatrix, NumericDomainError,
                         NumericFeynmanKacKernel, PositivityError, Potential,
                         PropagationError, ScalarField, kernels, make_kernel,
                         normalize, propagate_factors, sample_field,
                         solve_boundary_system)
from schrobridge.kernels import _default_substeps

GRID = Grid1D(-10.0, 10.0, 257)
TIMES = np.linspace(0.0, 1.0, 21)


@pytest.fixture(scope="module")
def packet_propagator():
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=GRID)
    return kernel.propagator(GRID, TIMES)


@pytest.fixture(scope="module")
def packet_sweep(packet_propagator):
    u0 = PACKET.factor_u(GRID.nodes, 0.0)
    vT = PACKET.factor_v(GRID.nodes, 1.0)
    return u0, vT, packet_propagator.sweep(u0, vT)


def _rel(got, ref) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_sweeps_equal_the_dense_boundary_matrix(packet_propagator,
                                                packet_sweep):
    u0, vT, (u, v) = packet_sweep
    mat = packet_propagator.matrix()
    assert _rel(u[-1], mat.apply_source(u0)) <= 1e-13
    assert _rel(v[0], mat.apply_target(vT)) <= 1e-13


def test_adjoint_sweep_is_the_transpose_and_conserves_the_pairing(
        packet_propagator):
    x, w = GRID.nodes, GRID.weights
    f = np.exp(-((x - 1.0) ** 2) / 3.0)
    g = 1.5 + np.sin(0.5 * x)
    u, v = packet_propagator.sweep(f, g)
    forward = float(w @ (u[-1] * g))
    adjoint = float(w @ (f * v[0]))
    assert abs(forward - adjoint) <= 1e-13 * abs(forward)
    pairing = (u * v) @ w
    assert np.max(np.abs(pairing - pairing[0])) <= 1e-12 * abs(pairing[0])


def test_sweeps_track_the_packet_factors(packet_sweep):
    _, _, (u, v) = packet_sweep
    x = GRID.nodes
    # factor_v does not decay toward the box's walls, whose zero flux
    # bends v near the edges; compare it inside |x| <= 6
    inner = np.abs(x) <= 6.0
    for k, t in enumerate(TIMES):
        assert _rel(u[k], PACKET.factor_u(x, t)) <= 1e-3, k
        ref = PACKET.factor_v(x, t)
        err = np.max(np.abs(v[k][inner] - ref[inner])) / np.max(ref)
        assert err <= 1e-3, k


def test_packet_bridge_factors_and_drifts_stay_bounded_at_the_walls():
    # N(0, 1) -> N(0, 2) under the packet potential: zero-flux walls leave
    # no wall block that couples to the rest only through the entry floor,
    # where IPF could park a second gauge of the pair
    x = GRID.nodes
    boundary = BoundaryData(
        normalize(ScalarField(GRID, np.exp(-0.5 * x ** 2))),
        normalize(ScalarField(GRID, np.exp(-0.25 * x ** 2))))
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=GRID)
    propagator = kernel.propagator(GRID, TIMES)
    factors = solve_boundary_system(propagator, boundary)
    assert np.max(factors.u0.values) <= 10.0
    assert np.max(factors.vT.values) <= 10.0
    solution = propagate_factors(factors, propagator)
    n = GRID.n_points
    for drift in (solution.b, solution.b_star):
        assert np.max(np.abs(drift.values[:, [1, n - 2]])) <= 50.0
    assert np.max(np.abs(solution.masses - 1.0)) <= 1e-14


def test_solve_banded_is_the_ldlt_solve_for_vectors_and_columns():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    diag, off = 2.0 + rng.random(40), np.full(39, -0.4)
    # scipy's banded forms: upper (superdiagonal, diagonal) and full 3-row
    upper = np.stack((np.r_[0.0, off], diag))
    ab = np.stack((np.r_[0.0, off], diag, np.r_[off, 0.0]))
    for b in (rng.standard_normal(40),
              np.asfortranarray(rng.standard_normal((40, 5)))):
        ldlt = scipy_linalg.solveh_banded(upper, b)
        lu = scipy_linalg.solve_banded((1, 1), ab, b)
        work = b.copy(order="F")
        got = kernels.solve_banded(diag, off, work)
        # the right-hand side is overwritten with the solution
        assert got is work
        assert np.array_equal(got, ldlt)
        assert np.max(np.abs(got - lu)) <= 1e-14 * np.max(np.abs(lu))


def test_solve_banded_refuses_a_c_ordered_block():
    with pytest.raises(ValueError, match="Fortran-ordered"):
        kernels.solve_banded(np.full(6, 3.0), np.full(5, -1.0),
                             np.ones((6, 2)))


def test_b_product_of_a_block_is_the_product_of_each_column():
    # the block product runs over the flat Fortran buffer; no term may
    # reach across a column boundary
    rng = np.random.default_rng(3)
    m, off = 9, 0.7
    step = kernels._Step(0.5, np.full(m, 3.0), np.full(m - 1, -1.0),
                         b_diag=rng.standard_normal(m), b_off=off)
    w = np.asfortranarray(rng.standard_normal((m, 4)))
    out, scratch = np.empty_like(w), np.empty_like(w)
    step.apply_b(w, out, scratch)
    for j in range(w.shape[1]):
        col = w[:, j].copy()
        want = step.b_diag * col
        want[:-1] += off * col[1:]
        want[1:] += off * col[:-1]
        assert np.array_equal(out[:, j], want), j


def test_an_indefinite_step_names_its_time_and_asks_for_substeps():
    # dt*|c| = 25 on the first half step: its A has a negative diagonal
    grid = Grid1D(-10.0, 10.0, 65)
    kernel = NumericFeynmanKacKernel(Potential.constant(-200.0), grid=grid,
                                     n_substeps=4)
    with pytest.raises(NumericDomainError,
                       match=r"substep ending at t = 0\.125 is not positive "
                             r"definite .*increase n_substeps"):
        kernel.propagator(grid, (0.0, 1.0)).matrix()


def test_sweeps_leave_their_inputs_unchanged(packet_propagator):
    x = GRID.nodes
    u0 = np.exp(-((x - 1.0) ** 2) / 3.0)
    vT = 1.5 + np.sin(0.5 * x)
    u0_copy, vT_copy = u0.copy(), vT.copy()
    u, v = packet_propagator.sweep(u0, vT)
    assert np.array_equal(u0, u0_copy) and np.array_equal(vT, vT_copy)
    assert np.array_equal(u[0], u0) and np.array_equal(v[-1], vT)


@pytest.fixture()
def banded_calls(monkeypatch):
    """Columns of the right-hand side of every ``kernels.solve_banded`` call.

    The wrapper is bound over the module global, as a tracing hook binds
    it, so every Crank-Nicolson step must look the name up when it runs.
    """
    calls: list[int] = []
    solve = kernels.solve_banded

    def counting(diag, off, b):
        calls.append(b.shape[1] if b.ndim == 2 else 1)
        return solve(diag, off, b)

    monkeypatch.setattr(kernels, "solve_banded", counting)
    return calls


def test_the_dense_solve_and_the_sweeps_build_one_step_list(monkeypatch):
    calls = []
    build = kernels._crank_nicolson_steps

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(kernels, "_crank_nicolson_steps", counting)
    grid = Grid1D(-10.0, 10.0, 65)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=grid)
    propagator = kernel.propagator(grid, np.linspace(0.0, 1.0, 5))
    propagator.matrix()
    propagator.sweep(PACKET.factor_u(grid.nodes, 0.0),
                     PACKET.factor_v(grid.nodes, 1.0))
    assert len(calls) == 1


def test_a_propagator_off_the_kernel_grid_is_refused_before_any_step(
        monkeypatch):
    # a 129-point bridge on a kernel left on another grid would evaluate
    # its transitions on that grid
    def refuse(*args):
        pytest.fail("a Crank-Nicolson step was built")

    monkeypatch.setattr(kernels, "_crank_nicolson_steps", refuse)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=Grid1D())
    with pytest.raises(ValueError, match=r"n_points=129.*differs from the "
                                         r"numeric-fk kernel's grid "
                                         r".*n_points=513"):
        kernel.propagator(Grid1D(-10.0, 10.0, 129), np.linspace(0.0, 1.0, 11))
    with pytest.raises(TypeError, match="grid"):
        NumericFeynmanKacKernel(Potential.packet())


def test_sweeps_and_dense_solves_call_the_module_solve_banded(banded_calls):
    grid = Grid1D(-10.0, 10.0, 65)
    times = np.linspace(0.0, 1.0, 5)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=grid)
    propagator = kernel.propagator(grid, times)
    n_steps = sum(len(interval) for interval in propagator.steps)
    propagator.sweep(PACKET.factor_u(grid.nodes, 0.0),
                     PACKET.factor_v(grid.nodes, 1.0))
    # one vector per step forward, one per transposed step backward
    assert banded_calls == [1] * (2 * n_steps)
    banded_calls.clear()
    kernel.propagator(grid, times).matrix()
    # the dense solve carries the delta of every node as one block
    assert banded_calls == [grid.n_points] * n_steps


def test_substeps_are_whole_per_slice_with_one_damped_start():
    # 50 substeps over 20 slice intervals round up to 3 per interval; the
    # first two substeps become four implicit-Euler half steps
    kernel = NumericFeynmanKacKernel(Potential.zero(), grid=GRID,
                                     n_substeps=50)
    steps = kernel.propagator(GRID, TIMES).steps
    assert [len(interval) for interval in steps] == [5] + [3] * 19
    # an implicit-Euler step's B is the trapezoid weights W
    assert [np.array_equal(step.b_diag, GRID.weights) and step.b_off == 0.0
            for step in steps[0]] == [True] * 4 + [False]


def test_default_substeps_follow_the_potential():
    pot = Potential.packet()
    # the fk-bridge lattice: the diffusion term (82) still sets the count,
    # above span * max|c| = 49 (the walls' c)
    assert _default_substeps(pot, GRID, TIMES) == 82
    coarse = Grid1D(-10.0, 10.0, 129)
    # 129 points: the potential term (49, from the walls' c) beats the
    # diffusion term (21)
    assert _default_substeps(pot, coarse, np.linspace(0.0, 1.0, 11)) == 49
    assert _default_substeps(Potential.zero(), coarse, TIMES) == 21


def test_packet_propagator_on_129_points_builds_the_boundary_matrix():
    # the rule without its potential term gave 30 substeps here and a
    # negative entry (-2.8e-11) in K(0, T)
    grid = Grid1D(-10.0, 10.0, 129)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=grid)
    mat = kernel.propagator(grid, np.linspace(0.0, 1.0, 11)).matrix()
    assert np.min(mat.entries) > 0.0


def test_packet_pair_solve_on_129_points():
    # the rule without its potential term gave 16 substeps and -4.1e-07
    grid = Grid1D(-10.0, 10.0, 129)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=grid)
    mat = kernel.propagator(grid, (0.0, 0.5)).matrix()
    pushed = mat.apply_source(PACKET.factor_u(grid.nodes, 0.0))
    assert _rel(pushed, PACKET.factor_u(grid.nodes, 0.5)) < 1e-2


def test_default_substeps_refuse_a_huge_potential():
    # span * max|c| may reach 4 times the diffusion term (82 here)
    assert _default_substeps(Potential.constant(328.0), GRID, TIMES) == 328
    with pytest.raises(ValueError, match="pass n_substeps explicitly"):
        _default_substeps(Potential.constant(329.0), GRID, TIMES)
    # refused before any Crank-Nicolson step is built
    kernel = NumericFeynmanKacKernel(Potential.constant(1e6), grid=GRID)
    with pytest.raises(ValueError, match="pass n_substeps explicitly"):
        kernel.propagator(GRID, TIMES).matrix()
    with pytest.raises(ValueError, match="pass n_substeps explicitly"):
        kernel.propagator(GRID, (0.0, 1.0)).matrix()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_default_substeps_reject_a_non_finite_potential(value):
    with pytest.raises(NumericDomainError, match=r"max\|c\|"):
        _default_substeps(Potential.constant(value), GRID, TIMES)
    kernel = NumericFeynmanKacKernel(Potential.constant(value), grid=GRID)
    with pytest.raises(NumericDomainError):
        kernel.propagator(GRID, TIMES).matrix()


def test_swept_negativity_names_the_factor_slice_and_node():
    # one undamped step per slice at diffusion number ~8 turns a spike in
    # vT into a checkerboard on the adjoint slices
    kernel = NumericFeynmanKacKernel(Potential.zero(), grid=GRID,
                                     n_substeps=20)
    propagator = kernel.propagator(GRID, TIMES)
    vT = np.full(GRID.n_points, 1e-3)
    vT[128] = 1.0
    with pytest.raises(PositivityError,
                       match=r"swept factor v went negative at slice \d+ "
                             r"\(t = [0-9.]+\), node \d+ \(x = -?[0-9.]+\): "
                             r"-[0-9.]+e[-+]\d+"):
        propagator.sweep(np.ones(GRID.n_points), vT)


def test_dense_negativity_names_the_entry_the_pair_and_the_substeps():
    # the packet potential at 193 points: the default rule's 25 substeps
    # over (0, 0.5) leave a negative entry at the right wall
    grid = Grid1D(-10.0, 10.0, 193)
    kernel = NumericFeynmanKacKernel(Potential.packet(), grid=grid)
    with pytest.raises(PositivityError,
                       match=r"^Feynman-Kac solution went negative "
                             r"\(-5\.49\de-08\) at source node 192 "
                             r"\(y = 10\), target node 192 "
                             r"\(x = 10\) of K\(0, 0\.5\) over 25 "
                             r"substeps; refine the substeps$"):
        kernel.propagator(grid, (0.0, 0.5)).matrix()


@pytest.mark.parametrize(
    "tag", ("heat", "markov-family", "quantum-k1", "quantum-k2"))
def test_closed_form_propagation_is_the_per_pair_loop(coarse_bridge, tag):
    # the sweep applies one per-pair matrix per slice, tilted or not
    _, factors, _ = coarse_bridge
    kernel = make_kernel(tag)
    grid = factors.u0.grid
    u0, vT = factors.u0.values, factors.vT.values
    times = np.linspace(0.0, 1.0, 6)
    u, v = kernel.propagator(grid, times).sweep(u0, vT)

    want_u = [u0] + [KernelMatrix.from_kernel(kernel, grid, 0.0, float(t))
                     .apply_source(u0) for t in times[1:]]
    want_v = [KernelMatrix.from_kernel(kernel, grid, float(t), 1.0)
              .apply_target(vT) for t in times[:-1]] + [vT]
    np.testing.assert_array_equal(u, np.array(want_u))
    np.testing.assert_array_equal(v, np.array(want_v))


@pytest.mark.parametrize("tag", ("quantum-k1", "quantum-k2"))
def test_tilted_sweep_builds_sample_one_untilted_spec(monkeypatch, tag):
    # the tilt rides on vectors, so every sweep build holds the untilted
    # spec's entries, and the sweep still makes one build per slice pair
    kernel = make_kernel(tag)
    grid, times = Grid1D(-10.0, 10.0, 65), np.linspace(0.0, 1.0, 5)
    build = KernelMatrix.from_kernel
    built = []

    def recording(spec, grid, s, t):
        built.append((spec, s, t, build(spec, grid, s, t)))
        return built[-1][-1]

    monkeypatch.setattr(KernelMatrix, "from_kernel", staticmethod(recording))
    kernel.propagator(grid, times).sweep(PACKET.factor_u(grid.nodes, 0.0),
                                         PACKET.factor_v(grid.nodes, 1.0))
    monkeypatch.undo()
    assert len(built) == 2 * (times.size - 1)
    base = replace(kernel, log_tilt=None)
    for spec, s, t, mat in built:
        assert spec is kernel
        np.testing.assert_array_equal(
            mat.entries, KernelMatrix.from_kernel(base, grid, s, t).entries)
        a_s, a_t = mat.log_tilt
        np.testing.assert_array_equal(a_s, kernel.log_tilt(grid.nodes, s))
        np.testing.assert_array_equal(a_t, kernel.log_tilt(grid.nodes, t))


def _steep_tilt(slope: float):
    """Heat tilted by a(x, t) = slope t x: on [-1, 1] over times (0, 1)
    both sweep factors have log range ``slope``."""
    return replace(make_kernel("heat"), tag="steep",
                   log_tilt=lambda x, t: slope * t * x)


def test_a_steep_tilt_just_inside_log_max_sweeps_finite():
    grid = Grid1D(-1.0, 1.0, 33)
    ones = np.ones(grid.n_points)
    u, v = _steep_tilt(kernels.LOG_MAX - 0.5).propagator(
        grid, (0.0, 1.0)).sweep(ones, ones)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    assert np.max(u[1]) > 1e300


@pytest.mark.parametrize("tilt, match", [
    (_steep_tilt(kernels.LOG_MAX + 0.5),
     r"steep tilt from s = 0 to t = 1 overflows: log range 710\.283 "
     r"> LOG_MAX"),
    (replace(make_kernel("heat"), tag="steep",
             log_tilt=lambda x, t: np.where(x * t < 0.5, 0.0, -np.inf)),
     r"steep log-tilt at t = 1 is not finite"),
], ids=("overflowing", "non-finite"))
def test_a_tilt_the_sweep_vectors_cannot_hold_is_refused(tilt, match):
    grid = Grid1D(-1.0, 1.0, 33)
    ones = np.ones(grid.n_points)
    with pytest.raises(PositivityError, match=match):
        tilt.propagator(grid, (0.0, 1.0)).sweep(ones, ones)


def test_propagate_accepts_a_built_propagator(coarse_bridge):
    _, factors, solution = coarse_bridge
    kernel = make_kernel("quantum-k1")
    times = solution.rho.times
    propagator = kernel.propagator(factors.u0.grid, times)
    again = propagate_factors(factors, propagator)
    np.testing.assert_array_equal(again.rho.values, solution.rho.values)
    with pytest.raises(ValueError):
        propagate_factors(factors, kernel.propagator(GRID, times))


def test_mass_drift_error_names_the_worst_slice():
    grid = Grid1D(-10.0, 10.0, 65)
    rho = normalize(sample_field(grid, PACKET.rho, 0.0)).values
    u = np.tile(rho, (3, 1))
    v = np.ones_like(u)
    v[1] *= 1.01
    v[2] *= 1.001
    with pytest.raises(PropagationError,
                       match=r"drifts by 1\.000e-02 \(> 0\.0001\) at slice 1 "
                             r"\(t = 0\.5\)"):
        BridgeSolution.from_factor_stacks(
            make_kernel("heat").propagator(grid, np.array([0.0, 0.5, 1.0])),
            u, v)
