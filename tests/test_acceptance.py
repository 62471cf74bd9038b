"""End-to-end acceptance gates for the toolkit.

Each test measures one headline property of the package at its stated
tolerance and appends a PASS/FAIL line to the session log (echoed after
the run by the conftest hook), then asserts.  Tolerances here are the
published contract for the package; they are not tuning knobs.
"""
from __future__ import annotations

import numpy as np
import pytest

from schrobridge import (FieldStack, Grid1D, Potential, SDEConfig,
                         burgers_residual, check_chapman_kolmogorov,
                         compatibility_potential, extract_forward_drift,
                         fokker_planck_residual, gauge_align,
                         hopf_cole_forward, hopf_cole_inverse, ks_distance,
                         make_kernel, pinned_coefficient_dt, sample_field,
                         short_time_moments, simulate_backward,
                         simulate_forward, solve_feynman_kac)
from schrobridge.bridge import (BridgeSolution, backward_transition,
                                forward_transition)
from schrobridge.gallery import (packet_boundary, packet_bridge,
                                 verify_parabolic_system)
from schrobridge.packet import PACKET


def _gate(log, number, name, ok, detail):
    """Record one acceptance line, then hand back the assertion message."""
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion-{number:02d} {name}: {detail}"
    log.append(line)
    return line


def _rel_sup(candidate, reference, weights):
    lam = gauge_align(candidate, reference, weights)
    return float(np.max(np.abs(lam * candidate - reference))
                 / np.max(np.abs(reference)))


def test_criterion_01_bridge_factor_uniqueness(wide_bridge, acceptance_log):
    # the boundary system has one factor pair (up to gauge), and both
    # interpolating kernels must find it
    _, factors1, solution = wide_bridge
    grid = solution.grid
    w = grid.weights
    theta_star0 = PACKET.factor_u(grid.nodes, 0.0)
    theta_end = PACKET.factor_v(grid.nodes, 1.0)
    _, factors2, _ = packet_bridge(make_kernel("quantum-k2"),
                                   times=np.array([0.0, 0.5, 1.0]))
    err = max(
        _rel_sup(factors1.u0.values, theta_star0, w),
        _rel_sup(factors1.vT.values, theta_end, w),
        _rel_sup(factors2.u0.values, theta_star0, w),
        _rel_sup(factors2.vT.values, theta_end, w),
        _rel_sup(factors2.u0.values, factors1.u0.values, w),
        _rel_sup(factors2.vT.values, factors1.vT.values, w),
    )
    ok = err < 1e-6
    line = _gate(acceptance_log, 1, "bridge-factor-uniqueness", ok,
                 f"max aligned factor error {err:.3e} (tol 1e-06)")
    assert ok, line


def test_criterion_02_drift_reconstruction(wide_bridge, acceptance_log):
    _, _, solution = wide_bridge
    grid = solution.grid
    mask = solution.density_mask(1e-12)
    b_true = FieldStack.sample(grid, solution.times, PACKET.drift_forward)
    bs_true = FieldStack.sample(grid, solution.times, PACKET.drift_backward)
    err = max(
        float(np.max(np.where(mask, np.abs(solution.b - b_true.values), 0.0))),
        float(np.max(np.where(mask, np.abs(solution.b_star - bs_true.values),
                              0.0))))
    ok = err < 1e-4
    line = _gate(acceptance_log, 2, "drift-reconstruction", ok,
                 f"max masked drift error {err:.3e} (tol 1e-04)")
    assert ok, line


def test_criterion_03_chapman_kolmogorov_discrimination(acceptance_log):
    grid = Grid1D()
    consistent = max(
        check_chapman_kolmogorov(kernel, 0.0, 0.5, 1.0, grid)
        for kernel in (make_kernel("example1"), make_kernel("quantum-k1"),
                       make_kernel("markov-family", anchor_y=1.0, anchor_s=0.0)))
    violating = check_chapman_kolmogorov(make_kernel("pinned-example2"),
                                         0.0, 0.5, 1.0, grid)
    ok = consistent <= 1e-6 and violating > 0.01
    line = _gate(acceptance_log, 3, "chapman-kolmogorov-discrimination", ok,
                 f"consistent worst {consistent:.3e} (tol 1e-06), "
                 f"pinned {violating:.3e} (must exceed 1e-02)")
    assert ok, line


def test_criterion_04_short_time_moments(acceptance_log):
    kernel = make_kernel("example1")
    m2_rel = leak = m1 = 0.0
    for t in (0.5, 1.0):
        m = short_time_moments(kernel, 0.7, t)
        m2_rel = max(m2_rel, abs(m.second_moment_rate - 2.0 * t) / (2.0 * t))
        leak = max(leak, abs(m.leak_rate))
        m1 = max(m1, abs(m.first_moment_rate))
    ok = m2_rel <= 0.02 and leak < 1e-3 and m1 < 1e-3
    line = _gate(acceptance_log, 4, "short-time-moments", ok,
                 f"m2 rel {m2_rel:.3e} (tol 2e-02), leak {leak:.3e}, "
                 f"m1 {m1:.3e} (tol 1e-03)")
    assert ok, line


def test_criterion_05_drift_extraction(acceptance_log):
    kernel = make_kernel("pinned-example2")
    err = max(
        abs(extract_forward_drift(kernel, x, t)
            - (-(1.0 - t) * x / (1.0 + t * t)))
        for x, t in ((2.0, 0.0), (1.0, 0.5), (1.0, 1.0)))
    ok = err < 1e-3
    line = _gate(acceptance_log, 5, "drift-extraction", ok,
                 f"max pointwise error {err:.3e} (tol 1e-03)")
    assert ok, line


def _two_bump(x, t):
    def bump(a, m, t_off):
        var = 2.0 * (t + t_off)
        return a * np.exp(-(x - m) ** 2 / (2 * var)) / np.sqrt(var)
    return bump(0.6, -1.5, 0.5) + bump(0.4, 2.0, 1.0)


def _residual_families():
    """(name, residual(n_x, n_t)) for every transport/heat identity."""
    p27 = make_kernel("example1")
    pin = make_kernel("pinned-example2")

    def packet_fp(n_x, n_t, drift_fn, direction):
        grid = Grid1D(-10.0, 10.0, n_x)
        times = np.linspace(0.0, 1.0, n_t)
        rho = FieldStack.sample(grid, times, PACKET.rho)
        b = FieldStack.sample(grid, times, drift_fn)
        return fokker_planck_residual(rho, b, 1.0, direction)

    def free_burgers(n_x, n_t):
        grid = Grid1D(-8.0, 8.0, n_x)
        times = np.linspace(0.25, 1.0, n_t)
        theta = FieldStack.sample(grid, times, _two_bump)
        vel = FieldStack(grid, times, np.stack(
            [hopf_cole_forward(theta.slice(t), nu=1.0).values
             for t in times]))
        return burgers_residual(vel, nu=1.0, rho=theta, mask_floor=1e-6)

    def forced_burgers(n_x, n_t):
        grid = Grid1D(-10.0, 10.0, n_x)
        times = np.linspace(0.0, 1.0, n_t)
        vel = FieldStack.sample(grid, times, PACKET.drift_backward)
        force = FieldStack.sample(grid, times, PACKET.force)
        rho = FieldStack.sample(grid, times, PACKET.rho)
        return burgers_residual(vel, nu=1.0, force=force, rho=rho)

    def squared_clock_forward(n_x, n_t):
        grid = Grid1D(-6.0, 6.0, n_x)
        times = np.linspace(0.5, 1.0, n_t)
        rho = FieldStack.sample(grid, times,
                                lambda x, t: p27.evaluate(0.0, 0.2, x, t))
        return fokker_planck_residual(rho, None, lambda t: t, "forward")

    def squared_clock_adjoint(n_x, n_t):
        grid = Grid1D(-6.0, 6.0, n_x)
        starts = np.linspace(0.0, 0.6, n_t)
        stack = FieldStack.sample(grid, starts,
                                  lambda y, s: p27.evaluate(y, s, 0.5, 1.0))
        return fokker_planck_residual(stack, None, lambda s: s, "backward")

    def pinned_kolmogorov(n_x, n_t):
        grid = Grid1D(-6.0, 6.0, n_x)
        times = np.linspace(0.5, 1.0, n_t)
        rho = FieldStack.sample(grid, times,
                                lambda x, t: pin.evaluate(1.5, 0.3, x, t))
        drift = FieldStack.sample(grid, times, lambda x, t: np.full_like(
            x, 1.5 * pinned_coefficient_dt(t, 0.3)))
        return fokker_planck_residual(rho, drift, 1.0, "forward")

    yield ("forward-fokker-planck",
           lambda n_x, n_t: packet_fp(n_x, n_t, PACKET.drift_forward,
                                      "forward"))
    yield ("backward-fokker-planck",
           lambda n_x, n_t: packet_fp(n_x, n_t, PACKET.drift_backward,
                                      "backward"))
    yield ("free-burgers", free_burgers)
    yield ("forced-burgers", forced_burgers)
    yield ("parabolic-pair-u",
           lambda n_x, n_t: verify_parabolic_system(
               Grid1D(-6.0, 6.0, n_x), np.linspace(0.0, 1.0, 2 * n_t - 1))[0])
    yield ("parabolic-pair-v",
           lambda n_x, n_t: verify_parabolic_system(
               Grid1D(-6.0, 6.0, n_x), np.linspace(0.0, 1.0, 2 * n_t - 1))[1])
    yield ("squared-clock-forward", squared_clock_forward)
    yield ("squared-clock-adjoint", squared_clock_adjoint)
    yield ("pinned-kolmogorov", pinned_kolmogorov)


def test_criterion_06_pde_residual_refinement(acceptance_log):
    # every governing equation's residual must shrink at second order
    # when both steps are halved
    ratios = {}
    for name, residual in _residual_families():
        coarse = residual(201, 41)
        fine = residual(401, 81)
        ratios[name] = coarse / fine
    worst = min(ratios.values()), max(ratios.values())
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    bad = {n: f"{r:.2f}" for n, r in ratios.items() if not 3.5 <= r <= 4.5}
    line = _gate(acceptance_log, 6, "pde-residual-refinement", ok,
                 f"{len(ratios)} residual ratios in [{worst[0]:.2f}, "
                 f"{worst[1]:.2f}] (required within [3.5, 4.5])"
                 + (f", out of window: {bad}" if bad else ""))
    assert ok, line


def test_criterion_07_compatibility_condition(acceptance_log):
    dev = 0.0
    for t_mid in (0.25, 0.5, 0.75):
        times = np.array([t_mid - 1e-4, t_mid, t_mid + 1e-4])
        b = FieldStack.sample(Grid1D(), times, PACKET.drift_forward)
        rec = compatibility_potential(b, nu=1.0)
        diff = rec.c.values[1] - PACKET.potential(rec.c.grid.nodes, t_mid)
        dev = max(dev, float(np.max(np.abs(diff - np.mean(diff)))))
    ok = dev < 1e-6
    line = _gate(acceptance_log, 7, "compatibility-condition", ok,
                 f"max spatial deviation {dev:.3e} (tol 1e-06)")
    assert ok, line


def test_criterion_08_monte_carlo_consistency(acceptance_log):
    boundary = packet_boundary(Grid1D())
    config = SDEConfig(nu=1.0, n_paths=100_000, dt=1e-3, seed=2024,
                       boundary_policy="reflect")
    record = np.array([0.0, 0.5, 1.0])
    forward = simulate_forward(PACKET.drift_forward, boundary.rho0, config,
                               1.0, record_times=record)
    var_rel = ks_fwd = 0.0
    for t in (0.5, 1.0):
        samples = forward.slice(t)
        var_rel = max(var_rel,
                      abs(float(np.var(samples)) - (1.0 + t * t))
                      / (1.0 + t * t))
        ks_fwd = max(ks_fwd, ks_distance(samples,
                                         lambda x: PACKET.rho_cdf(x, t)))
    backward = simulate_backward(PACKET.drift_backward, boundary.rhoT, config,
                                 1.0, record_times=record)
    ks_back = ks_distance(backward.slice(0.0),
                          lambda x: PACKET.rho_cdf(x, 0.0))
    ok = var_rel <= 0.02 and ks_fwd < 0.02 and ks_back < 0.02
    line = _gate(acceptance_log, 8, "monte-carlo-consistency", ok,
                 f"variance rel {var_rel:.3e} (tol 2e-02), forward KS "
                 f"{ks_fwd:.3e}, backward KS {ks_back:.3e} (tol 2e-02)")
    assert ok, line


def test_criterion_09_identity_suite(wide_bridge, acceptance_log):
    _, _, solution = wide_bridge
    kernel = make_kernel("quantum-k1")
    grid = solution.grid

    factorization = float(np.max(np.abs(solution.rho
                                        - solution.u * solution.v)))

    rng = np.random.default_rng(7)
    core = np.flatnonzero(np.abs(grid.nodes) <= 3.0)
    ys = grid.nodes[rng.choice(core, 60)]
    xs = grid.nodes[rng.choice(core, 60)]
    p = forward_transition(solution, kernel, ys, 0.25, xs, 0.75)
    p_star = backward_transition(solution, kernel, ys, 0.25, xs, 0.75)
    lhs = PACKET.rho(ys, 0.25) * p
    rhs = p_star * PACKET.rho(xs, 0.75)
    reversal = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))

    # rescaling (u, v) -> (lam u, v / lam) must change nothing observable
    lam = 7.3
    scaled = BridgeSolution.from_factor_stacks(
        grid, solution.times, lam * solution.u, solution.v / lam, solution.nu)
    mask = solution.density_mask(1e-12)
    gauge = max(
        float(np.max(np.abs(scaled.rho - solution.rho))),
        float(np.max(np.where(mask, np.abs(scaled.b - solution.b), 0.0))),
        float(np.max(np.where(mask, np.abs(scaled.b_star - solution.b_star),
                              0.0))),
        float(np.max(np.abs(forward_transition(scaled, kernel, ys, 0.25,
                                               xs, 0.75) - p) / p)),
        float(np.max(np.abs(backward_transition(scaled, kernel, ys, 0.25,
                                                xs, 0.75) - p_star) / p_star)),
    )

    theta = sample_field(Grid1D(), PACKET.factor_v, 0.5)
    vel = hopf_cole_forward(theta, nu=1.0)
    back = hopf_cole_forward(hopf_cole_inverse(vel, nu=1.0), nu=1.0)
    roundtrip = float(np.max(np.abs(back.values[1:-1] - vel.values[1:-1])))

    ok = (reversal < 1e-10 and factorization <= 1e-12 and gauge <= 1e-12
          and roundtrip <= 1e-10)
    line = _gate(acceptance_log, 9, "identity-suite", ok,
                 f"reversal {reversal:.3e} (tol 1e-10), rho-uv "
                 f"{factorization:.3e} (tol 1e-12), gauge {gauge:.3e} "
                 f"(tol 1e-12), roundtrip {roundtrip:.3e} (tol 1e-10)")
    assert ok, line


def _heat_exact(y, s, x, t):
    var = 2.0 * (t - s)
    return np.exp(-(x - y) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def test_criterion_10_numeric_feynman_kac(acceptance_log):
    grid = Grid1D()
    inner = np.abs(grid.nodes) <= 6.0
    mat = solve_feynman_kac(Potential.zero(), grid, 0.0, 0.5)
    exact = _heat_exact(grid.nodes[inner][:, None], 0.0,
                        grid.nodes[None, :], 0.5)
    match = float(np.max(np.abs(mat.entries[inner] - exact)) / np.max(exact))

    errs = []
    for n_points, substeps in ((65, 30), (129, 60), (257, 120)):
        level = Grid1D(-10.0, 10.0, n_points)
        m = solve_feynman_kac(Potential.zero(), level, 0.0, 0.5,
                              n_substeps=substeps)
        keep = np.abs(level.nodes) <= 6.0
        ex = _heat_exact(level.nodes[keep][:, None], 0.0,
                         level.nodes[None, :], 0.5)
        errs.append(float(np.max(np.abs(m.entries[keep] - ex)) / np.max(ex)))
    order = min(float(np.log2(errs[i] / errs[i + 1])) for i in range(2))

    damped = solve_feynman_kac(Potential.packet(), grid, 0.0, 0.5)
    pushed = damped.apply_source(PACKET.factor_u(grid.nodes, 0.0))
    reference = PACKET.factor_u(grid.nodes, 0.5)
    propagation = float(np.max(np.abs(pushed - reference))
                        / np.max(reference))

    ok = match <= 1e-3 and order >= 1.9 and propagation <= 1e-3
    line = _gate(acceptance_log, 10, "numeric-feynman-kac", ok,
                 f"heat match {match:.3e} (tol 1e-03), order {order:.3f} "
                 f"(min 1.9), factor propagation {propagation:.3e} "
                 f"(tol 1e-03)")
    assert ok, line
