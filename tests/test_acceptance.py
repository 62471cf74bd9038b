"""End-to-end acceptance gates for the toolkit.

Each test measures one headline property of the package at its stated
tolerance and appends a PASS/FAIL line to the session log (echoed after
the run by the conftest hook), then asserts.  Tolerances here are the
published contract for the package; they are not tuning knobs.

Where a gallery suite already computes a quantity on the same inputs,
the gate reads that check's measured value from the session's report
(the ``gallery_report`` fixture) and holds it to the gate's own bound.
"""
from __future__ import annotations

import numpy as np

from schrobridge import (FieldStack, Grid1D, NumericFeynmanKacKernel,
                         Potential, SDEConfig,
                         burgers_residual, check_chapman_kolmogorov,
                         extract_forward_drift, fokker_planck_residual,
                         gauge_align, hopf_cole_forward, hopf_cole_inverse,
                         ks_distance, make_kernel, pinned_coefficient_dt,
                         sample_field, short_time_moments, simulate_backward,
                         simulate_forward)
from schrobridge.bridge import (BridgeSolution, backward_transition,
                                forward_transition)
from schrobridge.gallery import WIDE_GRID, packet_boundary, packet_bridge
from schrobridge.grids import DENSITY_FLOOR
from schrobridge.packet import PACKET


def _gate(log, number, name, ok, detail):
    """Record one acceptance line, then hand back the assertion message."""
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion-{number:02d} {name}: {detail}"
    log.append(line)
    return line


def _measured(report, *names):
    """Measured values of the named checks of a gallery report."""
    values = {c.name: c.measured for c in report.checks}
    return [values[name] for name in names]


def _rel_sup(candidate, reference, weights):
    lam = gauge_align(candidate, reference, weights)
    return float(np.max(np.abs(lam * candidate - reference))
                 / np.max(np.abs(reference)))


def test_criterion_01_bridge_factor_uniqueness(gallery_report,
                                               acceptance_log):
    # the boundary system has one factor pair (up to gauge), and both
    # interpolating kernels must find it: the gallery matches k1's pair to
    # the closed forms and k2's pair to k1's; k2's to the closed forms here
    grid = WIDE_GRID
    _, factors2, _ = packet_bridge(make_kernel("quantum-k2"),
                                   times=np.array([0.0, 1.0]))
    err = max(
        *_measured(gallery_report("quantum-free"), "factor-match-k1-u0",
                   "factor-match-k1-vT", "factor-agreement-k2-u0",
                   "factor-agreement-k2-vT"),
        _rel_sup(factors2.u0.values, PACKET.factor_u(grid.nodes, 0.0),
                 grid.weights),
        _rel_sup(factors2.vT.values, PACKET.factor_v(grid.nodes, 1.0),
                 grid.weights),
    )
    ok = err < 1e-6
    line = _gate(acceptance_log, 1, "bridge-factor-uniqueness", ok,
                 f"max aligned factor error {err:.3e} (tol 1e-06)")
    assert ok, line


def test_criterion_02_drift_reconstruction(gallery_report, acceptance_log):
    (err,) = _measured(gallery_report("quantum-free"), "bridge-drift-error")
    ok = err < 1e-4
    line = _gate(acceptance_log, 2, "drift-reconstruction", ok,
                 f"max masked drift error {err:.3e} (tol 1e-04)")
    assert ok, line


def test_criterion_03_chapman_kolmogorov_discrimination(gallery_report,
                                                        acceptance_log):
    gallery_worst = max(_measured(gallery_report("example1"),
                                  "ck-consistency-p", "ck-consistency-k1"))
    (violating,) = _measured(gallery_report("example2"), "ck-violation")
    markov = check_chapman_kolmogorov(
        make_kernel("markov-family", anchor_y=1.0, anchor_s=0.0),
        0.0, 0.5, 1.0, Grid1D())
    consistent = max(gallery_worst, markov)
    ok = gallery_worst < 1e-6 and markov <= 1e-6 and violating > 0.01
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


def test_criterion_05_drift_extraction(gallery_report, acceptance_log):
    # b(x, t) = -(1 - t) x / (1 + t^2): the gallery probes (2, 0) and
    # (1, 1/2); at (1, 1) the drift vanishes
    err = max(*_measured(gallery_report("example2"), "drift-limit-at-2-0",
                         "drift-limit-at-1-half"),
              abs(extract_forward_drift(make_kernel("pinned-example2"),
                                        1.0, 1.0)))
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
    """(name, residual(n_x, n_t)) for every transport/heat identity but the
    parabolic pair, whose ratios the quantum-free gallery measures."""
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
    yield ("squared-clock-forward", squared_clock_forward)
    yield ("squared-clock-adjoint", squared_clock_adjoint)
    yield ("pinned-kolmogorov", pinned_kolmogorov)


def test_criterion_06_pde_residual_refinement(gallery_report,
                                              acceptance_log):
    # every governing equation's residual must shrink at second order
    # when both steps are halved
    ratios = {name: residual(201, 41) / residual(401, 81)
              for name, residual in _residual_families()}
    ratios["parabolic-pair-u"], ratios["parabolic-pair-v"] = _measured(
        gallery_report("quantum-free"), "parabolic-refinement-u",
        "parabolic-refinement-v")
    worst = min(ratios.values()), max(ratios.values())
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    bad = {n: f"{r:.2f}" for n, r in ratios.items() if not 3.5 <= r <= 4.5}
    line = _gate(acceptance_log, 6, "pde-residual-refinement", ok,
                 f"{len(ratios)} residual ratios in [{worst[0]:.2f}, "
                 f"{worst[1]:.2f}] (required within [3.5, 4.5])"
                 + (f", out of window: {bad}" if bad else ""))
    assert ok, line


def test_criterion_07_compatibility_condition(gallery_report,
                                              acceptance_log):
    (dev,) = _measured(gallery_report("quantum-free"),
                       "compatibility-spatial-constancy")
    ok = dev < 1e-6
    line = _gate(acceptance_log, 7, "compatibility-condition", ok,
                 f"max spatial deviation {dev:.3e} (tol 1e-06)")
    assert ok, line


def test_criterion_08_monte_carlo_consistency(acceptance_log):
    boundary = packet_boundary(Grid1D())
    config = SDEConfig(nu=1.0, n_paths=100_000, dt=1e-3, seed=2024)
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


def test_criterion_09_identity_suite(acceptance_log):
    kernel = make_kernel("quantum-k1")
    _, _, solution = packet_bridge(kernel)
    rho, u, v = solution.rho, solution.u, solution.v
    grid = rho.grid

    factorization = float(np.max(np.abs(rho.values - u.values * v.values)))

    rng = np.random.default_rng(7)
    core = np.flatnonzero(np.abs(grid.nodes) <= 3.0)
    ys = grid.nodes[rng.choice(core, 60)]
    xs = grid.nodes[rng.choice(core, 60)]
    p = forward_transition(solution, ys, 0.25, xs, 0.75)
    p_star = backward_transition(solution, ys, 0.25, xs, 0.75)
    lhs = PACKET.rho(ys, 0.25) * p
    rhs = p_star * PACKET.rho(xs, 0.75)
    reversal = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))

    # rescaling (u, v) -> (lam u, v / lam) must change nothing observable
    lam = 7.3
    scaled = BridgeSolution.from_factor_stacks(
        kernel.propagator(grid, rho.times), lam * u.values, v.values / lam)
    mask = rho.values >= DENSITY_FLOOR
    gauge = max(
        float(np.max(np.abs(scaled.rho.values - rho.values))),
        float(np.max(np.where(
            mask, np.abs(scaled.b.values - solution.b.values), 0.0))),
        float(np.max(np.where(
            mask, np.abs(scaled.b_star.values - solution.b_star.values), 0.0))),
        float(np.max(np.abs(forward_transition(scaled, ys, 0.25, xs, 0.75)
                            - p) / p)),
        float(np.max(np.abs(backward_transition(scaled, ys, 0.25, xs, 0.75)
                            - p_star) / p_star)),
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
    mat = NumericFeynmanKacKernel(Potential.zero(), grid=grid).propagator(
        grid, (0.0, 0.5)).matrix()
    exact = _heat_exact(grid.nodes[inner][:, None], 0.0,
                        grid.nodes[None, :], 0.5)
    match = float(np.max(np.abs(mat.entries[inner] - exact)) / np.max(exact))

    errs = []
    for n_points, substeps in ((65, 30), (129, 60), (257, 120)):
        level = Grid1D(-10.0, 10.0, n_points)
        m = NumericFeynmanKacKernel(Potential.zero(), grid=level,
                                    n_substeps=substeps).propagator(
            level, (0.0, 0.5)).matrix()
        keep = np.abs(level.nodes) <= 6.0
        ex = _heat_exact(level.nodes[keep][:, None], 0.0,
                         level.nodes[None, :], 0.5)
        errs.append(float(np.max(np.abs(m.entries[keep] - ex)) / np.max(ex)))
    order = min(float(np.log2(errs[i] / errs[i + 1])) for i in range(2))

    damped = NumericFeynmanKacKernel(Potential.packet(), grid=grid).propagator(
        grid, (0.0, 0.5)).matrix()
    pushed = damped.apply_source(PACKET.factor_u(grid.nodes, 0.0))
    reference = PACKET.factor_u(grid.nodes, 0.5)
    propagation = float(np.max(np.abs(pushed - reference))
                        / np.max(reference))

    ok = match <= 1e-3 and order > 1.9 and propagation <= 1e-3
    line = _gate(acceptance_log, 10, "numeric-feynman-kac", ok,
                 f"heat match {match:.3e} (tol 1e-03), order {order:.3f} "
                 f"(must exceed 1.9), factor propagation {propagation:.3e} "
                 f"(tol 1e-03)")
    assert ok, line
