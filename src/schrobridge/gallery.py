"""Worked scenarios: the free packet and its two instructive kernels.

Each suite runs a battery of named checks against the closed forms in
``packet`` and returns a RunReport.  The quantum-free suite exercises
the full pipeline (factorization, bridge solve, drifts, compatibility,
Monte Carlo); the example suites probe the two companion kernels, one a
consistent Markov kernel with a t^2 variance clock, the other a pinned
family that moves the marginals correctly while failing the
Chapman-Kolmogorov test.
"""

from __future__ import annotations

import numpy as np

from .bridge import (IPF_TOL, BoundaryData, BridgeFactors, BridgeSolution,
                     backward_transition, forward_transition, gauge_align,
                     propagate_factors, solve_boundary_system)
from .burgers import (compatibility_potential, hopf_cole_forward,
                      hopf_cole_inverse, hopf_cole_velocity)
from .dynamics import (SDEConfig, cdf_from_field, empirical_density,
                       fokker_planck_residual, ks_distance, simulate_backward,
                       simulate_forward)
from .grids import (DENSITY_FLOOR, FieldStack, Grid1D, integrate, normalize,
                    sample_field)
from .kernels import (KernelMatrix, Potential, check_chapman_kolmogorov,
                      extract_forward_drift, generalized_heat_residual,
                      make_kernel, pinned_coefficient, pinned_coefficient_dt,
                      short_time_moments)
from .packet import PACKET
from .report import RunReport

__all__ = [
    "verify_parabolic_system", "packet_boundary", "packet_bridge",
    "quantum_free_suite", "example1_suite", "example2_suite",
    "SCENARIOS", "scenario_names", "run_scenario",
    "WIDE_GRID", "BRIDGE_TIMES",
]

HORIZON = 1.0
# bridge box: wide enough that factor truncation stays far below the
# density mask edge (|x| <= 10.27 at t = 1 for the 1e-12 floor)
WIDE_GRID = Grid1D(-14.0, 14.0, 1025)
BRIDGE_TIMES = np.linspace(0.0, HORIZON, 21)
# fewest nodes on that box whose quantum-k1 bridge keeps the slice-1 mass
# drift within MASS_DRIFT_TOL: 1.033e-4 at 397 points, 9.83e-5 at 398
QF_MIN_GRID_POINTS = 398


def verify_parabolic_system(grid: Grid1D | None = None,
                            times: np.ndarray | None = None) -> tuple[float, float]:
    """Interior residuals of the adjoint pair for the packet factors.

    Returns (residual of the backward factor equation
    du/dt = lap(u) - c u, residual of the forward factor equation
    dv/dt = -lap(v) + c v) with the packet potential; both shrink at
    second order in the lattice steps.
    """
    # box kept clear of the large-|x|, t -> 1 corner: the potential grows
    # like x^2/2 there while the forward factor stops decaying, which
    # inflates the time-stencil constant without touching the order
    grid = grid or Grid1D(-6.0, 6.0, 201)
    if times is None:
        times = np.linspace(0.0, HORIZON, 81)
    pot = Potential.packet()
    u_stack = FieldStack.sample(grid, times, PACKET.factor_u)
    v_stack = FieldStack.sample(grid, times, PACKET.factor_v)
    return (generalized_heat_residual(u_stack, pot, kind="u"),
            generalized_heat_residual(v_stack, pot, kind="v"))


def packet_boundary(grid: Grid1D) -> BoundaryData:
    """Packet start/end densities on a grid, renormalized to unit mass."""
    rho0 = normalize(sample_field(grid, PACKET.rho, 0.0))
    rhoT = normalize(sample_field(grid, PACKET.rho, HORIZON))
    return BoundaryData(rho0=rho0, rhoT=rhoT)


def packet_bridge(kernel, grid: Grid1D | None = None,
                  times: np.ndarray | None = None,
                  ) -> tuple[BoundaryData, BridgeFactors, BridgeSolution]:
    """Solve and propagate the packet boundary problem for a given kernel."""
    grid = grid or WIDE_GRID
    if times is None:
        times = BRIDGE_TIMES
    boundary = packet_boundary(grid)
    propagator = kernel.propagator(grid, times)
    factors = solve_boundary_system(propagator, boundary)
    return boundary, factors, propagate_factors(factors, propagator)


def _factor_match(report: RunReport, name: str, candidate: np.ndarray,
                  reference: np.ndarray, weights: np.ndarray, tol: float,
                  detail: str = ""):
    lam = gauge_align(candidate, reference, weights)
    err = float(np.max(np.abs(lam * candidate - reference))
                / np.max(np.abs(reference)))
    report.add(name, err, upper=tol, detail=detail or f"gauge scalar {lam:.6g}")


def quantum_free_suite(grid_points: int = 1025, n_paths: int = 20_000,
                       seed: int = 2024) -> RunReport:
    """Full-pipeline checks for the spreading packet scenario."""
    if grid_points < QF_MIN_GRID_POINTS:
        raise ValueError(
            f"the quantum-free suite needs at least {QF_MIN_GRID_POINTS} grid "
            f"points to resolve its first slice, got {grid_points}")
    grid = Grid1D(WIDE_GRID.x_min, WIDE_GRID.x_max, grid_points)
    times = BRIDGE_TIMES
    report = RunReport(scenario="quantum-free", config={
        "grid_points": grid_points, "x_min": grid.x_min, "x_max": grid.x_max,
        "time_slices": times.size, "n_paths": n_paths, "seed": seed,
        "ipf_tol": IPF_TOL})

    # closed-form identities on the lattice
    rho_stack = FieldStack.sample(grid, times, PACKET.rho)
    prod = FieldStack.sample(grid, times,
                             lambda x, t: PACKET.factor_u(x, t) * PACKET.factor_v(x, t))
    report.add("factorization-identity",
               float(np.max(np.abs(prod.values - rho_stack.values))),
               upper=1e-12, detail="u*v against the closed-form density")

    var = integrate(sample_field(grid, lambda x, t: x * x * PACKET.rho(x, t),
                                 HORIZON))
    report.add("variance-at-horizon", abs(var - 2.0), upper=1e-9)

    b_stack = FieldStack.sample(grid, times, PACKET.drift_forward)
    bstar_stack = FieldStack.sample(grid, times, PACKET.drift_backward)
    osmotic = (bstar_stack.values - b_stack.values
               - hopf_cole_velocity(rho_stack.values, grid.spacing, 1.0))
    report.add("drift-difference-identity", float(np.max(np.abs(osmotic))),
               upper=1e-10, detail="b* - b = -2 nu d(ln rho)/dx")

    coarse = verify_parabolic_system()
    fine = verify_parabolic_system(Grid1D(-6.0, 6.0, 401),
                                   np.linspace(0.0, HORIZON, 161))
    report.add("parabolic-residual-fine", max(fine), upper=1e-3)
    for label, c, f in (("u", coarse[0], fine[0]), ("v", coarse[1], fine[1])):
        report.add(f"parabolic-refinement-{label}", c / f,
                   lower=3.5, upper=4.5, detail="coarse/fine residual ratio")

    # compatibility potential against the closed-form osmotic potential
    dev = 0.0
    for t0 in (0.25, 0.5, 0.75):
        t3 = np.array([t0 - 1e-4, t0, t0 + 1e-4])
        b3 = FieldStack.sample(Grid1D(), t3, PACKET.drift_forward)
        c = compatibility_potential(b3, nu=1.0)
        diff = c.values[1] - PACKET.potential(c.grid.nodes, t0)
        dev = max(dev, float(np.max(np.abs(diff - np.mean(diff)))))
    report.add("compatibility-spatial-constancy", dev, upper=1e-6,
               detail="recovered c minus closed form is constant in x")

    # bridge solve with both interpolating kernels
    k1 = make_kernel("quantum-k1")
    k2 = make_kernel("quantum-k2")
    boundary, factors1, solution = packet_bridge(k1, grid=grid)
    # only k2's factor pair is checked, so it needs K(0, H) and no sweep
    factors2 = solve_boundary_system(k2.propagator(grid, (0.0, HORIZON)),
                                     boundary)
    w = grid.weights
    # rho at t = 0 is u0 times K(0, H) applied to vT
    report.add("boundary-recovery-l1",
               float(w @ np.abs(solution.rho.values[0] - boundary.rho0.values)),
               upper=1e-8)

    theta_star0 = PACKET.factor_u(grid.nodes, 0.0)
    theta_t = PACKET.factor_v(grid.nodes, HORIZON)
    _factor_match(report, "factor-match-k1-u0", factors1.u0.values,
                  theta_star0, w, 1e-6)
    _factor_match(report, "factor-match-k1-vT", factors1.vT.values,
                  theta_t, w, 1e-6)
    _factor_match(report, "factor-agreement-k2-u0", factors2.u0.values,
                  factors1.u0.values, w, 1e-6,
                  detail="pinned-kernel factors match the consistent-kernel pair")
    _factor_match(report, "factor-agreement-k2-vT", factors2.vT.values,
                  factors1.vT.values, w, 1e-6,
                  detail="pinned-kernel factors match the consistent-kernel pair")

    mask = solution.rho.values >= DENSITY_FLOOR
    b_err = np.abs(solution.b.values - b_stack.values)
    bstar_err = np.abs(solution.b_star.values - bstar_stack.values)
    report.add("bridge-drift-error",
               float(np.max(np.where(mask, np.maximum(b_err, bstar_err), 0.0))),
               upper=1e-4,
               detail=f"drifts vs closed forms where rho >= {DENSITY_FLOOR:g}")

    # probes sit on lattice nodes so the factor lookups are exact: at any
    # grid size, the nodes nearest three nodes of the default box
    near = np.abs(grid.nodes[:, None] - WIDE_GRID.nodes[[439, 512, 622]])
    probes = grid.nodes[np.argmin(near, axis=0)][:, None]
    p_rows = forward_transition(solution, probes, 0.5, grid.nodes[None, :],
                                HORIZON)
    report.add("transition-normalization",
               float(np.max(np.abs(p_rows @ w - 1.0))), upper=1e-8)

    rng = np.random.default_rng(7)
    core = np.flatnonzero(np.abs(grid.nodes) <= 3.0)
    ys = grid.nodes[rng.choice(core, 50)]
    xs = grid.nodes[rng.choice(core, 50)]
    p_val = forward_transition(solution, ys, 0.25, xs, 0.75)
    pstar_val = backward_transition(solution, ys, 0.25, xs, 0.75)
    lhs = PACKET.rho(ys, 0.25) * p_val
    rhs = pstar_val * PACKET.rho(xs, 0.75)
    report.add("reversal-identity",
               float(np.max(np.abs(lhs - rhs) / np.abs(rhs))), upper=1e-10,
               detail="rho(y,s) p = p* rho(x,t) at sampled points")

    theta_half = sample_field(grid, PACKET.factor_v, 0.5)
    vel = hopf_cole_forward(theta_half, nu=1.0)
    vel_back = hopf_cole_forward(hopf_cole_inverse(vel, nu=1.0), nu=1.0)
    report.add("hopf-cole-roundtrip",
               float(np.max(np.abs(vel_back.values[1:-1] - vel.values[1:-1]))),
               upper=1e-10)

    # transport residuals: osmotic (Fokker-Planck) and current-velocity forms
    small_grid = Grid1D(-10.0, 10.0, 201)
    small_times = np.linspace(0.0, HORIZON, 41)
    rho_small = FieldStack.sample(small_grid, small_times, PACKET.rho)
    b_small = FieldStack.sample(small_grid, small_times, PACKET.drift_forward)
    cur_small = FieldStack.sample(small_grid, small_times,
                                  PACKET.current_velocity)
    report.add("fokker-planck-residual",
               fokker_planck_residual(rho_small, b_small, 1.0, "forward"),
               upper=5e-3)
    report.add("continuity-residual",
               fokker_planck_residual(rho_small, cur_small, 0.0, "forward"),
               upper=5e-3,
               detail="current-velocity continuity, no diffusion term")

    # Monte Carlo: forward variance growth and backward start recovery
    cfg = SDEConfig(nu=1.0, n_paths=n_paths, dt=1e-3, seed=seed,
                    boundary_policy="reflect")
    ens = simulate_forward(PACKET.drift_forward, boundary.rho0, cfg, HORIZON,
                           record_times=np.array([0.0, 0.5, 1.0]))
    for t_probe in (0.5, 1.0):
        v_emp = float(np.var(ens.slice(t_probe)))
        v_true = float(PACKET.variance(t_probe))
        report.add(f"forward-mc-variance-{t_probe}",
                   abs(v_emp - v_true) / v_true, upper=0.025,
                   detail=f"empirical {v_emp:.4f} vs {v_true}")
    ens_back = simulate_backward(PACKET.drift_backward, boundary.rhoT, cfg,
                                 HORIZON, record_times=np.array([0.0, 0.5, 1.0]))
    ks0 = ks_distance(ens_back.slice(0.0), lambda x: PACKET.rho_cdf(x, 0.0))
    report.add("backward-mc-ks", ks0, upper=0.02,
               detail="reconstructed start sample vs packet CDF")
    ks_mid = ks_distance(ens.slice(0.5),
                         cdf_from_field(solution.rho.slice(0.5)))
    report.add("slice-consistency-ks", ks_mid, upper=0.02,
               detail="forward sample at t=0.5 vs bridge density")
    emp = empirical_density(ens, 1.0, Grid1D(-8.0, 8.0, 129))
    report.add("empirical-density-mass", abs(integrate(emp) - 1.0), upper=1e-12)
    return report


def example1_suite(grid_points: int = 513) -> RunReport:
    """Checks for the consistent kernel with the t^2 variance clock."""
    grid = Grid1D(n_points=grid_points)
    p = make_kernel("example1")
    k1 = make_kernel("quantum-k1")
    report = RunReport(scenario="example1", config={
        "grid_points": grid_points, "x_min": grid.x_min, "x_max": grid.x_max})

    report.add("kernel-value-origin",
               abs(float(p.evaluate(0.0, 0.0, 0.0, 1.0))
                   - 1.0 / np.sqrt(2.0 * np.pi)), upper=1e-12)

    worst = 0.0
    for t_end in (0.5, 1.0):
        mat = KernelMatrix.from_kernel(p, grid, 0.0, t_end)
        pushed = mat.apply_source(PACKET.rho(grid.nodes, 0.0))
        worst = max(worst, float(np.max(np.abs(
            pushed - PACKET.rho(grid.nodes, t_end)))))
    report.add("marginal-propagation", worst, upper=1e-8,
               detail="density carried from t=0 to t in {0.5, 1}")

    report.add("ck-consistency-p",
               check_chapman_kolmogorov(p, 0.0, 0.5, 1.0, grid), upper=1e-6)
    report.add("ck-consistency-k1",
               check_chapman_kolmogorov(k1, 0.0, 0.5, 1.0, grid), upper=1e-6)

    # factor pullback/pushforward identities for the tilted kernel
    mat1 = KernelMatrix.from_kernel(k1, grid, 0.25, 0.75)
    theta_back = mat1.apply_target(PACKET.factor_v(grid.nodes, 0.75))
    ref_s = PACKET.factor_v(grid.nodes, 0.25)
    # probes near the boundary lose quadrature mass; sup over the interior
    interior = np.abs(grid.nodes) <= grid.x_max - 4.0
    report.add("theta-pullback",
               float(np.max(np.abs(theta_back - ref_s)[interior])
                     / np.max(ref_s)),
               upper=1e-8, detail="k1 carries theta(.,t) back to theta(.,s)")
    theta_star_fwd = mat1.apply_source(PACKET.factor_u(grid.nodes, 0.25))
    ref_t = PACKET.factor_u(grid.nodes, 0.75)
    report.add("theta-star-pushforward",
               float(np.max(np.abs(theta_star_fwd - ref_t)) / np.max(ref_t)),
               upper=1e-8, detail="k1 carries theta*(.,s) to theta*(.,t)")

    mat01 = KernelMatrix.from_kernel(k1, grid, 0.0, 1.0)
    u0 = PACKET.factor_u(grid.nodes, 0.0)
    vT = PACKET.factor_v(grid.nodes, 1.0)
    sys_left = u0 * mat01.apply_target(vT) - PACKET.rho(grid.nodes, 0.0)
    sys_right = vT * mat01.apply_source(u0) - PACKET.rho(grid.nodes, 1.0)
    report.add("schroedinger-system",
               float(grid.weights @ np.abs(sys_left)
                     + grid.weights @ np.abs(sys_right)), upper=1e-8,
               detail="closed-form factors satisfy both marginal relations")

    rates_1 = short_time_moments(p, 0.0, 1.0)
    report.add("second-moment-rate-at-1",
               abs(rates_1.second_moment_rate - 2.0) / 2.0, upper=0.02,
               detail="clock rate 2t at t=1")
    report.add("leak-rate", abs(rates_1.leak_rate), upper=1e-3)
    report.add("first-moment-rate", abs(rates_1.first_moment_rate), upper=1e-3)
    rates_h = short_time_moments(p, 0.0, 0.5)
    report.add("second-moment-rate-at-half",
               abs(rates_h.second_moment_rate - 1.0), upper=0.02,
               detail="clock rate 2t at t=1/2")
    heat_rates = short_time_moments(make_kernel("heat"), 0.0, 0.5)
    report.add("heat-rate-contrast",
               abs(heat_rates.second_moment_rate - 2.0) / 2.0, upper=0.02,
               detail="constant-clock kernel holds rate 2 nu while this "
                      "kernel's rate tracks 2t")
    tight = short_time_moments(p, 0.0, 1.0, eps=0.5)
    report.add("leak-rate-eps-half", abs(tight.leak_rate), upper=1e-3)

    report.add("drift-extraction-zero",
               abs(extract_forward_drift(p, 2.0, 0.5)), upper=1e-6,
               detail="symmetric kernel has no drift")
    return report


def example2_suite(grid_points: int = 513) -> RunReport:
    """Checks for the pinned family and its Markov completion."""
    grid = Grid1D(n_points=grid_points)
    pinned = make_kernel("pinned-example2")
    report = RunReport(scenario="example2", config={
        "grid_points": grid_points, "x_min": grid.x_min, "x_max": grid.x_max})

    ends = max(abs(pinned_coefficient(t, t) - 1.0) for t in (0.0, 0.5, 1.0))
    report.add("coefficient-at-equal-times", ends, upper=1e-12)
    report.add("coefficient-collapse", abs(pinned_coefficient(1.0, 0.0)),
               upper=1e-12, detail="c(1, 0) = 0: every start is forgotten")

    worst = 0.0
    for s, t in ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0)):
        mat = KernelMatrix.from_kernel(pinned, grid, s, t)
        pushed = mat.apply_source(PACKET.rho(grid.nodes, s))
        worst = max(worst, float(np.max(np.abs(
            pushed - PACKET.rho(grid.nodes, t)))))
    report.add("marginal-propagation", worst, upper=1e-8,
               detail="the family does move the density correctly")

    ck = check_chapman_kolmogorov(pinned, 0.0, 0.5, 1.0, grid)
    report.add("ck-violation", ck, lower=0.01,
               detail="compose(0->0.5->1) disagrees with direct(0->1)")

    k2 = make_kernel("quantum-k2")
    mat01 = KernelMatrix.from_kernel(k2, grid, 0.0, 1.0)
    theta_back = mat01.apply_target(PACKET.factor_v(grid.nodes, 1.0))
    ref0 = PACKET.factor_v(grid.nodes, 0.0)
    report.add("k2-theta-pullback",
               float(np.max(np.abs(theta_back - ref0)) / np.max(ref0)),
               upper=1e-8)
    star_fwd = mat01.apply_source(PACKET.factor_u(grid.nodes, 0.0))
    ref1 = PACKET.factor_u(grid.nodes, 1.0)
    report.add("k2-theta-star-pushforward",
               float(np.max(np.abs(star_fwd - ref1)) / np.max(ref1)),
               upper=1e-8)

    report.add("drift-limit-at-2-0",
               abs(extract_forward_drift(pinned, 2.0, 0.0) + 2.0), upper=1e-3,
               detail="short-time conditional mean gives b(2, 0) = -2")
    report.add("drift-limit-at-1-half",
               abs(extract_forward_drift(pinned, 1.0, 0.5) + 0.4), upper=1e-3,
               detail="b(x, t) = -(1 - t) x / (1 + t^2)")

    family = make_kernel("markov-family", anchor_y=1.0, anchor_s=0.1)
    fam_rates = short_time_moments(family, 1.0, 0.5)
    report.add("family-delta-limit",
               abs(fam_rates.second_moment_rate - 2.0), upper=0.04,
               detail="second-moment rate 2 nu as t2 -> t1")
    report.add("family-delta-leak", abs(fam_rates.leak_rate), upper=1e-3)

    # its one-time marginals: the pinned kernel from its anchor (1, 0.1)
    mat_fam = KernelMatrix.from_kernel(family, grid, 0.3, 0.8)
    flow = mat_fam.apply_source(pinned.evaluate(1.0, 0.1, grid.nodes, 0.3))
    gap = flow - pinned.evaluate(1.0, 0.1, grid.nodes, 0.8)
    report.add("family-marginal-flow", float(np.max(np.abs(gap))),
               upper=1e-8, detail="one-time marginals ride along the family")
    report.add("family-ck",
               check_chapman_kolmogorov(family, 0.25, 0.5, 1.0, grid),
               upper=1e-6, detail="the completed family is consistent")

    # Kolmogorov equation of the family member pinned at (1.5, 0.3)
    y_a, s_a = 1.5, 0.3
    lat_grid = Grid1D(-10.0, 10.0, 201)
    lat_times = np.linspace(0.5, 1.0, 26)
    stack = FieldStack.sample(
        lat_grid, lat_times, lambda x, t: pinned.evaluate(y_a, s_a, x, t))
    drift = FieldStack.sample(lat_grid, lat_times, lambda x, t: np.full_like(
        x, y_a * pinned_coefficient_dt(t, s_a)))
    report.add("family-kolmogorov-residual",
               fokker_planck_residual(stack, drift, 1.0, "forward"), upper=2e-2,
               detail="dp/dt = lap(p) - y dc/dt dp/dx at (y,s) = (1.5, 0.3)")
    return report


SCENARIOS = {
    "quantum-free": quantum_free_suite,
    "example1": example1_suite,
    "example2": example2_suite,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def run_scenario(name: str, **kwargs) -> RunReport:
    """Run a named gallery scenario suite."""
    try:
        suite = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {scenario_names()}") from None
    return suite(**kwargs)
