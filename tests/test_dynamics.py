from __future__ import annotations

import numpy as np
import pytest

from schrobridge import (BoundaryLeakError, CallableDrift, FieldStack, Grid1D,
                         SDEConfig, ScalarField, TimeSquaredHeatKernel,
                         cdf_from_field, conditional_derivatives,
                         empirical_density, fokker_planck_residual,
                         ks_distance, material_derivative, normalize,
                         sample_field, simulate_backward, simulate_forward)
from schrobridge.packet import PACKET


def _rho0(grid: Grid1D) -> ScalarField:
    return normalize(sample_field(grid, PACKET.rho, 0.0))


def _cfg(**kw) -> SDEConfig:
    base = dict(nu=1.0, n_paths=2000, dt=2e-3, seed=9)
    base.update(kw)
    return SDEConfig(**base)


# ---------------------------------------------------------- reproducibility


def test_same_seed_reproduces_paths_exactly():
    grid = Grid1D()
    a = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0)
    b = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_block_partition_does_not_change_the_draws():
    grid = Grid1D()
    a = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0,
                         block_size=256)
    b = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0,
                         block_size=1024)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_different_seed_changes_the_draws():
    grid = Grid1D()
    a = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(seed=1), 1.0)
    b = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(seed=2), 1.0)
    assert np.max(np.abs(a.positions - b.positions)) > 0.1


# ------------------------------------------------------------- re cords


def test_record_lattice_and_slices():
    grid = Grid1D()
    times = np.array([0.0, 0.25, 1.0])
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(n_paths=64), 1.0, record_times=times)
    np.testing.assert_allclose(ens.times, times)
    assert ens.positions.shape == (64, 3)
    assert ens.slice(0.25).shape == (64,)
    with pytest.raises(ValueError, match="time 0.3 was not recorded"):
        ens.slice(0.3)


@pytest.mark.parametrize("kw, msg", [
    (dict(dt=3e-3), "whole number"),
    (dict(dt=2e-2), "horizon/100"),
])
def test_step_schedule_guards(kw, msg):
    grid = Grid1D()
    with pytest.raises(ValueError, match=msg):
        simulate_forward(PACKET.drift_forward, _rho0(grid),
                         _cfg(n_paths=8, **kw), 1.0)


def test_record_times_must_sit_on_the_step_lattice():
    grid = Grid1D()
    with pytest.raises(ValueError, match="step lattice"):
        simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(n_paths=8),
                         1.0, record_times=np.array([0.0, 0.12345e-1, 1.0]))


# ------------------------------------------------------------ statistics


def test_forward_variance_tracks_the_spreading_packet():
    grid = Grid1D()
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(n_paths=20000, seed=31), 1.0,
                           record_times=np.array([0.0, 0.5, 1.0]))
    for t, want in ((0.0, 1.0), (0.5, 1.25), (1.0, 2.0)):
        var = float(np.var(ens.slice(t)))
        assert var == pytest.approx(want, rel=0.05)


def test_backward_run_recovers_the_start_density():
    grid = Grid1D()
    rhoT = normalize(sample_field(grid, PACKET.rho, 1.0))
    ens = simulate_backward(PACKET.drift_backward, rhoT,
                            _cfg(n_paths=20000, seed=17), 1.0,
                            record_times=np.array([0.0, 0.5, 1.0]))
    assert ens.times[0] == pytest.approx(0.0)
    assert np.all(np.diff(ens.times) > 0.0)
    ks = ks_distance(ens.slice(0.0), lambda x: PACKET.rho_cdf(x, 0.0))
    assert ks < 0.02


def test_reflecting_walls_keep_paths_inside():
    grid = Grid1D(-3.0, 3.0, 129)
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(boundary_policy="reflect"), 1.0,
                           domain=grid)
    assert np.min(ens.positions) >= -3.0
    assert np.max(ens.positions) <= 3.0
    assert ens.n_paths == 2000


def test_absorbing_walls_discard_leaked_paths():
    grid = Grid1D(-6.0, 6.0, 129)
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(boundary_policy="absorb-and-discard",
                                n_paths=4000, seed=23), 1.0, domain=grid)
    assert ens.n_requested == 4000
    assert 0.9 * 4000 <= ens.n_paths <= 4000
    assert np.all(np.isfinite(ens.positions))


def test_heavy_leak_raises():
    tight = Grid1D(-0.5, 0.5, 65)
    with pytest.raises(BoundaryLeakError):
        simulate_forward(PACKET.drift_forward, _rho0(tight),
                         _cfg(boundary_policy="absorb-and-discard",
                              n_paths=500), 1.0, domain=tight)


@pytest.mark.parametrize("policy", ["reflect", "absorb-and-discard"])
@pytest.mark.parametrize("simulate, drift_fn, boundary_time", [
    (simulate_forward, PACKET.drift_forward, 0.0),
    (simulate_backward, PACKET.drift_backward, 1.0),
])
def test_lattice_drift_paths_equal_the_interp_reference(
        policy, simulate, drift_fn, boundary_time, interp_reference):
    grid = Grid1D(-4.0, 4.0, 65)
    stack = FieldStack.sample(grid, np.linspace(0.0, 1.0, 11), drift_fn)
    start = normalize(sample_field(grid, PACKET.rho, boundary_time))
    cfg = _cfg(n_paths=600, dt=1e-2, seed=5, boundary_policy=policy)
    got = simulate(stack, start, cfg, 1.0)
    want = simulate(CallableDrift(lambda x, t: interp_reference(stack, x, t)),
                    start, cfg, 1.0)
    np.testing.assert_array_equal(got.positions, want.positions)
    if policy == "absorb-and-discard":
        # absorbed paths carry NaN through the later lookups
        assert got.n_paths < got.n_requested


def test_bad_policy_is_rejected():
    with pytest.raises(ValueError):
        SDEConfig(boundary_policy="bounce")


# ------------------------------------------------------- density helpers


def test_empirical_density_mass_and_placement():
    grid = Grid1D(0.0, 4.0, 5)
    times = np.array([0.0, 1.0])
    pos = np.array([[1.0, 1.0], [1.0, 3.0], [3.0, 3.0], [1.0, 3.0]])
    ens_cfg = SDEConfig(n_paths=4, dt=1e-2, seed=0)
    from schrobridge.dynamics import PathEnsemble
    ens = PathEnsemble(times=times, positions=pos, config=ens_cfg,
                       horizon=1.0, n_requested=4)
    f = empirical_density(ens, 0.0, grid)
    assert float(grid.weights @ f.values) == pytest.approx(1.0, abs=1e-12)
    # three paths in the bin at x=1, one at x=3, bin width 1
    np.testing.assert_allclose(f.values, [0.0, 0.75, 0.0, 0.25, 0.0])


def test_cdf_from_field_is_linear_for_uniform_density():
    grid = Grid1D(0.0, 2.0, 41)
    uni = ScalarField(grid, np.full(41, 0.5))
    cdf = cdf_from_field(uni)
    probes = np.array([0.0, 0.5, 1.0, 1.7, 2.0])
    np.testing.assert_allclose(cdf(probes), probes / 2.0, atol=1e-12)


def test_ks_distance_frozen_two_point_case():
    samples = np.array([0.25, 0.75])
    assert ks_distance(samples, lambda x: x) == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------ residual engines


def test_fokker_planck_residual_direction_guard():
    grid = Grid1D(-6.0, 6.0, 101)
    stack = FieldStack.sample(grid, np.linspace(0.2, 1.0, 9), PACKET.rho)
    with pytest.raises(ValueError):
        fokker_planck_residual(stack, None, 1.0, direction="sideways")


def test_fokker_planck_residual_zero_drift_heat_flow():
    # rho(x, t) spreading from the origin with nu = 0.5, no drift
    def heat(x, t):
        var = 2.0 * 0.5 * t
        return np.exp(-x * x / (2 * var)) / np.sqrt(2 * np.pi * var)

    errs = []
    for n_x, n_t in ((201, 41), (401, 81)):
        grid = Grid1D(-8.0, 8.0, n_x)
        stack = FieldStack.sample(grid, np.linspace(0.5, 1.5, n_t), heat)
        errs.append(fokker_planck_residual(stack, None, 0.5))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] < 1e-3


def test_fokker_planck_residual_accepts_time_dependent_diffusivity():
    # the squared-time kernel marginal solves d rho / dt = t lap rho
    k = TimeSquaredHeatKernel()
    grid = Grid1D(-8.0, 8.0, 301)
    times = np.linspace(0.5, 1.0, 41)
    stack = FieldStack.sample(grid, times,
                              lambda x, t: k.evaluate(0.0, 0.2, x, t))
    res_good = fokker_planck_residual(stack, None, lambda t: t)
    res_bad = fokker_planck_residual(stack, None, 1.0)
    assert res_good < 2e-2
    assert res_bad > 50 * res_good


def test_conditional_derivatives_of_position_give_the_drifts(coarse_bridge):
    _, _, solution = coarse_bridge
    f = FieldStack.sample(solution.grid, solution.times, lambda x, t: x + 0.0)
    fwd, back = conditional_derivatives(solution, f)
    np.testing.assert_allclose(fwd.values, solution.b, atol=1e-10)
    np.testing.assert_allclose(back.values, solution.b_star, atol=1e-10)


def test_material_derivative_signs():
    grid = Grid1D(-4.0, 4.0, 81)
    times = np.linspace(0.0, 1.0, 11)
    f = FieldStack.sample(grid, times, lambda x, t: x * x)
    zero_drift = FieldStack.sample(grid, times, lambda x, t: 0.0 * x)
    plus = material_derivative(f, zero_drift, 1.0, laplacian_sign=+1.0)
    minus = material_derivative(f, zero_drift, 1.0, laplacian_sign=-1.0)
    # lap(x^2) = 2, so the two derivatives differ by 2 nu * 2
    np.testing.assert_allclose(plus.values[:, 1:-1] - minus.values[:, 1:-1],
                               4.0, atol=1e-9)
