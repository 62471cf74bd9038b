from __future__ import annotations

import numpy as np
import pytest

from schrobridge import (FieldStack, Grid1D, PositivityError, ScalarField,
                         burgers_residual, compatibility_potential,
                         hopf_cole_forward, hopf_cole_inverse, sample_field)
from schrobridge.packet import PACKET


def _two_bump(x, t):
    # superposition of spreading heat bumps; stays a heat-flow solution
    def bump(a, m, t0):
        var = 2.0 * (t + t0)
        return a * np.exp(-(x - m) ** 2 / (2 * var)) / np.sqrt(var)
    return bump(0.6, -1.5, 0.5) + bump(0.4, 2.0, 1.0)


def test_forward_transform_is_exact_for_gaussian_fields():
    # ln of a Gaussian is a quadratic, so the lattice gradient is exact
    grid = Grid1D(-6.0, 6.0, 241)
    theta = sample_field(grid, lambda x, t: np.exp(-(x - 0.5) ** 2 / 2.0))
    vel = hopf_cole_forward(theta, nu=1.0)
    np.testing.assert_allclose(vel.values, 2.0 * (grid.nodes - 0.5),
                               atol=1e-11)


def test_forward_transform_requires_positive_field():
    grid = Grid1D(-1.0, 1.0, 33)
    bad = ScalarField(grid, np.linspace(-0.5, 1.0, 33))
    with pytest.raises(PositivityError):
        hopf_cole_forward(bad)


@pytest.mark.parametrize("seed", [0, 7])
def test_roundtrip_on_rough_velocity_fields(seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(-5.0, 5.0, 257)
    rough = np.cumsum(rng.standard_normal(grid.n_points)) * 0.05
    vel = ScalarField(grid, rough - np.mean(rough))
    back = hopf_cole_forward(hopf_cole_inverse(vel, nu=1.0), nu=1.0)
    # interior nodes reproduce the field to rounding, not just O(h^2)
    np.testing.assert_allclose(back.values[1:-1], vel.values[1:-1],
                               atol=1e-10)


def test_roundtrip_on_the_packet_factor():
    grid = Grid1D(-10.0, 10.0, 513)
    theta = sample_field(grid, PACKET.factor_v, 0.5)
    vel = hopf_cole_forward(theta, nu=1.0)
    back = hopf_cole_forward(hopf_cole_inverse(vel, nu=1.0), nu=1.0)
    np.testing.assert_allclose(back.values[1:-1], vel.values[1:-1],
                               atol=1e-10)


def test_inverse_anchor_invariance_up_to_scale():
    grid = Grid1D(-4.0, 4.0, 201)
    vel = sample_field(grid, lambda x, t: np.tanh(x))
    a = hopf_cole_inverse(vel, nu=1.0, anchor=30)
    b = hopf_cole_inverse(vel, nu=1.0, anchor=170)
    assert a.values[30] == pytest.approx(1.0)
    ratio = b.values / a.values
    # the leapfrog chains carry one constant per parity class, exactly
    np.testing.assert_allclose(ratio[::2], ratio[0], rtol=1e-12)
    np.testing.assert_allclose(ratio[1::2], ratio[1], rtol=1e-12)
    # the trapezoid seeds tie the classes together to O(h^3)
    assert abs(ratio[1] / ratio[0] - 1.0) < 1e-5
    with pytest.raises(ValueError):
        hopf_cole_inverse(vel, anchor=500)


def test_unforced_residual_shrinks_at_second_order():
    errs = []
    for n_x, n_t in ((201, 41), (401, 81)):
        grid = Grid1D(-8.0, 8.0, n_x)
        times = np.linspace(0.25, 1.0, n_t)
        theta = FieldStack.sample(grid, times, _two_bump)
        vel = FieldStack(grid, times, np.stack(
            [hopf_cole_forward(theta.slice(t), nu=1.0).values
             for t in times]))
        # mask the far tails, where v grows linearly and the residual
        # maximum just tracks the domain corner instead of the solution
        errs.append(burgers_residual(vel, nu=1.0, rho=theta,
                                     mask_floor=1e-6))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
    assert errs[1] < 2e-3


def test_forced_residual_for_the_backward_drift():
    grid = Grid1D(-8.0, 8.0, 201)
    times = np.linspace(0.0, 1.0, 81)
    vel = FieldStack.sample(grid, times, PACKET.drift_backward)
    force = FieldStack.sample(grid, times, PACKET.force)
    res = burgers_residual(vel, nu=1.0, force=force)
    assert res < 2e-3
    # dropping the force leaves an O(1) defect
    assert burgers_residual(vel, nu=1.0) > 100 * res


def test_compatibility_potential_is_exact_for_a_static_drift():
    # b = -2x with nu = 1: phi = -x^2/2, c = x^2 - 1, all lattice-exact
    grid = Grid1D(-3.0, 3.0, 121)
    times = np.array([0.4, 0.5, 0.6])
    b = FieldStack.sample(grid, times, lambda x, t: -2.0 * x)
    rec = compatibility_potential(b, nu=1.0)
    want = grid.nodes**2 - 1.0
    got = rec.c.values[1]
    np.testing.assert_allclose(got - got[rec.anchor_index],
                               want - want[rec.anchor_index], atol=1e-10)

