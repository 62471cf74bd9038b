from __future__ import annotations

import math

import numpy as np
import pytest

from schrobridge import Grid1D, PACKET, integrate, sample_field

XS = np.linspace(-6.0, 6.0, 241)
TS = (0.0, 0.25, 0.5, 1.0)


@pytest.mark.parametrize("t", TS)
def test_density_is_factor_product(t):
    rho = PACKET.factor_u(XS, t) * PACKET.factor_v(XS, t)
    np.testing.assert_allclose(rho, PACKET.rho(XS, t), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("t", TS)
def test_density_is_squared_wave_amplitude(t):
    np.testing.assert_allclose(np.abs(PACKET.psi(XS, t)) ** 2,
                               PACKET.rho(XS, t), atol=1e-15)


def test_density_normalization_and_variance():
    g = Grid1D(-16.0, 16.0, 2049)
    for t in TS:
        f = sample_field(g, PACKET.rho, t)
        assert integrate(f) == pytest.approx(1.0, abs=1e-12)
        var = integrate(f.with_values(g.nodes**2 * f.values))
        assert var == pytest.approx(PACKET.variance(t), abs=1e-9)


def test_frozen_point_values():
    # peak density at the start and the potential well depth there
    assert PACKET.rho(0.0, 0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi),
                                                 abs=1e-15)
    assert PACKET.potential(0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert PACKET.variance(1.0) == pytest.approx(2.0)


def test_cdf_matches_density():
    # derivative of the closed-form cdf against rho by central differences
    h = 1e-5
    for t in (0.0, 0.7):
        d = (PACKET.rho_cdf(XS + h, t) - PACKET.rho_cdf(XS - h, t)) / (2 * h)
        np.testing.assert_allclose(d, PACKET.rho(XS, t), atol=1e-9)
    assert PACKET.rho_cdf(0.0, 0.3) == pytest.approx(0.5)
    assert isinstance(PACKET.rho_cdf(1.0, 0.3), float)


@pytest.mark.parametrize("t", TS)
def test_drift_identities(t):
    b = PACKET.drift_forward(XS, t)
    b_star = PACKET.drift_backward(XS, t)
    # osmotic relation: b* - b equals -2 nu (d/dx) ln rho
    osmotic = 2.0 * XS / (1.0 + t * t)
    np.testing.assert_allclose(b_star - b, osmotic, atol=1e-13)
    # current velocity is the average of the two drifts
    np.testing.assert_allclose(PACKET.current_velocity(XS, t),
                               0.5 * (b + b_star), atol=1e-13)


@pytest.mark.parametrize("t", TS)
def test_drift_closed_forms(t):
    np.testing.assert_allclose(PACKET.drift_forward(XS, t),
                               -(1.0 - t) * XS / (1.0 + t * t), atol=1e-13)
    np.testing.assert_allclose(PACKET.drift_backward(XS, t),
                               (1.0 + t) * XS / (1.0 + t * t), atol=1e-13)


def test_force_is_potential_gradient():
    for t in TS:
        h = 1e-6
        grad_c = (PACKET.potential(XS + h, t)
                  - PACKET.potential(XS - h, t)) / (2 * h)
        np.testing.assert_allclose(PACKET.force(XS, t), 2.0 * grad_c,
                                   atol=1e-7)


def test_log_factors_match_factors():
    for t in TS:
        np.testing.assert_allclose(np.exp(PACKET.log_factor_u(XS, t)),
                                   PACKET.factor_u(XS, t), rtol=1e-14)
        np.testing.assert_allclose(np.exp(PACKET.log_factor_v(XS, t)),
                                   PACKET.factor_v(XS, t), rtol=1e-14)


def test_madelung_fields_rebuild_psi():
    r = PACKET.madelung_r(XS, 0.5)
    s = PACKET.madelung_s(XS, 0.5)
    np.testing.assert_allclose(np.exp(r + 1j * s), PACKET.psi(XS, 0.5),
                               atol=1e-14)


@pytest.mark.parametrize("t", TS)
def test_cdf_is_the_gaussian_erf_form(t):
    s2 = 1.0 + t * t
    z = XS / np.sqrt(2.0 * s2)
    cdf = PACKET.rho_cdf(XS, t)
    assert np.array_equal(cdf, 0.5 * (1.0 + np.array([math.erf(v) for v in z])))
    # scipy's erf, an independent implementation, agrees to one ulp
    special = pytest.importorskip("scipy.special")
    np.testing.assert_allclose(cdf, 0.5 * (1.0 + special.erf(z)),
                               rtol=0.0, atol=2.3e-16)
