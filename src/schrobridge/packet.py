"""Closed forms for the spreading free Gaussian wave packet.

All expressions use the rescaled convention nu = 1, hbar/(2m) = 1, so the
density variance grows as 1 + t^2.  The packet supplies every analytic
field the rest of the package is checked against: the density and its
positive factorization u * v, the pair of drifts, the osmotic potential,
and the quadratic force derived from it.
"""

from __future__ import annotations

import math

import numpy as np


class FreeGaussianPacket:
    """Evaluator for the free-packet closed forms (nu = 1)."""

    # -- wave function and Madelung pieces ------------------------------

    def psi(self, x, t):
        x = np.asarray(x, dtype=float)
        z = 1.0 + 1j * np.asarray(t, dtype=float)
        return (2.0 / np.pi) ** 0.25 / np.sqrt(2.0 * z) * np.exp(-x * x / (4.0 * z))

    def madelung_r(self, x, t):
        x, s2 = np.asarray(x, dtype=float), 1.0 + np.asarray(t, dtype=float) ** 2
        return -0.25 * np.log(2.0 * np.pi * s2) - x * x / (4.0 * s2)

    def madelung_s(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return x * x * t / (4.0 * (1.0 + t * t)) - 0.5 * np.arctan(t)

    # -- density and factorization --------------------------------------

    def rho(self, x, t):
        x, s2 = np.asarray(x, dtype=float), 1.0 + np.asarray(t, dtype=float) ** 2
        return np.exp(-x * x / (2.0 * s2)) / np.sqrt(2.0 * np.pi * s2)

    def rho_cdf(self, x, t):
        # math.erf per point (numpy has no erf), so the gallery's KS checks
        # load no scipy module; a scalar x gives a float
        x, s2 = np.asarray(x, dtype=float), 1.0 + np.asarray(t, dtype=float) ** 2
        z = x / np.sqrt(2.0 * s2)
        erf = np.fromiter(map(math.erf, z.flat), float, z.size).reshape(z.shape)
        return 0.5 * (1.0 + erf)

    def variance(self, t):
        return 1.0 + np.asarray(t, dtype=float) ** 2

    def log_factor_u(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        s2 = 1.0 + t * t
        return (-0.25 * np.log(2.0 * np.pi * s2)
                - 0.25 * x * x * (1.0 + t) / s2 + 0.5 * np.arctan(t))

    def log_factor_v(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        s2 = 1.0 + t * t
        return (-0.25 * np.log(2.0 * np.pi * s2)
                - 0.25 * x * x * (1.0 - t) / s2 - 0.5 * np.arctan(t))

    def factor_u(self, x, t):
        """Backward factor; solves du/dt = lap(u) - potential * u."""
        return np.exp(self.log_factor_u(x, t))

    def factor_v(self, x, t):
        """Forward factor; solves dv/dt = -lap(v) + potential * v."""
        return np.exp(self.log_factor_v(x, t))

    # -- potential, drifts, force ----------------------------------------

    def potential(self, x, t):
        """Osmotic potential c(x, t); quadratic well shrinking as t grows."""
        x, s2 = np.asarray(x, dtype=float), 1.0 + np.asarray(t, dtype=float) ** 2
        return x * x / (2.0 * s2 * s2) - 1.0 / s2

    def drift_forward(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return -(1.0 - t) * x / (1.0 + t * t)

    def drift_backward(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return (1.0 + t) * x / (1.0 + t * t)

    def current_velocity(self, x, t):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        return x * t / (1.0 + t * t)

    def force(self, x, t):
        """2 * nu * grad(potential); the acceleration both drifts must obey."""
        x, s2 = np.asarray(x, dtype=float), 1.0 + np.asarray(t, dtype=float) ** 2
        return 2.0 * x / (s2 * s2)


PACKET = FreeGaussianPacket()

