"""Burgers-side tools: Hopf-Cole transform pair, residual, compatibility.

A positive field theta maps to the velocity v = -2 nu d(ln theta)/dx;
if theta solves the heat equation, v solves Burgers.  The inverse
integrates v back up to the free scalar, fixed by theta = 1 at the
center node n // 2.  The antiderivative uses a leapfrog (midpoint)
cumulative rule seeded by one trapezoid step from the center: the
package's central difference then recovers v *exactly* at every interior
node, so the forward/inverse pair round-trips to rounding error rather
than O(h^2).
"""

from __future__ import annotations

import numpy as np

from .errors import PositivityError
from .grids import (FieldStack, ScalarField, gradient_values, interior_max,
                    laplacian_values, time_derivative)


def _leapfrog_antiderivative(v: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative C with C[a] = 0 at a = n // 2 and
    (C[i+1]-C[i-1])/2h = v[i].

    One trapezoid seed step from a, then midpoint chains in both
    directions; the left neighbor of a is fixed by the cross relation
    C[a-1] = C[a+1] - 2h v[a], which keeps the central-difference
    identity valid at a itself.
    """
    n = v.size
    a = n // 2
    c = np.empty(n)
    c[a] = 0.0
    c[a + 1] = 0.5 * h * (v[a] + v[a + 1])
    for i in range(a + 1, n - 1):
        c[i + 1] = c[i - 1] + 2.0 * h * v[i]
    for i in range(a, 0, -1):
        c[i - 1] = c[i + 1] - 2.0 * h * v[i]
    return c


def hopf_cole_velocity(values: np.ndarray, spacing: float,
                       nu: float) -> np.ndarray:
    """-2 nu d(ln f)/dx along the last axis of positive samples f; exact
    for log-quadratic f under the central stencils."""
    return -2.0 * nu * gradient_values(np.log(values), spacing)


def hopf_cole_forward(theta: ScalarField, nu: float = 1.0) -> ScalarField:
    """Velocity -2 nu d(ln theta)/dx of a strictly positive field."""
    if np.min(theta.values) <= 0.0:
        raise PositivityError("hopf_cole_forward needs a strictly positive field")
    return theta.with_values(
        hopf_cole_velocity(theta.values, theta.grid.spacing, nu))


def hopf_cole_inverse(velocity: ScalarField, nu: float = 1.0) -> ScalarField:
    """Positive field exp(-C / 2 nu) whose forward transform returns velocity.

    C is the leapfrog antiderivative of the velocity, so theta = 1 at the
    center node n // 2."""
    c = _leapfrog_antiderivative(velocity.values, velocity.grid.spacing)
    return velocity.with_values(np.exp(-c / (2.0 * nu)))


def burgers_residual(velocity: FieldStack, nu: float,
                     force: FieldStack | None = None,
                     rho: FieldStack | None = None,
                     mask_floor: float = 1e-12) -> float:
    """Max interior residual of dv/dt + v dv/dx - nu lap(v) - F.

    ``force`` omitted means the unforced equation.  When ``rho`` is given,
    points where it falls below ``mask_floor`` are excluded, matching the
    support on which the velocity field is trustworthy.
    """
    h = velocity.grid.spacing
    vals = velocity.values
    res = (time_derivative(vals, velocity.times)
           + vals * gradient_values(vals, h)
           - nu * laplacian_values(vals, h))
    if force is not None:
        res = res - force.values
    return interior_max(res, None if rho is None else rho.values, mask_floor)


def compatibility_potential(b: FieldStack, nu: float = 1.0) -> FieldStack:
    """Potential c = dPhi/dt + (b^2 / 2nu + db/dx) / 2 with b = 2 nu dPhi/dx.

    Reconstructs Phi slice by slice with the leapfrog antiderivative,
    differentiates it in time on the stack lattice, and returns the
    unique potential compatible with the given forward drift, up to the
    gauge Phi = 0 at the center node n // 2 of every slice.
    """
    h = b.grid.spacing
    phi = np.stack([_leapfrog_antiderivative(row / (2.0 * nu), h)
                    for row in b.values])
    c_vals = time_derivative(phi, b.times) + 0.5 * (
        b.values**2 / (2.0 * nu) + gradient_values(b.values, h))
    return FieldStack(b.grid, b.times, c_vals)
