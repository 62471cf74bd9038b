"""Burgers-side tools: Hopf-Cole transform pair, residual, compatibility.

A positive field theta maps to the velocity v = -2 nu d(ln theta)/dx;
if theta solves the heat equation, v solves Burgers.  The inverse
integrates v back up to the free scalar, fixed by theta = 1 at an anchor
node.  The antiderivative uses a leapfrog (midpoint) cumulative rule
seeded by one trapezoid step from the anchor: the package's central
difference then recovers v *exactly* at every interior node, so the
forward/inverse pair round-trips to rounding error rather than O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .grids import (FieldStack, ScalarField, gradient_values, laplacian_values)


def _leapfrog_antiderivative(v: np.ndarray, h: float, anchor: int) -> np.ndarray:
    """Antiderivative C with C[anchor] = 0 and (C[i+1]-C[i-1])/2h = v[i].

    One trapezoid seed step from the anchor, then midpoint chains in both
    directions; the anchor-left neighbor is fixed by the cross relation
    C[a-1] = C[a+1] - 2h v[a], which keeps the central-difference
    identity valid at the anchor itself.
    """
    n = v.size
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} outside [0, {n - 1}]")
    c = np.empty(n)
    c[anchor] = 0.0
    if anchor < n - 1:
        c[anchor + 1] = 0.5 * h * (v[anchor] + v[anchor + 1])
        for i in range(anchor + 1, n - 1):
            c[i + 1] = c[i - 1] + 2.0 * h * v[i]
        for i in range(anchor, 0, -1):
            c[i - 1] = c[i + 1] - 2.0 * h * v[i]
    else:
        c[anchor - 1] = -0.5 * h * (v[anchor] + v[anchor - 1])
        for i in range(anchor - 1, 0, -1):
            c[i - 1] = c[i + 1] - 2.0 * h * v[i]
    return c


def hopf_cole_forward(theta: ScalarField, nu: float = 1.0) -> ScalarField:
    """Velocity -2 nu d(ln theta)/dx of a strictly positive field."""
    if np.min(theta.values) <= 0.0:
        raise PositivityError("hopf_cole_forward needs a strictly positive field")
    vel = -2.0 * nu * gradient_values(np.log(theta.values), theta.grid.spacing)
    return theta.with_values(vel)


def hopf_cole_inverse(velocity: ScalarField, nu: float = 1.0,
                      anchor: int | None = None) -> ScalarField:
    """Positive field exp(-C / 2 nu) whose forward transform returns velocity.

    C is the leapfrog antiderivative of the velocity; the free scalar is
    fixed by theta = 1 at the anchor node (center node when omitted).
    """
    if anchor is None:
        anchor = velocity.grid.n_points // 2
    c = _leapfrog_antiderivative(velocity.values, velocity.grid.spacing, anchor)
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
    res = (np.gradient(vals, velocity.times, axis=0, edge_order=2)
           + vals * gradient_values(vals, h)
           - nu * laplacian_values(vals, h))
    if force is not None:
        res = res - force.values
    window = np.abs(res[1:-1, 1:-1])
    if rho is not None:
        keep = rho.values[1:-1, 1:-1] >= mask_floor
        window = np.where(keep, window, 0.0)
    return float(np.max(window))


@dataclass(frozen=True)
class CompatibilityPotential:
    """Potential stack plus the gauge convention that produced it.

    The potential is defined up to an additive function of time; the
    returned representative uses Phi(x_anchor, t) = 0 for every slice.
    """

    c: FieldStack
    anchor_index: int


def compatibility_potential(b: FieldStack, nu: float = 1.0,
                            anchor: int | None = None) -> CompatibilityPotential:
    """Potential c = dPhi/dt + (b^2 / 2nu + db/dx) / 2 with b = 2 nu dPhi/dx.

    Reconstructs Phi slice by slice with the leapfrog antiderivative
    (anchored at the center node unless given), differentiates it in time
    on the stack lattice, and assembles the unique potential compatible
    with the given forward drift, up to the anchor gauge.
    """
    if anchor is None:
        anchor = b.grid.n_points // 2
    h = b.grid.spacing
    phi = np.empty_like(b.values)
    for k in range(b.times.size):
        phi[k] = _leapfrog_antiderivative(b.values[k] / (2.0 * nu), h, anchor)
    dphi_dt = np.gradient(phi, b.times, axis=0, edge_order=2)
    c_vals = dphi_dt + 0.5 * (b.values**2 / (2.0 * nu)
                              + gradient_values(b.values, h))
    return CompatibilityPotential(c=FieldStack(b.grid, b.times, c_vals),
                                  anchor_index=anchor)
