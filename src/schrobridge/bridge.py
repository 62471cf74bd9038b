"""Boundary-data factorization: IPF solve, factor propagation, transitions.

The boundary problem asks for positive factors (u0, vT) such that the
product measure u0(y) k(y, 0, x, T) vT(x) has the prescribed densities
as its two marginals.  ``solve_boundary_system`` finds the factor pair
by iterative proportional fitting; ``propagate_factors`` carries the
pair across a time lattice through the kernel's ``Propagator``, giving
interpolating densities and the two drifts; the transition constructors
tilt the reference kernel by the propagated factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, IncompatibilityError, NormalizationError,
                     PositivityError, PropagationError)
from .burgers import hopf_cole_velocity
from .grids import FieldStack, Grid1D, ScalarField, integrate, lattice_index
from .kernels import Kernel, KernelMatrix, Propagator

FACTOR_CLIP = 1e-300
MASS_TOL = 1e-8
MASS_DRIFT_TOL = 1e-4
DENSITY_FLOOR = 1e-12
IPF_TOL = 1e-12
IPF_MAX_SWEEPS = 500


def _node(grid: Grid1D, values: np.ndarray, i: int) -> str:
    return f"node {i} (x = {grid.nodes[i]:.6g}, value {values[i]:.3e})"


def _worst_node(grid: Grid1D, values: np.ndarray) -> str:
    """The first non-finite node of ``values``, else its smallest one."""
    bad = ~np.isfinite(values)
    return _node(grid, values,
                 int(np.argmax(bad)) if bad.any() else int(np.argmin(values)))


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed start/end densities on a common grid."""

    rho0: ScalarField
    rhoT: ScalarField
    horizon: float

    def __post_init__(self):
        if self.rho0.grid != self.rhoT.grid:
            raise ValueError("boundary densities must share a grid")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        for name, f in (("rho0", self.rho0), ("rhoT", self.rhoT)):
            bad = np.flatnonzero(f.values <= 0.0)
            if bad.size:
                raise PositivityError(
                    f"{name} must be strictly positive: {bad.size} of "
                    f"{f.values.size} nodes are <= 0, the first is "
                    + _node(f.grid, f.values, int(bad[0])))
            mass = integrate(f)
            if abs(mass - 1.0) > MASS_TOL:
                raise NormalizationError(
                    f"{name} mass {mass!r} deviates from 1 beyond {MASS_TOL}")

    @property
    def grid(self) -> Grid1D:
        return self.rho0.grid


@dataclass(frozen=True)
class BridgeFactors:
    """Positive factor pair; gauge records the scalar removed from u0."""

    u0: ScalarField
    vT: ScalarField
    gauge: float


def marginal_l1_residual(matrix: KernelMatrix, u: np.ndarray, v: np.ndarray,
                         boundary: BoundaryData) -> float:
    """L1 defect of both marginals for a candidate factor pair."""
    w = matrix.grid.weights
    left = u * matrix.apply_target(v) - boundary.rho0.values
    right = v * matrix.apply_source(u) - boundary.rhoT.values
    return float(w @ np.abs(left) + w @ np.abs(right))


def solve_boundary_system(matrix: KernelMatrix, boundary: BoundaryData,
                          tol: float = IPF_TOL,
                          callback: Callable[[int, float, float], None] | None = None,
                          ) -> BridgeFactors:
    """Iterative proportional fitting for the boundary factor pair.

    Alternates u = rho0 / K v and v = rhoT / K^T u (quadrature-weighted
    kernel applications) until the successive L1 change of the pair drops
    below ``tol``, within IPF_MAX_SWEEPS sweeps.  The returned pair is
    gauge-fixed so u0 has unit integral; ``gauge`` is the scalar that was
    divided out.

    ``callback(iteration, l1_change, marginal_residual)``, when given, is
    invoked once per sweep; the residual sequence is non-increasing.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"IPF tol must be positive and finite, got {tol}")
    if matrix.grid != boundary.grid:
        raise ValueError(f"kernel matrix grid {matrix.grid} differs from "
                         f"the boundary grid {boundary.grid}")
    rho0 = boundary.rho0.values
    rhoT = boundary.rhoT.values
    w = matrix.grid.weights

    v = rhoT.copy()
    u_prev: np.ndarray | None = None
    change = float("inf")
    residual = float("inf")
    for sweep in range(1, IPF_MAX_SWEEPS + 1):
        kv = matrix.apply_target(v)
        if np.min(kv) <= 0.0 or not np.all(np.isfinite(kv)):
            raise IncompatibilityError(
                "kernel maps the end factor to a non-positive intermediate "
                f"at sweep {sweep}, worst at "
                + _worst_node(matrix.grid, kv))
        u = rho0 / np.maximum(kv, FACTOR_CLIP)
        ktu = matrix.apply_source(u)
        if np.min(ktu) <= 0.0 or not np.all(np.isfinite(ktu)):
            raise IncompatibilityError(
                "kernel maps the start factor to a non-positive intermediate "
                f"at sweep {sweep}, worst at "
                + _worst_node(matrix.grid, ktu))
        v_new = rhoT / np.maximum(ktu, FACTOR_CLIP)

        change = float(w @ np.abs(v_new - v))
        if u_prev is not None:
            change += float(w @ np.abs(u - u_prev))
        residual = marginal_l1_residual(matrix, u, v_new, boundary)
        if callback is not None:
            callback(sweep, change, residual)
        v = v_new
        u_prev = u
        if change < tol:
            gauge = float(w @ u)
            return BridgeFactors(
                u0=ScalarField(matrix.grid, u / gauge, time_label=0.0),
                vT=ScalarField(matrix.grid, v * gauge,
                               time_label=boundary.horizon),
                gauge=gauge)
    raise ConvergenceError(
        f"IPF did not reach tol={tol} within {IPF_MAX_SWEEPS} sweeps "
        f"(last change {change:.3e}, marginal residual {residual:.3e})",
        last_change=change, last_residual=residual)


@dataclass(frozen=True)
class BridgeSolution:
    """Factor pair carried over a time lattice, with density and drifts.

    rho[k] = u[k] * v[k] row by row; the drifts b = 2*nu*grad(ln v) and
    b_star = -2*nu*grad(ln u) are Hopf-Cole velocities of the factors.
    """

    grid: Grid1D
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    b: np.ndarray
    b_star: np.ndarray
    nu: float
    masses: np.ndarray

    @classmethod
    def from_factor_stacks(cls, grid: Grid1D, times: np.ndarray, u: np.ndarray,
                           v: np.ndarray, nu: float) -> "BridgeSolution":
        times = np.asarray(times, dtype=float)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.min(u) < 0.0 or np.min(v) < 0.0:
            raise PositivityError("bridge factors must be nonnegative")
        rho = u * v
        masses = rho @ grid.weights
        drifts = np.abs(masses - 1.0)
        worst = int(np.argmax(drifts))
        if drifts[worst] > MASS_DRIFT_TOL:
            raise PropagationError(
                f"interpolating density mass drifts by {drifts[worst]:.3e} "
                f"(> {MASS_DRIFT_TOL}) at slice {worst} (t = {times[worst]:.6g})")
        h = grid.spacing
        return cls(grid=grid, times=times, u=u, v=v, rho=rho,
                   b=-hopf_cole_velocity(np.maximum(v, FACTOR_CLIP), h, nu),
                   b_star=hopf_cole_velocity(np.maximum(u, FACTOR_CLIP), h, nu),
                   nu=float(nu), masses=masses)

    def slice_index(self, t: float) -> int:
        return lattice_index(self.times, t, "is not on the solution lattice")

    @cached_property
    def rho_stack(self) -> FieldStack:
        return FieldStack(self.grid, self.times, self.rho)

    @cached_property
    def forward_drift_stack(self) -> FieldStack:
        return FieldStack(self.grid, self.times, self.b)

    @cached_property
    def backward_drift_stack(self) -> FieldStack:
        return FieldStack(self.grid, self.times, self.b_star)

    def density_mask(self) -> np.ndarray:
        """Boolean [n_times, n_points] mask where rho >= DENSITY_FLOOR."""
        return self.rho >= DENSITY_FLOOR


def propagate_factors(factors: BridgeFactors,
                      propagator: Propagator) -> BridgeSolution:
    """Carry the factor pair across the propagator's slice lattice.

    ``propagator`` is ``kernel.propagator(grid, times)`` on the factors'
    grid, its lattice running from 0 to the horizon: u(., t) integrates u0
    against the kernel from 0, v(., t) integrates vT toward the horizon.
    The drifts use the kernel's ``nu``; a mass drift of rho = u*v beyond
    MASS_DRIFT_TOL raises, naming the worst slice.
    """
    grid = factors.u0.grid
    horizon = factors.vT.time_label
    if propagator.grid != grid:
        raise ValueError("the propagator and the factors use different grids")
    times = propagator.times
    if abs(times[0]) > 1e-12 or abs(times[-1] - horizon) > 1e-12:
        raise ValueError(f"times must run from 0 to the horizon {horizon}")
    u, v = propagator.sweep(factors.u0.values, factors.vT.values)
    return BridgeSolution.from_factor_stacks(grid, times, u, v,
                                             propagator.kernel.nu)


def _interp_row(grid: Grid1D, row: np.ndarray, points) -> np.ndarray:
    return np.interp(np.asarray(points, dtype=float), grid.nodes, row)


def forward_transition(solution: BridgeSolution, kernel: Kernel, y, s: float,
                       x, t: float) -> np.ndarray:
    """Forward transition density k(y,s,x,t) * v(x,t) / v(y,s).

    s and t must lie on the solution lattice; y and x may be off-node
    (factors are interpolated linearly).  The denominator is clipped at
    the factor floor.
    """
    ks, kt = solution.slice_index(s), solution.slice_index(t)
    v_y = _interp_row(solution.grid, solution.v[ks], y)
    v_x = _interp_row(solution.grid, solution.v[kt], x)
    k_val = kernel.evaluate(y, s, x, t)
    return k_val * v_x / np.maximum(v_y, FACTOR_CLIP)


def backward_transition(solution: BridgeSolution, kernel: Kernel, y, s: float,
                        x, t: float) -> np.ndarray:
    """Backward transition density k(y,s,x,t) * u(y,s) / u(x,t).

    Integrates to one over y for each fixed (x, t) and satisfies the
    reversal identity rho(y,s) p(y,s,x,t) = p*(y,s,x,t) rho(x,t).
    """
    ks, kt = solution.slice_index(s), solution.slice_index(t)
    u_y = _interp_row(solution.grid, solution.u[ks], y)
    u_x = _interp_row(solution.grid, solution.u[kt], x)
    k_val = kernel.evaluate(y, s, x, t)
    return k_val * u_y / np.maximum(u_x, FACTOR_CLIP)


def gauge_align(candidate: np.ndarray, reference: np.ndarray,
                weights: np.ndarray) -> float:
    """Least-squares scalar lam minimizing ||lam*candidate - reference||_w."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = float(weights @ (candidate * candidate))
    if denom <= 0.0:
        raise ValueError("cannot align a zero candidate")
    return float(weights @ (candidate * reference)) / denom
