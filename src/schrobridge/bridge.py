"""Boundary-data factorization: IPF solve, factor propagation, transitions.

The boundary problem asks for positive factors (u0, vT) such that the
product measure u0(y) k(y, 0, x, T) vT(x) has the prescribed densities
as its two marginals.  ``solve_boundary_system`` finds the factor pair
by iterative proportional fitting on the kernel's ``Propagator``, which
alone holds the time lattice; ``propagate_factors`` carries the pair
across it, giving interpolating densities and the two drifts; the
transition constructors tilt the reference kernel by the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, IncompatibilityError, NormalizationError,
                     PositivityError, PropagationError)
from .burgers import hopf_cole_velocity
from .grids import FieldStack, Grid1D, ScalarField, integrate
from .kernels import ENTRY_FLOOR, Kernel, Propagator

MASS_TOL = 1e-8
MASS_DRIFT_TOL = 1e-4
IPF_TOL = 1e-12
IPF_MAX_SWEEPS = 500


def _node(grid: Grid1D, values: np.ndarray, i: int) -> str:
    return f"node {i} (x = {grid.nodes[i]:.6g}, value {values[i]:.3e})"


def _worst_node(grid: Grid1D, values: np.ndarray) -> str:
    """The first non-finite node of ``values``, else its smallest one."""
    bad = ~np.isfinite(values)
    return _node(grid, values,
                 int(np.argmax(bad)) if bad.any() else int(np.argmin(values)))


def _positive(grid: Grid1D, image: np.ndarray, factor: str, sweep: int):
    """``image``, the kernel applied to the ``factor`` factor, if positive."""
    if np.min(image) <= 0.0 or not np.all(np.isfinite(image)):
        raise IncompatibilityError(
            f"kernel maps the {factor} factor to a non-positive intermediate "
            f"at sweep {sweep}, worst at " + _worst_node(grid, image))
    return image


@dataclass(frozen=True)
class BoundaryData:
    """Prescribed densities, on one grid, at a lattice's first and last time."""

    rho0: ScalarField
    rhoT: ScalarField

    def __post_init__(self):
        if self.rho0.grid != self.rhoT.grid:
            raise ValueError("boundary densities must share a grid")
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
    """Positive factor pair, u0 and vT at a lattice's first and last time."""

    u0: ScalarField
    vT: ScalarField


def marginal_l1_residual(u: np.ndarray, kv: np.ndarray, v: np.ndarray,
                         ktu: np.ndarray, boundary: BoundaryData) -> float:
    """L1 defect of both marginals of (u, v) given kv = K v, ktu = K^T u."""
    w = boundary.grid.weights
    left = u * kv - boundary.rho0.values
    right = v * ktu - boundary.rhoT.values
    return float(w @ np.abs(left) + w @ np.abs(right))


def solve_boundary_system(propagator: Propagator, boundary: BoundaryData,
                          tol: float = IPF_TOL,
                          callback: Callable[[int, float, float], None] | None = None,
                          ) -> BridgeFactors:
    """Iterative proportional fitting for the boundary factor pair.

    Builds K(t_0, t_N) = ``propagator.matrix()``, freed when IPF returns,
    and alternates u = rho0 / K v and v = rhoT / K^T u (weighted kernel
    applications) until the sweep-to-sweep L1 change of the pair drops
    below ``tol``, within IPF_MAX_SWEEPS sweeps.  The pair, at t_0 and t_N,
    is gauge-fixed so u0 has unit integral.  Each sweep applies the kernel
    twice (K^T u, then K v, which the residual and the next sweep share).

    ``callback(iteration, l1_change, marginal_residual)``, when given, is
    invoked once per sweep; the residual sequence is non-increasing.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"IPF tol must be positive and finite, got {tol}")
    grid, times = propagator.grid, propagator.times
    if grid != boundary.grid:
        raise ValueError(f"propagator grid {grid} differs from "
                         f"the boundary grid {boundary.grid}")
    matrix = propagator.matrix()
    rho0 = boundary.rho0.values
    rhoT = boundary.rhoT.values
    w = grid.weights

    v = rhoT.copy()
    kv = matrix.apply_target(v)
    u_prev: np.ndarray | None = None
    change = float("inf")
    residual = float("inf")
    for sweep in range(1, IPF_MAX_SWEEPS + 1):
        u = rho0 / np.maximum(_positive(grid, kv, "end", sweep), ENTRY_FLOOR)
        ktu = _positive(grid, matrix.apply_source(u), "start", sweep)
        v_new = rhoT / np.maximum(ktu, ENTRY_FLOOR)

        change = float(w @ np.abs(v_new - v))
        if u_prev is not None:
            change += float(w @ np.abs(u - u_prev))
        kv = matrix.apply_target(v_new)
        residual = marginal_l1_residual(u, kv, v_new, ktu, boundary)
        if callback is not None:
            callback(sweep, change, residual)
        v = v_new
        u_prev = u
        if change < tol:
            gauge = float(w @ u)
            return BridgeFactors(
                u0=ScalarField(grid, u / gauge, time_label=float(times[0])),
                vT=ScalarField(grid, v * gauge, time_label=float(times[-1])))
    raise ConvergenceError(
        f"IPF did not reach tol={tol} within {IPF_MAX_SWEEPS} sweeps "
        f"(last change {change:.3e}, marginal residual {residual:.3e})",
        last_change=change, last_residual=residual)


@dataclass(frozen=True)
class BridgeSolution:
    """Factor pair carried over a time lattice by ``kernel``, with drifts.

    Each field is a FieldStack on one grid and slice lattice: rho = u * v
    slice by slice; the drifts b = 2*nu*grad(ln v) and
    b_star = -2*nu*grad(ln u) are Hopf-Cole velocities of the factors.
    """

    u: FieldStack
    v: FieldStack
    rho: FieldStack
    b: FieldStack
    b_star: FieldStack
    kernel: Kernel
    masses: np.ndarray

    @classmethod
    def from_factor_stacks(cls, propagator: Propagator, u: np.ndarray,
                           v: np.ndarray) -> "BridgeSolution":
        """The solution of factor stacks on the propagator's lattice."""
        grid, times = propagator.grid, propagator.times
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.min(u) < 0.0 or np.min(v) < 0.0:
            raise PositivityError("bridge factors must be nonnegative")
        rho = FieldStack(grid, times, u * v)
        masses = rho.values @ grid.weights
        drifts = np.abs(masses - 1.0)
        worst = int(np.argmax(drifts))
        if drifts[worst] > MASS_DRIFT_TOL:
            raise PropagationError(
                f"interpolating density mass drifts by {drifts[worst]:.3e} "
                f"(> {MASS_DRIFT_TOL}) at slice {worst} (t = {times[worst]:.6g})")
        h, nu = grid.spacing, propagator.kernel.nu
        # the drifts' temporaries are freed before the factors are copied
        return cls(
            b=FieldStack(grid, times, -hopf_cole_velocity(
                np.maximum(v, ENTRY_FLOOR), h, nu)),
            b_star=FieldStack(grid, times, hopf_cole_velocity(
                np.maximum(u, ENTRY_FLOOR), h, nu)),
            u=FieldStack(grid, times, u), v=FieldStack(grid, times, v), rho=rho,
            kernel=propagator.kernel, masses=masses)


def propagate_factors(factors: BridgeFactors,
                      propagator: Propagator) -> BridgeSolution:
    """Carry the factor pair across the propagator's slice lattice.

    ``propagator`` is ``kernel.propagator(grid, times)`` on the factors'
    grid, its lattice running from 0 to the horizon: u(., t) integrates u0
    against the kernel from 0, v(., t) integrates vT toward the horizon.
    The drifts use the kernel's ``nu``; a mass drift of rho = u*v beyond
    MASS_DRIFT_TOL raises, naming the worst slice.
    """
    horizon = factors.vT.time_label
    if propagator.grid != factors.u0.grid:
        raise ValueError("the propagator and the factors use different grids")
    times = propagator.times
    if abs(times[0]) > 1e-12 or abs(times[-1] - horizon) > 1e-12:
        raise ValueError(f"times must run from 0 to the horizon {horizon}")
    return BridgeSolution.from_factor_stacks(
        propagator, *propagator.sweep(factors.u0.values, factors.vT.values))


def _tilted(solution: BridgeSolution, y, s: float, x, t: float,
            forward: bool) -> np.ndarray:
    """k(y,s,x,t) of the solution's kernel times the factor at the later
    point over the factor at the earlier one, v(x,t)/v(y,s) (``forward``),
    or u(y,s)/u(x,t); the denominator is clipped at ENTRY_FLOOR."""
    factor = solution.v if forward else solution.u
    nodes = factor.grid.nodes
    at_y = np.interp(np.asarray(y, dtype=float), nodes, factor.slice(s).values)
    at_x = np.interp(np.asarray(x, dtype=float), nodes, factor.slice(t).values)
    num, den = (at_x, at_y) if forward else (at_y, at_x)
    return (solution.kernel.evaluate(y, s, x, t) * num
            / np.maximum(den, ENTRY_FLOOR))


def forward_transition(solution: BridgeSolution, y, s: float, x,
                       t: float) -> np.ndarray:
    """Forward transition density k(y,s,x,t) * v(x,t) / v(y,s).

    s and t must lie on the solution lattice; y and x may be off-node
    (factors are interpolated linearly).
    """
    return _tilted(solution, y, s, x, t, forward=True)


def backward_transition(solution: BridgeSolution, y, s: float, x,
                        t: float) -> np.ndarray:
    """Backward transition density k(y,s,x,t) * u(y,s) / u(x,t).

    Integrates to one over y for each fixed (x, t) and satisfies the
    reversal identity rho(y,s) p(y,s,x,t) = p*(y,s,x,t) rho(x,t).
    """
    return _tilted(solution, y, s, x, t, forward=False)


def gauge_align(candidate: np.ndarray, reference: np.ndarray,
                weights: np.ndarray) -> float:
    """Least-squares scalar lam minimizing ||lam*candidate - reference||_w."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = float(weights @ (candidate * candidate))
    if denom <= 0.0:
        raise ValueError("cannot align a zero candidate")
    return float(weights @ (candidate * reference)) / denom
