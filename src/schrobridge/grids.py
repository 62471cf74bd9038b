"""Uniform space/time lattices and quadrature/stencil primitives.

Everything downstream (kernels, bridge factors, residual engines) runs on
the uniform grids defined here.  Quadrature is composite trapezoid;
spatial derivatives are second-order central differences with one-sided
second-order closures at the edges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NormalizationError, NumericDomainError

DEFAULT_X_MIN = -10.0
DEFAULT_X_MAX = 10.0
DEFAULT_N_POINTS = 513
LATTICE_TOL = 1e-9
# densities below this are masked out of residual and drift comparisons
DENSITY_FLOOR = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid; node i sits exactly at x_min + i*spacing."""

    x_min: float = DEFAULT_X_MIN
    x_max: float = DEFAULT_X_MAX
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise NumericDomainError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(self.x_min + self.spacing * np.arange(self.n_points))

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights (h at interior nodes, h/2 at edges)."""
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _readonly(w)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued samples on a Grid1D at a single time label.

    Values are copied and frozen at construction; non-finite entries are
    rejected so downstream quadrature never sees NaN/inf.
    """

    grid: Grid1D
    values: np.ndarray
    time_label: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"field has {vals.shape} values for a {self.grid.n_points}-node grid")
        if not np.all(np.isfinite(vals)):
            raise NumericDomainError("field values must be finite")
        object.__setattr__(self, "values", _readonly(vals))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return dataclasses.replace(self, values=values)


def sample_field(grid: Grid1D, fn: Callable[[np.ndarray, float], np.ndarray],
                 t: float = 0.0) -> ScalarField:
    """Evaluate fn(x, t) on the grid nodes and wrap as a ScalarField."""
    return ScalarField(grid, np.asarray(fn(grid.nodes, t), dtype=float), time_label=t)


def integrate(f: ScalarField) -> float:
    """Trapezoid integral of f over its grid."""
    return float(f.grid.weights @ f.values)


def gradient_values(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central-difference d/dx along the last axis, one-sided at the edges.

    Interior: (f[i+1] - f[i-1]) / 2h.  Edges use the second-order
    three-point one-sided formulas, so polynomials up to degree 2 are
    differentiated exactly everywhere.
    """
    v = np.asarray(values, dtype=float)
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * spacing)
    g[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * spacing)
    g[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * spacing)
    return g


def laplacian_values(values: np.ndarray, spacing: float) -> np.ndarray:
    """Three-point d2/dx2 along the last axis; edge rows copy their neighbor."""
    v = np.asarray(values, dtype=float)
    lap = np.empty_like(v)
    lap[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / spacing**2
    lap[..., 0] = lap[..., 1]
    lap[..., -1] = lap[..., -2]
    return lap


def time_derivative(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order d/dt along the first axis, one-sided at the end slices."""
    return np.gradient(values, times, axis=0, edge_order=2)


def interior_max(residual: np.ndarray, rho: np.ndarray | None = None,
                 floor: float = DENSITY_FLOOR) -> float:
    """Max |residual| off the lattice border (first and last slices, edge
    nodes), counting only points where ``rho`` >= ``floor`` when given."""
    window = np.abs(residual[1:-1, 1:-1])
    if rho is not None:
        window = np.where(rho[1:-1, 1:-1] >= floor, window, 0.0)
    return float(np.max(window))


def normalize(f: ScalarField) -> ScalarField:
    """Scale f to unit trapezoid mass; reject non-positive or non-finite mass."""
    mass = integrate(f)
    if not np.isfinite(mass) or mass <= 0.0:
        raise NormalizationError(f"cannot normalize field with mass {mass}")
    return f.with_values(f.values / mass)


@dataclass(frozen=True)
class FieldStack:
    """Samples of a space-time field on a Grid1D x time-lattice product.

    values[k, i] is the field at (times[k], nodes[i]).  This is the common
    currency between the bridge solution, the residual engines and the SDE
    integrator.
    """

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty 1-D array")
        if np.any(np.diff(times) <= 0.0):
            raise NumericDomainError("times must be strictly increasing")
        if vals.shape != (times.size, self.grid.n_points):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"({times.size}, {self.grid.n_points})")
        if not np.all(np.isfinite(vals)):
            raise NumericDomainError("stack values must be finite")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(vals))

    @classmethod
    def sample(cls, grid: Grid1D, times: np.ndarray,
               fn: Callable[[np.ndarray, float], np.ndarray]) -> "FieldStack":
        times = np.asarray(times, dtype=float)
        vals = np.empty((times.size, grid.n_points))
        for k, t in enumerate(times):
            vals[k] = fn(grid.nodes, float(t))
        return cls(grid, times, vals)

    def slice_index(self, t: float) -> int:
        return lattice_index(self.times, t, "is not on the stack lattice")

    def slice(self, t: float) -> ScalarField:
        k = self.slice_index(t)
        return ScalarField(self.grid, self.values[k], time_label=float(self.times[k]))

    @cached_property
    def _slopes(self) -> np.ndarray:
        """Per-slice cell slopes (v[i+1] - v[i]) / (x[i+1] - x[i]); the last
        column, which starts no cell, is 0."""
        slopes = np.zeros_like(self.values)
        slopes[:, :-1] = np.diff(self.values, axis=1) / np.diff(self.grid.nodes)
        return slopes

    def at(self, positions: np.ndarray, t: float) -> np.ndarray:
        """Bilinear interpolation in (t, x); clamped outside the lattice.

        The bracketing slices' values and cell slopes are blended in time
        once, on the nodes; each position then takes its cell, found
        arithmetically on the uniform grid, and one multiply-add.  The
        result is within a few ulps of ``np.interp`` on each slice blended
        in time, and NaN positions return NaN.
        """
        times = self.times
        if t <= times[0]:
            lo, hi, w = 0, 0, 0.0
        elif t >= times[-1]:
            lo, hi, w = times.size - 1, times.size - 1, 0.0
        else:
            hi = int(np.searchsorted(times, t))
            lo = hi - 1
            w = (t - times[lo]) / (times[hi] - times[lo])
        vb, sb = self.values[lo], self._slopes[lo]
        if hi != lo:
            vb = (1.0 - w) * vb + w * self.values[hi]
            sb = (1.0 - w) * sb + w * self._slopes[hi]
        x = np.asarray(positions, dtype=float)
        nodes, h = self.grid.nodes, self.grid.spacing
        xc = np.clip(x.reshape(-1), nodes[0], nodes[-1])
        # from the middle of cell 0 the floor is the cell or the one below
        # (rounding moves nodes by far less than h / 2); one step up fixes it.
        # fmax sends NaN to cell 0; the last node keeps its own zero slope.
        # In place, so each call makes few temporaries.
        q = xc - (nodes[0] + 0.5 * h)
        q /= h
        np.fmax(q, 0.0, out=q)
        cell = np.fmin(q, nodes.size - 2, out=q).astype(np.intp)
        cell += nodes[1:][cell] <= xc
        np.subtract(xc, nodes[cell], out=q)
        q *= sb[cell]
        q += vb[cell]
        return q.reshape(x.shape)


def lattice_index(times: np.ndarray, t: float, missing: str) -> int:
    """Index of the entry of ``times`` nearest t; raises
    ValueError("time {t} {missing}") when it is more than LATTICE_TOL away."""
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > LATTICE_TOL:
        raise ValueError(f"time {t} {missing}")
    return k
