"""Transition kernels: closed-form families and a numeric Feynman-Kac solver.

A kernel is any object with ``evaluate(y, s, x, t)`` giving the transition
density from (y, s) to (x, t) for 0 <= s < t.  The closed-form families
implement the worked free-packet example and its two deliberately
imperfect companions; ``solve_feynman_kac`` builds grid kernels for an
arbitrary potential as fundamental solutions of the adjoint parabolic
pair du/dt = nu*lap(u) - c*u, dv/dt = -nu*lap(v) + c*v.

Bridge factors travel through a ``Propagator``, built once per grid and
slice lattice from ``Kernel.propagator``: it holds the boundary matrix
K(0, T) and sweeps a factor pair to every slice at once.

Tilted kernels are evaluated as a single exp of summed log-factors so no
0 * inf intermediates can appear in far tails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import (ExtrapolationWarning, NumericDomainError, PositivityError,
                     TimeOrderingError)
from .grids import FieldStack, Grid1D, gradient_values, laplacian_values
from .packet import PACKET

ENTRY_FLOOR = 1e-300
NEGATIVITY_TOL = -1e-12
DEFAULT_DTS = (1e-2, 5e-3, 2.5e-3)
# the potential term of the default substep count may reach this multiple
# of the diffusion term; stronger potentials need an explicit n_substeps
POTENTIAL_SUBSTEP_CAP = 4


@dataclass(frozen=True)
class Potential:
    """Multiplicative potential c(x, t) paired with a diffusivity nu."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    nu: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")

    def __call__(self, x, t):
        return np.asarray(self.fn(np.asarray(x, dtype=float), float(t)), dtype=float)

    @classmethod
    def zero(cls, nu: float = 1.0) -> "Potential":
        return cls(fn=lambda x, t: np.zeros_like(x), nu=nu, label="zero")

    @classmethod
    def constant(cls, value: float, nu: float = 1.0) -> "Potential":
        return cls(fn=lambda x, t: np.full_like(x, value), nu=nu,
                   label=f"constant({value})")

    @classmethod
    def packet(cls) -> "Potential":
        return cls(fn=PACKET.potential, nu=1.0, label="packet")


def _check_order(s: float, t: float) -> tuple[float, float]:
    s, t = float(s), float(t)
    if not np.isfinite(s) or not np.isfinite(t):
        raise TimeOrderingError("kernel times must be finite")
    if s < 0.0 or t <= s:
        raise TimeOrderingError(f"need 0 <= s < t, got s={s}, t={t}")
    return s, t


class Kernel:
    """Base transition-density interface."""

    tag = ""

    def evaluate(self, y, s: float, x, t: float) -> np.ndarray:
        raise NotImplementedError

    def propagator(self, grid: Grid1D, times) -> "Propagator":
        """Factor propagation over the slice lattice ``times`` on ``grid``."""
        return Propagator(self, grid, times)


class HeatKernel(Kernel):
    """Constant-diffusivity heat kernel with zero drift."""

    tag = "heat"

    def __init__(self, nu: float = 1.0):
        if not nu > 0.0:
            raise ValueError("nu must be positive")
        self.nu = nu

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        var = 2.0 * self.nu * (t - s)
        return np.exp(-((x - y) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


class TimeSquaredHeatKernel(Kernel):
    """Zero-drift Gaussian kernel whose variance clock runs as t^2.

    Propagates the free-packet density exactly; the instantaneous
    diffusion coefficient is t, so the short-time second-moment rate at
    time t is 2t (plus the step size).
    """

    tag = "example1"

    nu = 1.0

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        var = t * t - s * s
        return np.exp(-((x - y) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _log_time_squared(y, s, x, t):
    var = t * t - s * s
    return -0.5 * np.log(2.0 * np.pi * var) - (x - y) ** 2 / (2.0 * var)


class TiltedTimeSquaredKernel(Kernel):
    """Time-squared kernel tilted by the packet's forward factor.

    k(y, s, x, t) = p(y, s, x, t) * v(y, s) / v(x, t) with v the packet
    factor; this is the kernel whose bridge factors reproduce the packet
    pair exactly.
    """

    tag = "quantum-k1"

    nu = 1.0

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        log_k = (_log_time_squared(y, s, x, t)
                 + PACKET.log_factor_v(y, s) - PACKET.log_factor_v(x, t))
        return np.exp(log_k)


class PinnedGaussianKernel(Kernel):
    """Unit-variance-rate Gaussian kernel pinned to the packet marginals.

    The mean contraction coefficient is chosen so that the packet density
    at time s is carried onto the packet density at time t; the family is
    *not* a consistent two-time transition law (its Chapman-Kolmogorov
    residual is order 1e-2).
    """

    tag = "pinned-example2"

    nu = 1.0

    @staticmethod
    def coefficient(t: float, s: float) -> float:
        return float(np.sqrt(((1.0 - t) ** 2 + 2.0 * s) / (1.0 + s * s)))

    @staticmethod
    def coefficient_dt(t: float, s: float) -> float:
        """d/dt of the contraction coefficient (smooth for s > 0)."""
        return float(-(1.0 - t)
                     / np.sqrt((((1.0 - t) ** 2 + 2.0 * s)) * (1.0 + s * s)))

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        return np.exp(_log_pinned(y, s, x, t))


def _log_pinned(y, s, x, t):
    c = PinnedGaussianKernel.coefficient(t, s)
    var = 4.0 * (t - s)
    return -0.5 * np.log(np.pi * var) - (x - c * y) ** 2 / var


class TiltedPinnedKernel(Kernel):
    """Pinned kernel tilted by the packet's forward factor."""

    tag = "quantum-k2"

    nu = 1.0

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        log_k = (_log_pinned(y, s, x, t)
                 + PACKET.log_factor_v(y, s) - PACKET.log_factor_v(x, t))
        return np.exp(log_k)


class MarkovFamilyKernel(Kernel):
    """Consistent Markov transition family anchored at one pinning point.

    For a fixed anchor (y, s) the two-time law
    k(x1, t1, x2, t2) = N(x2; x1 + (c(t2) - c(t1)) * y, 2 * (t2 - t1))
    has the pinned one-time marginals, collapses to a delta as t2 -> t1,
    and satisfies Chapman-Kolmogorov exactly.
    """

    tag = "markov-family"

    nu = 1.0

    def __init__(self, anchor_y: float, anchor_s: float):
        if anchor_s < 0.0:
            raise TimeOrderingError("anchor time must be nonnegative")
        self.anchor_y = float(anchor_y)
        self.anchor_s = float(anchor_s)

    def _coef(self, t: float) -> float:
        return PinnedGaussianKernel.coefficient(t, self.anchor_s)

    def evaluate(self, x1, t1, x2, t2):
        t1, t2 = float(t1), float(t2)
        if t1 < self.anchor_s:
            raise TimeOrderingError(
                f"family times must not precede the anchor time {self.anchor_s}")
        if t2 <= t1:
            raise TimeOrderingError(f"need t1 < t2, got t1={t1}, t2={t2}")
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        shift = (self._coef(t2) - self._coef(t1)) * self.anchor_y
        var = 4.0 * (t2 - t1)
        return np.exp(-((x2 - x1 - shift) ** 2) / var) / np.sqrt(np.pi * var)

    def density(self, x, t):
        """One-time marginal of the family: the pinned kernel from the anchor."""
        x = np.asarray(x, dtype=float)
        return np.exp(_log_pinned(self.anchor_y, self.anchor_s, x, float(t)))


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel sampled on a source x target node lattice at fixed (s, t).

    entries[i, j] = k(source_node_i, s, target_node_j, t), so a row is
    the propagated delta from one source node and integrates against the
    target quadrature weights.
    """

    source: Grid1D
    target: Grid1D
    s: float
    t: float
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.source.n_points, self.target.n_points):
            raise ValueError("entries shape does not match the grids")
        if not np.all(np.isfinite(e)):
            raise PositivityError("kernel matrix entries must be finite")

    @classmethod
    def from_kernel(cls, kernel: Kernel, grid: Grid1D, s: float, t: float,
                    target: Grid1D | None = None) -> "KernelMatrix":
        target = target or grid
        e = kernel.evaluate(grid.nodes[:, None], s, target.nodes[None, :], t)
        if np.min(e) < NEGATIVITY_TOL:
            raise PositivityError("kernel evaluation produced negative values")
        # exp underflow in remote corners floors at a tiny positive value
        e = np.maximum(e, ENTRY_FLOOR)
        return cls(source=grid, target=target, s=float(s), t=float(t), entries=e)

    def apply_target(self, g: np.ndarray) -> np.ndarray:
        """Integrate k(y_i, s, x, t) g(x) dx over the target grid."""
        return self.entries @ (self.target.weights * np.asarray(g, dtype=float))

    def apply_source(self, f: np.ndarray) -> np.ndarray:
        """Integrate f(y) k(y, s, x_j, t) dy over the source grid."""
        return (self.source.weights * np.asarray(f, dtype=float)) @ self.entries

    def row_mass(self) -> np.ndarray:
        return self.apply_target(np.ones(self.target.n_points))


class Propagator:
    """Factor propagation of one kernel over one slice lattice.

    Built once per (grid, slice lattice).  ``matrix`` is the boundary
    matrix K(times[0], times[-1]) that IPF iterates on, built on first
    use; ``sweep(u0, vT)`` carries a factor pair to every slice at once.
    This base serves the closed-form kernels: it samples one KernelMatrix
    per (times[0], t_k) and (t_k, times[-1]) pair.
    """

    def __init__(self, kernel: Kernel, grid: Grid1D, times):
        self.kernel = kernel
        self.grid = grid
        self.times = _slice_times(times)

    @cached_property
    def matrix(self) -> KernelMatrix:
        return KernelMatrix.from_kernel(self.kernel, self.grid,
                                        float(self.times[0]),
                                        float(self.times[-1]))

    def sweep(self, u0: np.ndarray, vT: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Factor stacks u[k] = K(t_0, t_k)^T u0 and v[k] = K(t_k, t_N) vT.

        Row 0 of u is u0 and the last row of v is vT; integrals use the
        grid's quadrature weights as in ``KernelMatrix``.
        """
        kernel, grid, times = self.kernel, self.grid, self.times
        n_t = times.size
        u = np.empty((n_t, grid.n_points))
        v = np.empty((n_t, grid.n_points))
        u[0] = u0
        v[-1] = vT
        for k in range(1, n_t):
            mat = KernelMatrix.from_kernel(kernel, grid, float(times[0]),
                                           float(times[k]))
            u[k] = mat.apply_source(u0)
        for k in range(n_t - 1):
            mat = KernelMatrix.from_kernel(kernel, grid, float(times[k]),
                                           float(times[-1]))
            v[k] = mat.apply_target(vT)
        return u, v


def _slice_times(times) -> np.ndarray:
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    return times


def _tridiag_apply(diag: np.ndarray, off: float, w: np.ndarray) -> np.ndarray:
    out = (diag if w.ndim == 1 else diag[:, None]) * w
    out[:-1] += off * w[1:]
    out[1:] += off * w[:-1]
    return out


def _banded(diag: np.ndarray, off: float) -> np.ndarray:
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return ab


@dataclass(frozen=True)
class _Step:
    """One factor A^-1 B of the evolution on the interior nodes.

    A (banded form ``a``) and B are symmetric tridiagonal; B has diagonal
    ``b_diag`` and off-diagonal ``b_off``, or is the identity for an
    implicit-Euler step (``b_diag`` None).
    """

    a: np.ndarray
    b_diag: np.ndarray | None = None
    b_off: float = 0.0

    def apply(self, w: np.ndarray, transpose: bool = False) -> np.ndarray:
        """A^-1 B w, or (A^-1 B)^T w = B A^-1 w; w is a vector or columns."""
        if transpose:
            return self._apply_b(solve_banded((1, 1), self.a, w))
        return solve_banded((1, 1), self.a, self._apply_b(w))

    def _apply_b(self, w: np.ndarray) -> np.ndarray:
        if self.b_diag is None:
            return w
        return _tridiag_apply(self.b_diag, self.b_off, w)


def _default_substeps(potential: Potential, grid: Grid1D,
                      times: np.ndarray) -> int:
    """max(16, ceil(nu*span/(2h^2)), ceil(span*max|c|)) substeps over times.

    The second term keeps the diffusion number nu*dt/h^2 near 2; the third
    keeps dt*|c| <= 1, with max|c| taken over the interior nodes at every
    slice time, which a strong potential on a coarse grid needs for
    nonnegative kernel entries.  A non-finite max|c| is a domain error; a
    potential term above POTENTIAL_SUBSTEP_CAP times the larger of the
    first two is refused, so a huge potential asks for an explicit count
    instead of running for as long as it takes.
    """
    span = float(times[-1] - times[0])
    xs = grid.nodes[1:-1]
    c_max = max(float(np.max(np.abs(potential(xs, t)))) for t in times)
    if not np.isfinite(c_max):
        raise NumericDomainError(
            f"potential {potential.label!r}: max|c| over the lattice is {c_max}")
    base = max(16, int(np.ceil(potential.nu * span / (2.0 * grid.spacing ** 2))))
    wanted = span * c_max
    if wanted > POTENTIAL_SUBSTEP_CAP * base:
        raise ValueError(
            f"potential {potential.label!r} needs span*max|c| = {wanted:.3g} "
            f"substeps, over {POTENTIAL_SUBSTEP_CAP} times the {base} of the "
            "diffusion rule; pass n_substeps explicitly")
    return max(base, int(np.ceil(wanted)))


def _crank_nicolson_steps(potential: Potential, grid: Grid1D,
                          times: np.ndarray,
                          n_substeps: int | None = None) -> list[list[_Step]]:
    """The steps of every slice interval on the slice-aligned lattice.

    ``n_substeps`` over times[0]..times[-1] are rounded up to a whole
    number in every slice interval.  The first two substeps of the lattice
    are taken as four implicit-Euler half steps (Rannacher start), which
    damps the checkerboard mode that delta data would otherwise excite.
    """
    nu, h2 = potential.nu, grid.spacing ** 2
    widths = np.diff(times)
    span = float(times[-1] - times[0])
    if n_substeps is None:
        n_substeps = _default_substeps(potential, grid, times)
    if n_substeps < 4:
        raise ValueError("need at least 4 substeps for the damped start")
    # slice widths carry rounding noise: a count of 5.000000000001 is 5
    counts = np.maximum(1, np.ceil(n_substeps * widths / span - 1e-9)).astype(int)
    diffusion = nu * float(np.max(widths / counts)) / h2
    if diffusion > 10.0:
        raise ValueError(
            f"diffusion number nu*dt/h^2 = {diffusion:.3g} exceeds 10; "
            "increase n_substeps")

    xs = grid.nodes[1:-1]
    rate = nu / h2

    def implicit_euler(tau_next, dt):
        c_next = potential(xs, tau_next)
        return _Step(_banded(1.0 + dt * (2.0 * rate + c_next), -dt * rate))

    def crank_nicolson(tau, tau_next):
        dt = tau_next - tau
        r = dt * rate
        return _Step(_banded(1.0 + r + 0.5 * dt * potential(xs, tau_next),
                             -0.5 * r),
                     b_diag=1.0 - r - 0.5 * dt * potential(xs, tau),
                     b_off=0.5 * r)

    steps = []
    damped = 0
    for k, count in enumerate(counts):
        taus = np.linspace(times[k], times[k + 1], count + 1)
        interval = []
        for tau, tau_next in zip(taus[:-1], taus[1:]):
            if damped < 2:
                half = 0.5 * (tau_next - tau)
                interval += [implicit_euler(tau + half, half),
                             implicit_euler(tau_next, half)]
                damped += 1
            else:
                interval.append(crank_nicolson(tau, tau_next))
        steps.append(interval)
    return steps


def solve_feynman_kac(potential: Potential, grid: Grid1D, s: float, t: float,
                      n_substeps: int | None = None,
                      slices=None) -> KernelMatrix:
    """Numeric fundamental solution of the forward generalized heat equation.

    Evolves the interior grid deltas (scaled 1/h) from s to t under
    du/dt = nu*lap(u) - c*u with homogeneous values at the grid edges,
    as one dense block, using Crank-Nicolson with a Rannacher start (the
    first two substeps are taken as four implicit-Euler half steps, which
    damps the checkerboard mode the delta data would otherwise excite) and
    a tridiagonal solve per step.

    The substep lattice is aligned to ``slices``: every slice interval
    holds a whole number of substeps, and the Rannacher start happens only
    at s.  ``FeynmanKacPropagator`` sweeps single vectors through the same
    steps.

    Parameters
    ----------
    potential : Potential
        Potential c(x, t) and diffusivity nu.
    grid : Grid1D
        Spatial lattice; sources and targets coincide.
    s, t : float
        Initial and final times, 0 <= s < t.
    n_substeps : int, optional
        Number of time substeps over [s, t] (>= 4), rounded up to a whole
        number in every slice interval.  Default targets a diffusion
        number nu*dt/h^2 of about 2 and dt*max|c| <= 1 (max over the
        interior nodes at the slice times) with at least 16 substeps; a
        default whose potential term exceeds POTENTIAL_SUBSTEP_CAP times
        the rest raises ValueError, and lattices whose largest diffusion
        number exceeds 10 are rejected.
    slices : array_like, optional
        Increasing slice times from s to t that the lattice lands on;
        default (s, t), a single interval.

    Returns
    -------
    KernelMatrix
        entries[i, j] approximates k(y_i, s, x_j, t).
    """
    s, t = _check_order(s, t)
    times = _slice_times((s, t) if slices is None else slices)
    if times[0] != s or times[-1] != t:
        raise ValueError(f"slices must run from s={s} to t={t}")
    n, h = grid.n_points, grid.spacing
    w = np.eye(n - 2) / h
    for interval in _crank_nicolson_steps(potential, grid, times, n_substeps):
        for step in interval:
            w = step.apply(w)

    full = np.zeros((n, n))
    full[1:-1, 1:-1] = w
    entries = full.T
    worst = float(np.min(entries))
    if worst < NEGATIVITY_TOL:
        raise PositivityError(
            f"Feynman-Kac solution went negative ({worst:.3e}); "
            "refine the substeps")
    entries = np.maximum(entries, ENTRY_FLOOR)
    return KernelMatrix(source=grid, target=grid, s=s, t=t, entries=entries)


class NumericFeynmanKacKernel(Kernel):
    """Kernel interface over Feynman-Kac grid solutions.

    ``propagator(grid, times)`` is the bridge path: one dense solve of
    K(times[0], times[-1]) for IPF and two Crank-Nicolson sweeps over the
    same slice-aligned lattice (``FeynmanKacPropagator``); there
    ``n_substeps`` counts substeps over the whole lattice, rounded up to
    whole substeps per slice.  ``evaluate`` and ``matrix(s, t)`` remain
    the path for probes (Chapman-Kolmogorov check, transitions, moments):
    they solve once per requested time pair (``n_substeps`` over that
    pair), cache the matrix, and interpolate bilinearly between nodes.
    """

    tag = "numeric-fk"

    def __init__(self, potential: Potential, grid: Grid1D | None = None,
                 n_substeps: int | None = None):
        self.potential = potential
        self.grid = grid or Grid1D()
        self.n_substeps = n_substeps
        self.nu = potential.nu
        self._cache: dict[tuple[float, float], KernelMatrix] = {}

    def propagator(self, grid: Grid1D, times) -> "FeynmanKacPropagator":
        return FeynmanKacPropagator(self, grid, times)

    def matrix(self, s: float, t: float) -> KernelMatrix:
        key = (float(s), float(t))
        if key not in self._cache:
            self._cache[key] = solve_feynman_kac(
                self.potential, self.grid, s, t, n_substeps=self.n_substeps)
        return self._cache[key]

    def evaluate(self, y, s, x, t):
        s, t = _check_order(s, t)
        mat = self.matrix(s, t)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        yb, xb = np.broadcast_arrays(y, x)
        nodes = self.grid.nodes
        iy = np.clip(np.searchsorted(nodes, yb) - 1, 0, nodes.size - 2)
        ix = np.clip(np.searchsorted(nodes, xb) - 1, 0, nodes.size - 2)
        fy = np.clip((yb - nodes[iy]) / self.grid.spacing, 0.0, 1.0)
        fx = np.clip((xb - nodes[ix]) / self.grid.spacing, 0.0, 1.0)
        e = mat.entries
        val = ((1 - fy) * (1 - fx) * e[iy, ix] + fy * (1 - fx) * e[iy + 1, ix]
               + (1 - fy) * fx * e[iy, ix + 1] + fy * fx * e[iy + 1, ix + 1])
        return val


class FeynmanKacPropagator(Propagator):
    """Feynman-Kac propagation on one slice-aligned Crank-Nicolson lattice.

    ``matrix`` is the single dense ``solve_feynman_kac`` over the lattice.
    ``sweep`` evolves u0 forward through the same steps, one vector at a
    time, and applies their transposes to vT in reverse order (the exact
    discrete adjoint).  So u[-1] and v[0] equal ``matrix.apply_source(u0)``
    and ``matrix.apply_target(vT)`` to rounding error, and <u_k, v_k>_w is
    the same at every slice.  Every swept slice is checked for negative
    values (relative to its peak, against NEGATIVITY_TOL); the rounding
    noise it lets through is set to zero.
    """

    @cached_property
    def matrix(self) -> KernelMatrix:
        return solve_feynman_kac(self.kernel.potential, self.grid,
                                 self.times[0], self.times[-1],
                                 n_substeps=self.kernel.n_substeps,
                                 slices=self.times)

    @cached_property
    def steps(self) -> list[list[_Step]]:
        return _crank_nicolson_steps(self.kernel.potential, self.grid,
                                     self.times, self.kernel.n_substeps)

    def sweep(self, u0: np.ndarray, vT: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        u = np.zeros((self.times.size, self.grid.n_points))
        v = np.zeros_like(u)
        u[0] = u0
        v[-1] = vT
        w = u[0, 1:-1]
        for k, interval in enumerate(self.steps, start=1):
            for step in interval:
                w = step.apply(w)
            u[k, 1:-1] = w
        w = v[-1, 1:-1]
        for k in range(self.times.size - 2, -1, -1):
            for step in reversed(self.steps[k]):
                w = step.apply(w, transpose=True)
            v[k, 1:-1] = w
        for name, stack in (("u", u), ("v", v)):
            _check_swept(name, stack, self.times, self.grid)
        return np.maximum(u, 0.0), np.maximum(v, 0.0)


def _check_swept(name: str, stack: np.ndarray, times: np.ndarray,
                 grid: Grid1D):
    """Raise at the slice whose lowest value is most negative for its peak."""
    peak = np.max(np.abs(stack), axis=1)
    low = np.min(stack, axis=1) / np.where(peak > 0.0, peak, 1.0)
    k = int(np.argmin(low))
    if low[k] < NEGATIVITY_TOL:
        j = int(np.argmin(stack[k]))
        raise PositivityError(
            f"swept factor {name} went negative at slice {k} "
            f"(t = {times[k]:.6g}), node {j} (x = {grid.nodes[j]:.6g}): "
            f"{stack[k, j]:.3e}; refine the substeps")


def check_chapman_kolmogorov(kernel: Kernel, s: float, tau: float, t: float,
                             grid: Grid1D | None = None, margin: float = 4.0,
                             max_probes: int = 80) -> float:
    """Max |compose(s->tau->t) - direct(s->t)| over an interior probe lattice.

    The midpoint integral runs over the full grid; probe sources/targets
    keep ``margin`` away from the edges so domain truncation of the
    midpoint integral (not a property of the kernel) cannot dominate.
    """
    if not (s < tau < t):
        raise TimeOrderingError(f"need s < tau < t, got {s}, {tau}, {t}")
    grid = grid or Grid1D()
    z = grid.nodes
    inside = np.flatnonzero((z >= grid.x_min + margin) & (z <= grid.x_max - margin))
    if inside.size == 0:
        raise ValueError("probe margin leaves no interior nodes")
    stride = max(1, inside.size // max_probes)
    probes = z[inside[::stride]]

    first = kernel.evaluate(probes[:, None], s, z[None, :], tau)
    second = kernel.evaluate(z[:, None], tau, probes[None, :], t)
    composed = first @ (grid.weights[:, None] * second)
    direct = kernel.evaluate(probes[:, None], s, probes[None, :], t)
    return float(np.max(np.abs(composed - direct)))


def _extrapolate_to_zero(steps: np.ndarray, values: np.ndarray) -> float:
    """Lagrange evaluation at step = 0 of the polynomial through the table."""
    x = np.asarray(steps, dtype=float)
    v = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(x.size):
        others = np.delete(x, i)
        total += v[i] * float(np.prod(others / (others - x[i])))
    return float(total)


def _extrapolate_rate(steps: np.ndarray, values: np.ndarray) -> float:
    """Step -> 0 limit of a rate table.

    Polynomial extrapolation assumes the table expands in powers of the
    step.  Columns such as the mass leak collapse faster than any power
    (an essentially singular limit), where the polynomial fit overshoots
    badly; those tables are detected by their decay ratio and the
    smallest-step entry is returned instead.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if np.all(16.0 * v[1:] <= v[:-1]):
        return float(values[-1])
    return _extrapolate_to_zero(steps, values)


def _warn_if_not_converging(name: str, steps, values, limit: float):
    err = np.abs(np.asarray(values) - limit)
    scale = max(abs(limit), float(np.max(np.abs(values))), 1e-30)
    # tables living entirely at rounding-noise scale carry no order information
    if scale <= 1e-12 or np.max(err) <= 1e-9 * scale:
        return
    if np.any(np.diff(err) > 1e-9 * scale):
        warnings.warn(
            f"{name}: step-size table is not monotone "
            f"(steps {list(steps)}, values {list(values)})",
            ExtrapolationWarning, stacklevel=3)


@dataclass(frozen=True)
class MomentRates:
    """Extrapolated short-time rates and the raw per-step table."""

    leak_rate: float
    first_moment_rate: float
    second_moment_rate: float
    dts: tuple[float, ...]
    table: np.ndarray = field(repr=False)


def short_time_moments(kernel: Kernel, y: float, t: float,
                       dts: tuple[float, ...] = DEFAULT_DTS, eps: float = 1.0,
                       half_width: float = 4.0, n_quad: int = 2049) -> MomentRates:
    """Short-time mass leak and increment-moment rates at (y, t).

    For each step dt the kernel from (y, t) to t + dt is integrated on a
    local lattice y +/- half_width: the mass outside the eps-ball, the
    first and the second increment moments, each divided by dt.  The
    three rates are extrapolated polynomially to dt -> 0; a warning is
    emitted when a rate column does not approach its limit monotonically.
    """
    y, t = float(y), float(t)
    local = Grid1D(y - half_width, y + half_width, n_quad)
    xs, wq = local.nodes, local.weights
    outside = np.abs(xs - y) > eps
    table = np.empty((len(dts), 3))
    for k, dt in enumerate(dts):
        p = kernel.evaluate(y, t, xs, t + dt)
        table[k, 0] = float(np.sum(wq[outside] * p[outside])) / dt
        table[k, 1] = float(np.sum(wq * (xs - y) * p)) / dt
        table[k, 2] = float(np.sum(wq * (xs - y) ** 2 * p)) / dt
    steps = np.asarray(dts, dtype=float)
    rates = [_extrapolate_rate(steps, table[:, j]) for j in range(3)]
    for j, name in enumerate(("leak rate", "first-moment rate",
                              "second-moment rate")):
        _warn_if_not_converging(name, steps, table[:, j], rates[j])
    return MomentRates(leak_rate=rates[0], first_moment_rate=rates[1],
                       second_moment_rate=rates[2], dts=tuple(dts), table=table)


def extract_forward_drift(kernel: Kernel, x: float, t: float,
                          dts: tuple[float, ...] = DEFAULT_DTS,
                          half_width: float = 4.0, n_quad: int = 2049) -> float:
    """Forward drift at (x, t) from the short-time conditional mean.

    Computes (E[X_{t+dt} | X_t = x] - x) / dt on a shrinking step ladder
    and extrapolates to dt -> 0.  The conditional mean uses the kernel's
    own mass on the local lattice so mild non-normalization cancels.
    """
    x, t = float(x), float(t)
    local = Grid1D(x - half_width, x + half_width, n_quad)
    xs, wq = local.nodes, local.weights
    vals = np.empty(len(dts))
    for k, dt in enumerate(dts):
        p = kernel.evaluate(x, t, xs, t + dt)
        mass = float(np.sum(wq * p))
        mean = float(np.sum(wq * xs * p)) / mass
        vals[k] = (mean - x) / dt
    steps = np.asarray(dts, dtype=float)
    drift = _extrapolate_rate(steps, vals)
    _warn_if_not_converging("drift rate", steps, vals, drift)
    return drift


def generalized_heat_residual(stack: FieldStack, potential: Potential,
                              kind: str = "u") -> float:
    """Max interior residual of the adjoint parabolic pair on a stack.

    kind "u": du/dt - nu*lap(u) + c*u.  kind "v": dv/dt + nu*lap(v) - c*v.
    Time derivative via central differences on the stack lattice; the
    first/last time slices and edge nodes are excluded.
    """
    if kind not in ("u", "v"):
        raise ValueError("kind must be 'u' or 'v'")
    vals = stack.values
    dvdt = np.gradient(vals, stack.times, axis=0, edge_order=2)
    lap = laplacian_values(vals, stack.grid.spacing)
    c = np.empty_like(vals)
    for k, t in enumerate(stack.times):
        c[k] = potential(stack.grid.nodes, float(t))
    sign = -1.0 if kind == "u" else 1.0
    res = dvdt + sign * (potential.nu * lap - c * vals)
    return float(np.max(np.abs(res[1:-1, 1:-1])))


KERNEL_TAGS: dict[str, type] = {
    HeatKernel.tag: HeatKernel,
    TimeSquaredHeatKernel.tag: TimeSquaredHeatKernel,
    TiltedTimeSquaredKernel.tag: TiltedTimeSquaredKernel,
    PinnedGaussianKernel.tag: PinnedGaussianKernel,
    TiltedPinnedKernel.tag: TiltedPinnedKernel,
    MarkovFamilyKernel.tag: MarkovFamilyKernel,
    NumericFeynmanKacKernel.tag: NumericFeynmanKacKernel,
}


def make_kernel(tag: str, **params) -> Kernel:
    """Instantiate a kernel by its registry tag."""
    try:
        cls = KERNEL_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown kernel tag {tag!r}; known: {sorted(KERNEL_TAGS)}") from None
    return cls(**params)
