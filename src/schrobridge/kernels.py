"""Transition kernels: one Gaussian spec and a numeric Feynman-Kac solver.

A kernel's ``evaluate(y, s, x, t)`` is the transition density from (y, s)
to (x, t), 0 <= s < t; the probes need nothing more.  The six closed-form
kernels of the worked free-packet example are ``GaussianKernel`` specs,
log k = log N(x; c(s, t) y + shift(s, t), var(s, t)) + a(y, s) - a(x, t),
built by tag with ``make_kernel``.  ``NumericFeynmanKacKernel`` builds grid
kernels for an arbitrary potential as fundamental solutions of the
adjoint parabolic pair du/dt = nu*lap(u) - c*u, dv/dt = -nu*lap(v) + c*v.

Bridge factors travel through ``kernel.propagator(grid, times)``, built
once per grid and slice lattice: its ``matrix()`` builds K(0, T) anew on
each call, and its sweep carries a factor pair to every slice at once.

A spec's matrix has one build (``KernelMatrix.from_kernel``): two cores,
one row of node offsets or the n^2 node pairs, and one tail that floors
the density exp(-d^2 / 2 var) / sqrt(2 pi var), d = x - c y - shift.
A tilted spec's matrix holds its untilted spec's entries and carries the
tilt as two vectors (a Doob transform), applied on either side of each
matrix-vector product.  ``evaluate`` keeps the log form of a tilted
kernel, a single exp of summed log-factors; for ``pinned-example2`` the
density form and exp of its log-density differ by rounding only
(<= 4.96e-14 relative on the default boxes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ExtrapolationWarning, NumericDomainError, PositivityError,
                     TimeOrderingError)
from .grids import (FieldStack, Grid1D, interior_max, laplacian_values,
                    time_derivative)
from .packet import PACKET

ENTRY_FLOOR = 1e-300
# the largest argument whose exp is finite
LOG_MAX = float(np.log(np.finfo(float).max))
NEGATIVITY_TOL = -1e-12
MOMENT_DTS = (1e-2, 5e-3, 2.5e-3)
MOMENT_HALF_WIDTH = 4.0
MOMENT_N_QUAD = 2049
CK_MARGIN = 4.0
CK_MAX_PROBES = 80
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
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu}")

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


def _check_order(s: float, t: float, start: float = 0.0
                 ) -> tuple[float, float]:
    s, t = float(s), float(t)
    if not np.isfinite(s) or not np.isfinite(t):
        raise TimeOrderingError("kernel times must be finite")
    if s < start or t <= s:
        raise TimeOrderingError(f"need {start:g} <= s < t, got s={s}, t={t}")
    return s, t


class Kernel:
    """Base transition-density interface."""

    def evaluate(self, y, s: float, x, t: float) -> np.ndarray:
        raise NotImplementedError

    def propagator(self, grid: Grid1D, times) -> "Propagator":
        """Factor propagation over the slice lattice ``times`` on ``grid``."""
        return Propagator(self, grid, times)


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """k(y, s, x, t) = N(x; c(s, t) y + shift(s, t), var(s, t)) v(y, s) / v(x, t).

    ``coef`` None means c = 1, so k depends on y and x only through
    x - y; ``shift`` None means 0; ``log_tilt`` is log v, None for an
    untilted kernel.  Times must satisfy start <= s < t.
    """

    tag: str
    var: Callable[[float, float], float]
    coef: Callable[[float, float], float] | None = None
    shift: Callable[[float, float], float] | None = None
    log_tilt: Callable[[np.ndarray, float], np.ndarray] | None = None
    start: float = 0.0
    nu: float = 1.0

    def __post_init__(self):
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu}")

    def evaluate(self, y, s, x, t):
        e = self.core(y, s, x, t)
        if self.log_tilt is not None:
            e += self.log_tilt(y, s)
            e -= self.log_tilt(x, t)
            np.exp(e, out=e)
        return e[()]

    def core(self, y, s: float, x, t: float) -> np.ndarray:
        """N(d; 0, var), or log N(d; 0, var) for a tilted kernel, at
        d = x - c y - shift, computed in place in one new array; the
        times are checked here."""
        s, t = _check_order(s, t, self.start)
        y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
        var = self.var(s, t)
        if not 0.0 < var < np.inf:
            raise PositivityError(
                f"{self.tag} kernel variance at s={s}, t={t} is {var}")
        d = np.asarray(x - y if self.coef is None else x - self.coef(s, t) * y)
        if self.shift is not None:
            d -= self.shift(s, t)
        np.square(d, out=d)
        d /= -2.0 * var
        if self.log_tilt is not None:
            d += -0.5 * np.log(2.0 * np.pi * var)
            return d
        np.exp(d, out=d)
        d /= np.sqrt(2.0 * np.pi * var)
        return d


def pinned_coefficient(t: float, s: float) -> float:
    """Mean contraction c(t, s) of the pinned family: it carries the
    packet density at time s onto the packet density at time t."""
    return float(np.sqrt(((1.0 - t) ** 2 + 2.0 * s) / (1.0 + s * s)))


def pinned_coefficient_dt(t: float, s: float) -> float:
    """d/dt of the pinned coefficient (smooth for s > 0)."""
    return float(-(1.0 - t)
                 / np.sqrt((((1.0 - t) ** 2 + 2.0 * s)) * (1.0 + s * s)))


def heat_kernel(nu: float = 1.0) -> GaussianKernel:
    """Constant-diffusivity heat kernel with zero drift."""
    return GaussianKernel("heat", lambda s, t: 2.0 * nu * (t - s), nu=nu)


def example1_kernel() -> GaussianKernel:
    """Zero-drift kernel whose variance clock runs as t^2: it propagates
    the free-packet density exactly, with short-time second-moment rate
    2t at time t."""
    return GaussianKernel("example1", lambda s, t: t * t - s * s)


def quantum_k1_kernel() -> GaussianKernel:
    """``example1`` tilted by the packet's forward factor v; its bridge
    factors reproduce the packet pair exactly."""
    return replace(example1_kernel(), tag="quantum-k1",
                   log_tilt=PACKET.log_factor_v)


def pinned_kernel() -> GaussianKernel:
    """Unit-rate Gaussian kernel with mean c(t, s) y, pinned to the packet
    marginals; *not* a consistent two-time transition law (its
    Chapman-Kolmogorov residual is order 1e-2)."""
    return GaussianKernel("pinned-example2", lambda s, t: 2.0 * (t - s),
                          coef=lambda s, t: pinned_coefficient(t, s))


def quantum_k2_kernel() -> GaussianKernel:
    """The pinned kernel tilted by the packet's forward factor v."""
    return replace(pinned_kernel(), tag="quantum-k2",
                   log_tilt=PACKET.log_factor_v)


def markov_family_kernel(anchor_y: float = 0.0,
                         anchor_s: float = 0.0) -> GaussianKernel:
    """Consistent Markov transition family anchored at one pinning point.

    With c(t) = c(t, anchor_s), the two-time law
    k(x1, t1, x2, t2) = N(x2; x1 + (c(t2) - c(t1)) * anchor_y, 2 * (t2 - t1))
    has the pinned one-time marginals (``pinned-example2`` from
    (anchor_y, anchor_s)), collapses to a delta as t2 -> t1, and satisfies
    Chapman-Kolmogorov exactly.
    """
    y_a, s_a = float(anchor_y), float(anchor_s)
    for name, value in (("anchor_y", y_a), ("anchor_s", s_a)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if s_a < 0.0:
        raise TimeOrderingError("anchor time must be nonnegative")
    return GaussianKernel(
        "markov-family", lambda s, t: 2.0 * (t - s), start=s_a,
        shift=lambda s, t: (pinned_coefficient(t, s_a)
                            - pinned_coefficient(s, s_a)) * y_a)


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel sampled on the node pairs of one grid from time s to time t.

    entries[i, j] = k(node_i, s, node_j, t) of an untilted kernel, so a row
    is the propagated delta from one node and integrates against the
    grid's quadrature weights.  A tilted spec's matrix (only
    ``from_kernel`` makes one) holds its untilted spec's entries and the
    log-tilts ``log_tilt`` = (a(., s), a(., t)) on the nodes; its kernel
    is D(e^{a(., s)}) entries D(e^{-a(., t)}), applied as two vectors.
    """

    grid: Grid1D
    entries: np.ndarray
    log_tilt: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.grid.n_points, self.grid.n_points):
            raise ValueError("entries shape does not match the grid")
        if not np.all(np.isfinite(e)):
            raise PositivityError("kernel matrix entries must be finite")

    @classmethod
    def _checked(cls, grid: Grid1D, entries: np.ndarray,
                 log_tilt) -> "KernelMatrix":
        """A matrix whose entries are finite by construction; skips the
        n^2 finiteness scan of ``__post_init__``."""
        mat = object.__new__(cls)
        mat.__dict__.update(grid=grid, entries=entries, log_tilt=log_tilt)
        return mat

    @classmethod
    def from_kernel(cls, kernel: GaussianKernel, grid: Grid1D, s: float,
                    t: float) -> "KernelMatrix":
        """Sample a Gaussian spec on the node pairs of ``grid``, s to t.

        The untilted spec's density core (``core``) is computed on the
        2n - 1 node offsets x_0 - x_{n-1}, ..., 0, ..., x_{n-1} - x_0 and
        expanded, entry (i, j) taking the sample at offset x_j - x_i, when
        c = 1; otherwise on the n x n pairs d = x_j - c y_i - shift.  A
        non-finite core is refused (a density cannot be negative), and the
        core is floored at ENTRY_FLOOR (on the row, before it is expanded).
        On grids whose nodes are exact multiples of the spacing (the
        default boxes) the row builds agree with the untilted ``evaluate``
        on the node pairs bit for bit; elsewhere they differ by the
        rounding of x_j - y_i.  A tilted spec's matrix also carries a(., s)
        and a(., t), refused unless both are finite and
        max a(., s) - min a(., t) <= LOG_MAX, so no factor that
        ``apply_target`` or ``apply_source`` multiplies by overflows.
        """
        x = grid.nodes
        row = kernel.coef is None
        base = replace(kernel, log_tilt=None)
        e = (base.core(0.0, s, _offsets(x), t) if row
             else base.core(x[:, None], s, x[None, :], t))
        # two reductions, so the n^2 core needs no n^2 mask
        if not (np.isfinite(np.min(e)) and np.isfinite(np.max(e))):
            raise PositivityError("kernel evaluation produced non-finite values")
        log_tilt = None
        if kernel.log_tilt is not None:
            log_tilt = kernel.log_tilt(x, s), kernel.log_tilt(x, t)
            for a, time in zip(log_tilt, (s, t)):
                if not np.all(np.isfinite(a)):
                    raise PositivityError(f"{kernel.tag} log-tilt at "
                                          f"t = {time:.6g} is not finite")
            top = float(np.max(log_tilt[0]) - np.min(log_tilt[1]))
            if not top <= LOG_MAX:
                raise PositivityError(
                    f"{kernel.tag} tilt from s = {s:.6g} to t = {t:.6g} "
                    f"overflows: log range {top:.6g} > LOG_MAX = {LOG_MAX:.6g}")
        np.maximum(e, ENTRY_FLOOR, out=e)
        return cls._checked(grid, _lattice(e, x.size) if row else e, log_tilt)

    def apply_target(self, g: np.ndarray) -> np.ndarray:
        """Integrate k(y_i, s, x, t) g(x) dx over the grid.  A tilt
        applies as e^{a(., s) - mT} (entries @ (w g e^{mT - a(., t)})),
        mT = min a(., t), so the inner factor is at most 1."""
        g = np.asarray(g, dtype=float)
        if self.log_tilt is None:
            return self.entries @ (self.grid.weights * g)
        a_s, a_t = self.log_tilt
        m = np.min(a_t)
        inner = self.grid.weights * (g * np.exp(m - a_t))
        return np.exp(a_s - m) * (self.entries @ inner)

    def apply_source(self, f: np.ndarray) -> np.ndarray:
        """Integrate f(y) k(y, s, x_j, t) dy over the grid.  A tilt
        applies as e^{m0 - a(., t)} ((w f e^{a(., s) - m0}) @ entries),
        m0 = max a(., s), so the inner factor is at most 1."""
        f = np.asarray(f, dtype=float)
        if self.log_tilt is None:
            return (self.grid.weights * f) @ self.entries
        a_s, a_t = self.log_tilt
        m = np.max(a_s)
        inner = self.grid.weights * (f * np.exp(a_s - m))
        return np.exp(m - a_t) * (inner @ self.entries)


class Propagator:
    """Factor propagation of one kernel over one slice lattice.

    Built once per (grid, slice lattice), the one holder of a bridge's
    times.  ``matrix()`` builds the boundary matrix K(times[0], times[-1])
    anew on each call; IPF calls it and drops it when it returns.
    ``sweep(u0, vT)`` carries a factor pair to every slice at once.
    This base serves the ``GaussianKernel`` specs: ``matrix()`` and every
    per-pair matrix of the sweep are ``KernelMatrix.from_kernel`` builds,
    so a tilt rides on two vectors in both.
    """

    def __init__(self, kernel: Kernel, grid: Grid1D, times):
        self.kernel = kernel
        self.grid = grid
        self.times = _slice_times(times)

    def matrix(self) -> KernelMatrix:
        return KernelMatrix.from_kernel(self.kernel, self.grid,
                                        float(self.times[0]),
                                        float(self.times[-1]))

    def sweep(self, u0: np.ndarray, vT: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Factor stacks u[k] = K(t_0, t_k)^T u0 and v[k] = K(t_k, t_N) vT.

        Row 0 of u is u0 and the last row of v is vT; integrals use the
        grid's quadrature weights as in ``KernelMatrix``.  Each per-pair
        matrix is built, applied and dropped before the next is built, so
        at most one of them is alive at a time.
        """
        grid, times = self.grid, self.times
        t0, T = float(times[0]), float(times[-1])
        u = np.empty((times.size, grid.n_points))
        v = np.empty_like(u)
        u[0] = u0
        v[-1] = vT
        for k in range(1, times.size):
            u[k] = KernelMatrix.from_kernel(
                self.kernel, grid, t0, float(times[k])).apply_source(u[0])
        for k in range(times.size - 1):
            v[k] = KernelMatrix.from_kernel(
                self.kernel, grid, float(times[k]), T).apply_target(v[-1])
        return u, v


def _offsets(x: np.ndarray) -> np.ndarray:
    """The 2n - 1 node offsets x_0 - x_{n-1}, ..., 0, ..., x_{n-1} - x_0."""
    return np.concatenate((x[0] - x[:0:-1], x - x[0]))


def _lattice(row: np.ndarray, n: int) -> np.ndarray:
    """The owned n x n matrix whose entry (i, j) is the row's sample at
    offset x_j - x_i."""
    # window n - 1 - i holds the offsets x_j - x_i, j = 0 .. n - 1
    return np.ascontiguousarray(sliding_window_view(row, n)[::-1])


def _slice_times(times) -> np.ndarray:
    """Strictly increasing, finite slice times with 0 <= times[0]."""
    times = np.array(times, dtype=float)
    if times.ndim == 1 and times.size >= 2:
        _check_order(times[0], times[-1])
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    return times


def solve_banded(diag, off, b):
    """Solve A x = b in place for a symmetric positive-definite tridiagonal A.

    A has diagonal ``diag`` and off-diagonal ``off`` (one entry shorter), the
    two arrays LAPACK ``?ptsv`` reads.  It factors A as L D L^T (as
    ``scipy.linalg.solveh_banded`` does for a tridiagonal A) and overwrites
    ``b``, a float vector or a Fortran-ordered block of columns, with x;
    ``b`` is returned.  A that is not positive definite raises
    NumericDomainError.

    ``scipy.linalg`` is imported here, on the first Feynman-Kac step, so
    the closed-form commands start without it.  ``_Step`` looks this name
    up at call time, so a wrapper bound over it sees every banded solve.
    """
    from scipy.linalg.lapack import dptsv
    if b.dtype != np.float64 or not b.flags.f_contiguous:
        raise ValueError("b must be a float vector or a Fortran-ordered block")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()
            and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dptsv(diag, off, b, overwrite_b=True)
    if info > 0:
        raise NumericDomainError(
            f"leading minor {info} of the banded matrix is not positive definite")
    return x


@dataclass(frozen=True)
class _Step:
    """One factor A^-1 B of the evolution on the interior nodes, ending at
    time ``t``.

    A and B are symmetric tridiagonal.  A has diagonal ``a_diag`` and
    off-diagonal ``a_off``; B has diagonal ``b_diag`` and off-diagonal
    ``b_off``, or is the identity for an implicit-Euler step (``b_diag``
    None).
    """

    t: float
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray | None = None
    b_off: float = 0.0

    def solve(self, w: np.ndarray):
        """Overwrite w with A^-1 w."""
        try:
            solve_banded(self.a_diag, self.a_off, w)
        except NumericDomainError as err:
            raise NumericDomainError(
                f"the Feynman-Kac substep ending at t = {self.t:.6g} is not "
                f"positive definite ({err}); increase n_substeps") from None

    def apply_b(self, w: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """out = B w for Fortran-ordered w, out and scratch of one shape.

        Their columns lie end to end in memory, so each off-diagonal term
        is one product over the flat buffer (strided 2-D slices are several
        times slower), with the terms that would reach into a neighbouring
        column set to zero in ``scratch``.  Adding those zeros changes
        nothing but the sign of a zero sum.
        """
        m = w.shape[0]
        np.multiply(self.b_diag if w.ndim == 1 else self.b_diag[:, None], w,
                    out=out)
        w, out, scratch = (a.ravel(order="F") for a in (w, out, scratch))
        np.multiply(w[1:], self.b_off, out=scratch[:-1])
        scratch[m - 1::m] = 0.0
        out += scratch
        np.multiply(w[:-1], self.b_off, out=scratch[1:])
        scratch[::m] = 0.0
        out += scratch


def _evolve(steps, w: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Apply ``steps`` in order to the owned, Fortran-ordered ``w`` in place:
    w <- A^-1 B w, or with ``transpose`` w <- (A^-1 B)^T w = B A^-1 w.

    ``w`` and one spare buffer of its shape take turns holding the values,
    and a scratch buffer takes B's off-diagonal terms, so a step allocates
    nothing and every banded solve overwrites its right-hand side.  Returns
    the buffer that holds the result.
    """
    spare, scratch = np.empty_like(w), np.empty_like(w)
    for step in steps:
        if transpose:
            step.solve(w)
        if step.b_diag is not None:
            step.apply_b(w, spare, scratch)
            w, spare = spare, w
        if not transpose:
            step.solve(w)
    return w


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
    number in every slice interval; a lattice whose largest diffusion
    number nu*dt/h^2 exceeds 10 is refused.  The first two substeps of the
    lattice are taken as four implicit-Euler half steps (Rannacher start),
    which damps the checkerboard mode that delta data would otherwise excite.
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
        return _Step(tau_next, 1.0 + dt * (2.0 * rate + c_next),
                     np.full(xs.size - 1, -dt * rate))

    def crank_nicolson(tau, tau_next):
        dt = tau_next - tau
        r = dt * rate
        return _Step(tau_next, 1.0 + r + 0.5 * dt * potential(xs, tau_next),
                     np.full(xs.size - 1, -0.5 * r),
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


def solve_feynman_kac(propagator: "FeynmanKacPropagator") -> KernelMatrix:
    """Numeric fundamental solution of the forward generalized heat equation.

    Evolves the interior grid deltas (scaled 1/h) over the propagator's
    lattice under du/dt = nu*lap(u) - c*u, with homogeneous values at the
    grid edges, as one dense block through ``propagator.steps`` (the steps
    its ``sweep`` runs): entries[i, j] ~ k(y_i, times[0], x_j, times[-1]).
    """
    grid = propagator.grid
    n, h = grid.n_points, grid.spacing
    w = np.eye(n - 2, order="F")
    w /= h
    w = _evolve((step for interval in propagator.steps for step in interval), w)

    full = np.zeros((n, n))
    full[1:-1, 1:-1] = w
    del w
    entries = full.T
    i, j = np.unravel_index(np.argmin(entries), entries.shape)
    if entries[i, j] < NEGATIVITY_TOL:
        times = propagator.times
        # the damped start takes two of the substeps as four half steps
        substeps = sum(map(len, propagator.steps)) - 2
        raise PositivityError(
            f"Feynman-Kac solution went negative ({entries[i, j]:.3e}) at "
            f"source node {i} (y = {grid.nodes[i]:.6g}), target node {j} "
            f"(x = {grid.nodes[j]:.6g}) of K({times[0]:.6g}, {times[-1]:.6g}) "
            f"over {substeps} substeps; refine the substeps")
    np.maximum(entries, ENTRY_FLOOR, out=entries)
    return KernelMatrix(grid, entries)


class NumericFeynmanKacKernel(Kernel):
    """Kernel interface over Feynman-Kac grid solutions.

    ``propagator(grid, times)`` is the bridge path: one dense solve of
    K(times[0], times[-1]) for IPF and two Crank-Nicolson sweeps over the
    same slice-aligned lattice (``FeynmanKacPropagator``); there
    ``n_substeps`` counts substeps over the whole lattice, rounded up to
    whole substeps per slice.  ``evaluate`` is the path for probes
    (Chapman-Kolmogorov check, transitions, moments): each call builds
    ``propagator(grid, (s, t)).matrix()`` (``n_substeps`` over that pair)
    and interpolates bilinearly between nodes.
    """

    tag = "numeric-fk"

    def __init__(self, potential: Potential, grid: Grid1D | None = None,
                 n_substeps: int | None = None):
        self.potential = potential
        self.grid = grid or Grid1D()
        self.n_substeps = n_substeps
        self.nu = potential.nu

    def propagator(self, grid: Grid1D, times) -> "FeynmanKacPropagator":
        return FeynmanKacPropagator(self, grid, times)

    def evaluate(self, y, s, x, t):
        mat = self.propagator(self.grid, (s, t)).matrix()
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

    ``matrix()`` runs the single dense ``solve_feynman_kac`` over the
    cached ``steps`` on each call.  ``sweep`` evolves u0 forward through
    the same steps, one vector at a time, and applies their transposes to
    vT in reverse order (the exact discrete adjoint).  So u[-1] and v[0]
    equal ``matrix().apply_source(u0)`` and ``matrix().apply_target(vT)``
    to rounding error, and <u_k, v_k>_w is the same at every slice.  Every
    swept slice is checked for negative values (relative to its peak,
    against NEGATIVITY_TOL); the rounding noise it lets through is set to
    zero.
    """

    def matrix(self) -> KernelMatrix:
        return solve_feynman_kac(self)

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
        # the evolved values are owned copies: solves overwrite them
        w = u[0, 1:-1].copy()
        for k, interval in enumerate(self.steps, start=1):
            w = _evolve(interval, w)
            u[k, 1:-1] = w
        w = v[-1, 1:-1].copy()
        for k in range(self.times.size - 2, -1, -1):
            w = _evolve(reversed(self.steps[k]), w, transpose=True)
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
                             grid: Grid1D | None = None) -> float:
    """Max |compose(s->tau->t) - direct(s->t)| over an interior probe lattice.

    The midpoint integral runs over the full grid; probe sources/targets
    keep CK_MARGIN away from the edges so domain truncation of the
    midpoint integral (not a property of the kernel) cannot dominate.
    """
    if not (s < tau < t):
        raise TimeOrderingError(f"need s < tau < t, got {s}, {tau}, {t}")
    grid = grid or Grid1D()
    z = grid.nodes
    inside = np.flatnonzero((z >= grid.x_min + CK_MARGIN)
                            & (z <= grid.x_max - CK_MARGIN))
    if inside.size == 0:
        raise ValueError("probe margin leaves no interior nodes")
    stride = max(1, inside.size // CK_MAX_PROBES)
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
            ExtrapolationWarning, stacklevel=4)


def _short_time_rates(kernel: Kernel, y: float, t: float, row,
                      names: tuple[str, ...]) -> tuple[np.ndarray, list[float]]:
    """The table row(xs, wq, p) / dt, one row per step dt of MOMENT_DTS and
    one column per name, with p the kernel from (y, t) to t + dt on the
    local lattice xs (weights wq), and each column's dt -> 0 limit."""
    local = Grid1D(y - MOMENT_HALF_WIDTH, y + MOMENT_HALF_WIDTH, MOMENT_N_QUAD)
    xs, wq = local.nodes, local.weights
    table = np.array([np.divide(row(xs, wq, kernel.evaluate(y, t, xs, t + dt)),
                                dt) for dt in MOMENT_DTS])
    table = table.reshape(len(MOMENT_DTS), len(names))
    steps = np.asarray(MOMENT_DTS, dtype=float)
    rates = [_extrapolate_rate(steps, column) for column in table.T]
    for name, column, rate in zip(names, table.T, rates):
        _warn_if_not_converging(name, steps, column, rate)
    return table, rates


@dataclass(frozen=True)
class MomentRates:
    """Extrapolated short-time rates and the raw table, one row per dt."""

    leak_rate: float
    first_moment_rate: float
    second_moment_rate: float
    table: np.ndarray = field(repr=False)


def short_time_moments(kernel: Kernel, y: float, t: float,
                       eps: float = 1.0) -> MomentRates:
    """Short-time mass leak and increment-moment rates at (y, t).

    For each step dt of MOMENT_DTS the kernel from (y, t) to t + dt is
    integrated on a local lattice y +/- MOMENT_HALF_WIDTH of MOMENT_N_QUAD
    nodes: the mass outside the eps-ball, the first and the second
    increment moments, each divided by dt.  The three rates are
    extrapolated polynomially to dt -> 0; a warning is emitted when a rate
    column does not approach its limit monotonically.
    """
    y, t = float(y), float(t)

    def row(xs, wq, p):
        outside = np.abs(xs - y) > eps
        return (np.sum(wq[outside] * p[outside]), np.sum(wq * (xs - y) * p),
                np.sum(wq * (xs - y) ** 2 * p))

    table, rates = _short_time_rates(kernel, y, t, row, (
        "leak rate", "first-moment rate", "second-moment rate"))
    return MomentRates(*rates, table=table)


def extract_forward_drift(kernel: Kernel, x: float, t: float) -> float:
    """Forward drift at (x, t) from the short-time conditional mean.

    Computes (E[X_{t+dt} | X_t = x] - x) / dt on the MOMENT_DTS ladder and
    the local lattice of ``short_time_moments``, and extrapolates to
    dt -> 0.  The conditional mean uses the kernel's own mass on the local
    lattice so mild non-normalization cancels.
    """
    x, t = float(x), float(t)
    _, (drift,) = _short_time_rates(
        kernel, x, t,
        lambda xs, wq, p: np.sum(wq * xs * p) / np.sum(wq * p) - x,
        ("drift rate",))
    return drift


def generalized_heat_residual(stack: FieldStack, potential: Potential,
                              kind: str = "u") -> float:
    """Max interior residual of the adjoint parabolic pair on a stack.

    kind "u": du/dt - nu*lap(u) + c*u.  kind "v": dv/dt + nu*lap(v) - c*v.
    The first/last time slices and edge nodes are excluded.
    """
    if kind not in ("u", "v"):
        raise ValueError("kind must be 'u' or 'v'")
    vals = stack.values
    lap = laplacian_values(vals, stack.grid.spacing)
    c = FieldStack.sample(stack.grid, stack.times, potential).values
    sign = -1.0 if kind == "u" else 1.0
    res = (time_derivative(vals, stack.times)
           + sign * (potential.nu * lap - c * vals))
    return interior_max(res)


KERNEL_TAGS: dict[str, Callable[..., Kernel]] = {
    "heat": heat_kernel,
    "example1": example1_kernel,
    "quantum-k1": quantum_k1_kernel,
    "pinned-example2": pinned_kernel,
    "quantum-k2": quantum_k2_kernel,
    "markov-family": markov_family_kernel,
    NumericFeynmanKacKernel.tag: NumericFeynmanKacKernel,
}


def make_kernel(tag: str, **params) -> Kernel:
    """Build a kernel by its registry tag: ``nu`` for heat, ``anchor_y``
    and ``anchor_s`` for markov-family, none for the other closed forms."""
    try:
        factory = KERNEL_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown kernel tag {tag!r}; known: {sorted(KERNEL_TAGS)}") from None
    return factory(**params)
