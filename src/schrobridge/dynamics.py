"""Path sampling and lattice residual diagnostics for the two SDEs.

The forward process follows dX = b(X, t) dt + sqrt(2 nu) dW from rho0;
the backward process follows the reversed-clock integration
dY = -b*(Y, T - tau) dtau + sqrt(2 nu) dW from rhoT.  Euler-Maruyama
stepping, one RNG stream per path (stable under any internal batching),
and node-centered histograms for empirical densities.

The residual engines discretize the transport identities the
interpolating density and drifts must satisfy: the two Fokker-Planck
forms, the conditional (one-sided) derivative operators, and the common
acceleration field both drifts share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bridge import BridgeSolution
from .errors import BoundaryLeakError
from .grids import (FieldStack, Grid1D, ScalarField, gradient_values,
                    laplacian_values, lattice_index, normalize)

BOUNDARY_POLICIES = ("reflect", "absorb-and-discard")
DEFAULT_BLOCK = 8192


@dataclass(frozen=True)
class SDEConfig:
    """Euler-Maruyama run parameters."""

    nu: float = 1.0
    n_paths: int = 10_000
    dt: float = 1e-3
    seed: int = 0
    boundary_policy: str = "reflect"

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(
                f"boundary_policy must be one of {BOUNDARY_POLICIES}")


@dataclass(frozen=True)
class PathEnsemble:
    """Recorded path positions; times are forward labels, increasing."""

    times: np.ndarray
    positions: np.ndarray
    config: SDEConfig
    horizon: float
    n_requested: int

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    def slice(self, t: float) -> np.ndarray:
        return self.positions[:, lattice_index(self.times, t, "was not recorded")]


class CallableDrift:
    """Adapter giving a plain b(x, t) callable the lattice-drift interface."""

    def __init__(self, fn: Callable[[np.ndarray, float], np.ndarray]):
        self.fn = fn

    def at(self, positions: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(positions, dtype=float), float(t)),
                          dtype=float)


def _as_drift(drift):
    if hasattr(drift, "at"):
        return drift
    if callable(drift):
        return CallableDrift(drift)
    raise TypeError("drift must expose .at(positions, t) or be callable")


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    # one child stream per path: ensembles are bit-identical for any batching
    ss = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _inverse_cdf_table(density: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    f = normalize(density)
    v, h = f.values, f.grid.spacing
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * h)))
    cdf /= cdf[-1]
    return cdf, f.grid.nodes


def _step_schedule(horizon: float, dt: float, record_times: np.ndarray):
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a whole number of steps of {dt}")
    if dt > horizon / 100.0 + 1e-15:
        raise ValueError("dt must not exceed horizon/100")
    rec = np.asarray(record_times, dtype=float)
    idx = np.round(rec / dt).astype(int)
    if np.any(np.abs(idx * dt - rec) > 1e-9) or np.any(idx < 0) or np.any(idx > n_steps):
        raise ValueError("record times must sit on the step lattice")
    return n_steps, idx


def _run_euler(drift_at, init_density: ScalarField, config: SDEConfig,
               horizon: float, record_taus: np.ndarray, domain: Grid1D,
               block_size: int) -> np.ndarray:
    n_steps, rec_idx = _step_schedule(horizon, config.dt, record_taus)
    cdf, nodes = _inverse_cdf_table(init_density)
    sig = np.sqrt(2.0 * config.nu * config.dt)
    lo, hi = domain.x_min, domain.x_max
    reflect = config.boundary_policy == "reflect"
    rec_at = {int(step): r for r, step in enumerate(rec_idx)}

    out = np.empty((config.n_paths, rec_idx.size))
    for start in range(0, config.n_paths, block_size):
        stop = min(start + block_size, config.n_paths)
        nb = stop - start
        uniforms = np.empty(nb)
        normals = np.empty((nb, n_steps))
        for j in range(nb):
            rng = _path_rng(config.seed, start + j)
            uniforms[j] = rng.random()
            normals[j] = rng.standard_normal(n_steps)
        x = np.interp(uniforms, cdf, nodes)
        if 0 in rec_at:
            out[start:stop, rec_at[0]] = x
        for k in range(n_steps):
            tau = k * config.dt
            x = x + drift_at(x, tau) * config.dt + sig * normals[:, k]
            if reflect:
                x = np.where(x > hi, 2.0 * hi - x, x)
                x = np.where(x < lo, 2.0 * lo - x, x)
                x = np.clip(x, lo, hi)
            else:
                x = np.where((x < lo) | (x > hi), np.nan, x)
            if (k + 1) in rec_at:
                out[start:stop, rec_at[k + 1]] = x
    return out


def _finish(out: np.ndarray, times: np.ndarray, config: SDEConfig,
            horizon: float) -> PathEnsemble:
    n_requested = out.shape[0]
    if config.boundary_policy == "absorb-and-discard":
        alive = ~np.isnan(out).any(axis=1)
        if alive.sum() < 0.9 * n_requested:
            raise BoundaryLeakError(
                f"only {alive.sum()} of {n_requested} paths stayed inside "
                "the domain; enlarge the box or tighten the drift")
        out = out[alive]
    return PathEnsemble(times=times, positions=out, config=config,
                        horizon=horizon, n_requested=n_requested)


def simulate_forward(drift, rho0: ScalarField, config: SDEConfig, horizon: float,
                     record_times: np.ndarray | None = None,
                     domain: Grid1D | None = None,
                     block_size: int = DEFAULT_BLOCK) -> PathEnsemble:
    """Euler-Maruyama paths of dX = b dt + sqrt(2 nu) dW started from rho0.

    Initial positions are drawn by inverse-CDF sampling of rho0 on its
    grid.  ``record_times`` (default: 11 uniform slices) must sit on the
    step lattice.  Reflection (default) folds overshoots back into the
    domain; the absorbing policy discards exited paths and raises if
    fewer than 90 percent survive.
    """
    drift = _as_drift(drift)
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 11)
    times = np.asarray(record_times, dtype=float)
    domain = domain or rho0.grid
    out = _run_euler(lambda x, tau: drift.at(x, tau), rho0, config, horizon,
                     times, domain, block_size)
    return _finish(out, times, config, horizon)


def simulate_backward(drift_star, rhoT: ScalarField, config: SDEConfig,
                      horizon: float, record_times: np.ndarray | None = None,
                      domain: Grid1D | None = None,
                      block_size: int = DEFAULT_BLOCK) -> PathEnsemble:
    """Reversed-clock paths dY = -b*(Y, T - tau) dtau + sqrt(2 nu) dW from rhoT.

    ``record_times`` are forward time labels; the returned ensemble's
    columns are ordered by increasing forward time, so slice(0.0) is the
    reconstructed start-time sample.
    """
    drift_star = _as_drift(drift_star)
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 11)
    times = np.sort(np.asarray(record_times, dtype=float))
    taus = horizon - times[::-1]
    domain = domain or rhoT.grid
    out = _run_euler(lambda y, tau: -drift_star.at(y, horizon - tau), rhoT,
                     config, horizon, taus, domain, block_size)
    return _finish(out[:, ::-1], times, config, horizon)


def empirical_density(ensemble: PathEnsemble, t: float, grid: Grid1D) -> ScalarField:
    """Node-centered histogram density of the recorded slice at time t."""
    samples = ensemble.slice(t)
    samples = samples[~np.isnan(samples)]
    h = grid.spacing
    edges = np.concatenate((grid.nodes - 0.5 * h, [grid.nodes[-1] + 0.5 * h]))
    counts, _ = np.histogram(samples, bins=edges)
    raw = ScalarField(grid, counts / (samples.size * h), time_label=t)
    return normalize(raw)


def cdf_from_field(density: ScalarField) -> Callable[[np.ndarray], np.ndarray]:
    """Cumulative trapezoid CDF of a gridded density, linearly interpolated."""
    cdf, nodes = _inverse_cdf_table(density)

    def cdf_fn(x):
        return np.interp(np.asarray(x, dtype=float), nodes, cdf, left=0.0,
                         right=1.0)

    return cdf_fn


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance between samples and a reference CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def _nu_per_slice(nu, times: np.ndarray) -> np.ndarray:
    if callable(nu):
        return np.asarray([float(nu(float(t))) for t in times])
    return np.full(times.size, float(nu))


def fokker_planck_residual(rho: FieldStack, drift: FieldStack | None, nu,
                           direction: str = "forward",
                           mask_floor: float = 1e-12) -> float:
    """Max interior residual of the forward or backward transport identity.

    forward:  d(rho)/dt + d(b rho)/dx - nu * lap(rho)
    backward: d(rho)/dt + d(b* rho)/dx + nu * lap(rho)

    ``nu`` may be a number or a function of time (time-dependent
    diffusivity).  Points with rho below ``mask_floor`` and the lattice
    borders are excluded.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    h = rho.grid.spacing
    drdt = np.gradient(rho.values, rho.times, axis=0, edge_order=2)
    if drift is None:
        flux = 0.0
    else:
        flux = gradient_values(drift.values * rho.values, h)
    lap = laplacian_values(rho.values, h)
    nu_t = _nu_per_slice(nu, rho.times)[:, None]
    sign = -1.0 if direction == "forward" else 1.0
    res = drdt + flux + sign * nu_t * lap
    window = np.abs(res[1:-1, 1:-1])
    keep = rho.values[1:-1, 1:-1] >= mask_floor
    return float(np.max(np.where(keep, window, 0.0)))


def material_derivative(f: FieldStack, drift: FieldStack, nu: float,
                        laplacian_sign: float) -> FieldStack:
    """df/dt + b * df/dx + sign * nu * lap(f) on the stack lattice."""
    h = f.grid.spacing
    vals = (np.gradient(f.values, f.times, axis=0, edge_order=2)
            + drift.values * gradient_values(f.values, h)
            + laplacian_sign * nu * laplacian_values(f.values, h))
    return FieldStack(f.grid, f.times, vals)


def conditional_derivatives(solution: BridgeSolution,
                            f: FieldStack) -> tuple[FieldStack, FieldStack]:
    """Forward and backward conditional derivatives of f along the bridge.

    D+ f = df/dt + b df/dx + nu lap(f);  D- f = df/dt + b* df/dx - nu lap(f).
    """
    if f.values.shape != solution.rho.shape:
        raise ValueError("field stack does not match the solution lattice")
    d_plus = material_derivative(f, solution.forward_drift_stack, solution.nu, +1.0)
    d_minus = material_derivative(f, solution.backward_drift_stack, solution.nu,
                                  -1.0)
    return d_plus, d_minus
