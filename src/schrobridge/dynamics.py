"""Path sampling and lattice residual diagnostics for the two SDEs.

The forward process follows dX = b(X, t) dt + sqrt(2 nu) dW from rho0;
the backward process follows the reversed-clock integration
dY = -b*(Y, T - tau) dtau + sqrt(2 nu) dW from rhoT.  Euler-Maruyama
stepping and node-centered histograms for empirical densities.  The ends
of the start density's grid are the walls, and they reflect every path.

Random numbers come from one PCG64 stream per fixed chunk of CHUNK
paths, spawned from the seed with the chunk index as its key.  Each
chunk draws its initial uniforms, then one vector of normals per step.
An ensemble is bit-identical for a given (seed, n_paths), whatever the
core count, and the paths of a full chunk do not depend on n_paths.

The caller steps all paths in lock-step: one call per step of the drift
b(x, t) (a lattice drift's ``FieldStack.at``, or a closed form) on the
float vector of all positions and a float time, so a drift must be
pointwise in x.  Worker threads (one fewer than the cores the process
may run on, at least one) draw each chunk's normals NOISE_ROWS steps
ahead into two (NOISE_ROWS, n_paths) buffers, while the caller steps
through the other block.  Draws no worker has started when the caller needs them run on
the caller, and while it waits for a started one it draws ahead for the
other chunks.

The residual engine discretizes the transport identity the
interpolating density and drifts must satisfy, in both Fokker-Planck
forms.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .grids import (FieldStack, Grid1D, ScalarField, gradient_values,
                    interior_max, laplacian_values, lattice_index, normalize,
                    time_derivative)

CHUNK = 8192
NOISE_ROWS = 16
RECORD_SLICES = 11


@dataclass(frozen=True)
class SDEConfig:
    """Euler-Maruyama run parameters."""

    nu: float = 1.0
    n_paths: int = 10_000
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PathEnsemble:
    """Recorded path positions; times are forward labels, increasing."""

    times: np.ndarray
    positions: np.ndarray
    n_requested: int

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    def slice(self, t: float) -> np.ndarray:
        return self.positions[:, lattice_index(self.times, t, "was not recorded")]


def _inverse_cdf_table(density: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    f = normalize(density)
    v, h = f.values, f.grid.spacing
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * h)))
    cdf /= cdf[-1]
    return cdf, f.grid.nodes


def step_schedule(horizon: float, dt: float, record_times: np.ndarray):
    """Step count and the step index of each record time on the dt lattice."""
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a whole number of steps of {dt}")
    if dt > horizon / 100.0 + 1e-15:
        raise ValueError("dt must not exceed horizon/100")
    rec = np.asarray(record_times, dtype=float)
    idx = np.round(rec / dt).astype(int)
    if np.any(np.abs(idx * dt - rec) > 1e-9) or np.any(idx < 0) or np.any(idx > n_steps):
        raise ValueError("record times must sit on the step lattice")
    if np.any(np.diff(idx) <= 0):
        raise ValueError(f"record times {rec.tolist()} must fall on strictly "
                         f"increasing steps of {dt}")
    return n_steps, idx


def cores() -> int:
    """Cores this process may run on: the sampler's worker threads and the
    CSV writers' formatting processes are sized from it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_normals(rng: np.random.Generator, rows: np.ndarray):
    for row in rows:
        rng.standard_normal(out=row)


def _run_euler(drift, init_density: ScalarField, config: SDEConfig,
               horizon: float, record_taus: np.ndarray) -> np.ndarray:
    n_steps, rec_idx = step_schedule(horizon, config.dt, record_taus)
    cdf, nodes = _inverse_cdf_table(init_density)
    sig = np.sqrt(2.0 * config.nu * config.dt)
    lo, hi = init_density.grid.x_min, init_density.grid.x_max
    rec_at = {int(step): r for r, step in enumerate(rec_idx)}

    n = config.n_paths
    x = np.empty(n)
    streams = []
    for chunk, start in enumerate(range(0, n, CHUNK)):
        part = slice(start, min(start + CHUNK, n))
        ss = np.random.SeedSequence(config.seed, spawn_key=(chunk,))
        rng = np.random.Generator(np.random.PCG64(ss))
        x[part] = np.interp(rng.random(part.stop - part.start), cdf, nodes)
        streams.append((rng, part))
    out = np.empty((n, rec_idx.size))
    if 0 in rec_at:
        out[:, rec_at[0]] = x
    noise = np.empty((2, NOISE_ROWS, n))

    def draw_ahead(chunk, first):
        # the chunk's normals for steps first .. first+NOISE_ROWS-1
        if first >= n_steps:
            return None
        rng, part = streams[chunk]
        draw = partial(_draw_normals, rng,
                       noise[first // NOISE_ROWS % 2, :n_steps - first, part])
        return pool.submit(draw), draw

    def settled(job):
        # whether a job's rows are drawn; rows no worker started are drawn here
        if job is None:
            return True
        future, draw = job
        if future.cancel():
            draw()
            return True
        if future.done():
            future.result()
            return True
        return False

    pool = ThreadPoolExecutor(max(1, cores() - 1))
    try:
        jobs = [draw_ahead(c, 0) for c in range(len(streams))]
        for first in range(0, n_steps, NOISE_ROWS):
            # A chunk's next block is submitted only once its current one is
            # drawn, so each generator draws one block at a time, in order.
            # Workers start jobs first in, first out, so the caller takes
            # jobs back from the end; while a worker finishes a chunk, the
            # caller draws the next block of the others.
            ahead = [None] * len(jobs)
            late = []
            for c in reversed(range(len(jobs))):
                if settled(jobs[c]):
                    ahead[c] = draw_ahead(c, first + NOISE_ROWS)
                else:
                    late.append(c)
            for c in late:
                for other in reversed(range(len(jobs))):
                    if jobs[c][0].done():
                        break
                    if settled(ahead[other]):
                        ahead[other] = None
                jobs[c][0].result()
                ahead[c] = draw_ahead(c, first + NOISE_ROWS)
            jobs = ahead
            block = noise[first // NOISE_ROWS % 2]
            for k in range(first, min(first + NOISE_ROWS, n_steps)):
                tau = k * config.dt
                x = x + drift(x, tau) * config.dt + sig * block[k - first]
                if not (x.min() >= lo and x.max() <= hi):  # NaN takes the folds
                    x = np.where(x > hi, 2.0 * hi - x, x)
                    x = np.where(x < lo, 2.0 * lo - x, x)
                    x = np.clip(x, lo, hi)
                if (k + 1) in rec_at:
                    out[:, rec_at[k + 1]] = x
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def simulate_forward(drift, rho0: ScalarField, config: SDEConfig, horizon: float,
                     record_times: np.ndarray | None = None) -> PathEnsemble:
    """Euler-Maruyama paths of dX = b dt + sqrt(2 nu) dW started from rho0.

    ``drift`` is b(x, t), e.g. a lattice drift's ``FieldStack.at``.
    Initial positions are drawn by inverse-CDF sampling of rho0 on its
    grid, whose ends are the walls.  ``record_times`` (default:
    RECORD_SLICES uniform slices) must sit on the step lattice.  A step
    that overshoots a wall is folded back between them, so no path is lost.
    """
    if not callable(drift):
        raise TypeError("drift must be a callable b(x, t), got a "
                        + type(drift).__name__)
    if record_times is None:
        record_times = np.linspace(0.0, horizon, RECORD_SLICES)
    times = np.asarray(record_times, dtype=float)
    out = _run_euler(drift, rho0, config, horizon, times)
    return PathEnsemble(times=times, positions=out, n_requested=config.n_paths)


def simulate_backward(drift_star, rhoT: ScalarField, config: SDEConfig,
                      horizon: float, record_times: np.ndarray | None = None,
                      ) -> PathEnsemble:
    """Reversed-clock paths dY = -b*(Y, T - tau) dtau + sqrt(2 nu) dW from rhoT.

    ``drift_star`` is b*(x, t); the walls are the ends of rhoT's grid and
    reflect, as in ``simulate_forward``.
    ``record_times`` are forward time labels; the returned ensemble's
    columns are ordered by increasing forward time, so slice(0.0) is the
    reconstructed start-time sample.
    """
    if not callable(drift_star):
        raise TypeError("drift_star must be a callable b*(x, t), got a "
                        + type(drift_star).__name__)
    if record_times is None:
        record_times = np.linspace(0.0, horizon, RECORD_SLICES)
    times = np.sort(np.asarray(record_times, dtype=float))
    taus = horizon - times[::-1]
    out = _run_euler(lambda y, tau: -drift_star(y, horizon - tau), rhoT,
                     config, horizon, taus)
    return PathEnsemble(times=times, positions=out[:, ::-1],
                        n_requested=config.n_paths)


def empirical_density(ensemble: PathEnsemble, t: float, grid: Grid1D) -> ScalarField:
    """Node-centered histogram density of the recorded slice at time t."""
    samples = ensemble.slice(t)
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
                           direction: str = "forward") -> float:
    """Max interior residual of the forward or backward transport identity.

    forward:  d(rho)/dt + d(b rho)/dx - nu * lap(rho)
    backward: d(rho)/dt + d(b* rho)/dx + nu * lap(rho)

    ``nu`` may be a number or a function of time (time-dependent
    diffusivity).  Points with rho below DENSITY_FLOOR and the lattice
    borders are excluded.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    h = rho.grid.spacing
    drdt = time_derivative(rho.values, rho.times)
    if drift is None:
        flux = 0.0
    else:
        flux = gradient_values(drift.values * rho.values, h)
    lap = laplacian_values(rho.values, h)
    nu_t = _nu_per_slice(nu, rho.times)[:, None]
    sign = -1.0 if direction == "forward" else 1.0
    res = drdt + flux + sign * nu_t * lap
    return interior_max(res, rho.values)
