from __future__ import annotations

import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from schrobridge import dynamics
from schrobridge import (BoundaryLeakError, FieldStack, Grid1D,
                         SDEConfig, ScalarField, cdf_from_field,
                         empirical_density, fokker_planck_residual,
                         ks_distance, make_kernel, normalize, sample_field,
                         simulate_backward, simulate_forward)
from schrobridge.packet import PACKET


def _rho0(grid: Grid1D) -> ScalarField:
    return normalize(sample_field(grid, PACKET.rho, 0.0))


# walls far from every path: the default spacing on a box five times wider
FAR_WALLS = Grid1D(-50.0, 50.0, 2561)


def _cfg(**kw) -> SDEConfig:
    base = dict(nu=1.0, n_paths=2000, dt=2e-3, seed=9)
    base.update(kw)
    return SDEConfig(**base)


# ---------------------------------------------------------- reproducibility


def test_same_seed_reproduces_paths_exactly():
    grid = Grid1D()
    a = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0)
    b = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(), 1.0)
    np.testing.assert_array_equal(a.positions, b.positions)


def _still(x, t):
    return np.zeros_like(x)


def test_chunk_streams_follow_the_documented_layout(monkeypatch):
    # with zero drift and far walls, step one is x0 + sig * the chunk's
    # first normals, drawn right after its initial uniforms
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    rho0 = _rho0(FAR_WALLS)
    cfg = _cfg(n_paths=2 * 64 + 17, dt=1e-2)
    ens = simulate_forward(_still, rho0, cfg, 1.0,
                           record_times=np.array([0.0, 0.01]))
    cdf, nodes = dynamics._inverse_cdf_table(rho0)
    sig = np.sqrt(2.0 * cfg.nu * cfg.dt)
    for chunk, (start, stop) in enumerate(((0, 64), (64, 128), (128, 145))):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed, spawn_key=(chunk,))))
        x0 = np.interp(rng.random(stop - start), cdf, nodes)
        x1 = x0 + sig * rng.standard_normal(stop - start)
        np.testing.assert_array_equal(ens.positions[start:stop, 0], x0)
        np.testing.assert_array_equal(ens.positions[start:stop, 1], x1)


def test_full_chunks_do_not_depend_on_n_paths(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    grid = Grid1D()
    runs = {n: simulate_forward(PACKET.drift_forward, _rho0(grid),
                                _cfg(n_paths=n), 1.0)
            for n in (64, 128, 2 * 64 + 17)}
    long = runs[2 * 64 + 17].positions
    np.testing.assert_array_equal(long[:64], runs[64].positions)
    np.testing.assert_array_equal(long[:128], runs[128].positions)


def test_chunks_do_not_share_increments(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    ens = simulate_forward(_still, _rho0(FAR_WALLS),
                           _cfg(n_paths=128, dt=1e-2), 1.0,
                           record_times=np.linspace(0.0, 1.0, 101))
    steps = np.diff(ens.positions, axis=1)
    first, second = steps[:64], steps[64:]
    assert np.intersect1d(first, second).size == 0
    assert np.intersect1d(ens.positions[:64, 0],
                          ens.positions[64:, 0]).size == 0
    # nor does a chunk reuse its own draws from path to path or step to step
    assert np.unique(first).size == first.size


def test_partial_last_chunk_records_every_path(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    grid = Grid1D()
    times = np.array([0.0, 0.5, 1.0])
    for simulate, drift, t0 in ((simulate_forward, PACKET.drift_forward, 0.0),
                                (simulate_backward, PACKET.drift_backward, 1.0)):
        start = normalize(sample_field(grid, PACKET.rho, t0))
        ens = simulate(drift, start, _cfg(n_paths=2 * 64 + 17), 1.0,
                       record_times=times)
        assert ens.positions.shape == (2 * 64 + 17, 3)
        assert ens.n_paths == ens.n_requested == 2 * 64 + 17
        assert np.all(np.isfinite(ens.positions))
        tail = ens.positions[128:]
        assert np.intersect1d(tail[:, 0], ens.positions[:128, 0]).size == 0


def test_absorbing_walls_drop_exactly_the_exited_paths(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    every_step = np.linspace(0.0, 1.0, 101)
    cfg = _cfg(n_paths=2 * 64 + 17, dt=1e-2, seed=3,
               boundary_policy="absorb-and-discard")
    rho0 = _rho0(Grid1D(-3.0, 3.0, 65))
    held = simulate_forward(PACKET.drift_forward, rho0, cfg, 1.0,
                            record_times=every_step)
    # the same paths with no walls at all
    free, _ = _per_chunk_reference(PACKET.drift_forward, rho0, cfg, 1.0,
                                   every_step, -np.inf, np.inf)
    inside = np.all(np.abs(free) <= 3.0, axis=1)
    assert 0 < held.n_requested - held.n_paths == np.sum(~inside)
    np.testing.assert_array_equal(held.positions, free[inside])


def test_interleaved_runs_share_no_rng_state(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    grid = Grid1D()
    rho0 = _rho0(grid)
    rhoT = normalize(sample_field(grid, PACKET.rho, 1.0))
    cfg = _cfg(n_paths=150, dt=1e-2)
    fwd = simulate_forward(PACKET.drift_forward, rho0, cfg, 1.0)
    bwd = simulate_backward(PACKET.drift_backward, rhoT, cfg, 1.0)

    inner = []

    def drift(x, t):
        # run the whole backward ensemble mid-way through the outer run
        if not inner and t >= 0.5:
            inner.append(simulate_backward(PACKET.drift_backward, rhoT, cfg,
                                           1.0))
        return PACKET.drift_forward(x, t)

    outer = simulate_forward(drift, rho0, cfg, 1.0)
    assert len(inner) == 1
    np.testing.assert_array_equal(outer.positions, fwd.positions)
    np.testing.assert_array_equal(inner[0].positions, bwd.positions)


def test_warm_forward_run_holds_no_per_step_noise():
    # the parent's (paths x steps) normals array alone was 8 MB here
    grid = Grid1D()
    rho0 = _rho0(grid)
    cfg = _cfg()
    simulate_forward(PACKET.drift_forward, rho0, cfg, 1.0)
    tracemalloc.start()
    try:
        ens = simulate_forward(PACKET.drift_forward, rho0, cfg, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.positions.shape == (2000, 11)
    assert peak < 1_000_000


def test_different_seed_changes_the_draws():
    grid = Grid1D()
    a = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(seed=1), 1.0)
    b = simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(seed=2), 1.0)
    assert np.max(np.abs(a.positions - b.positions)) > 0.1


# ------------------------------------------------------------- re cords


def test_record_lattice_and_slices():
    grid = Grid1D()
    times = np.array([0.0, 0.25, 1.0])
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(n_paths=64), 1.0, record_times=times)
    np.testing.assert_allclose(ens.times, times)
    assert ens.positions.shape == (64, 3)
    assert ens.slice(0.25).shape == (64,)
    with pytest.raises(ValueError, match="time 0.3 was not recorded"):
        ens.slice(0.3)


@pytest.mark.parametrize("kw, msg", [
    (dict(dt=3e-3), "whole number"),
    (dict(dt=2e-2), "horizon/100"),
])
def test_step_schedule_guards(kw, msg):
    grid = Grid1D()
    with pytest.raises(ValueError, match=msg):
        simulate_forward(PACKET.drift_forward, _rho0(grid),
                         _cfg(n_paths=8, **kw), 1.0)


def test_record_times_must_sit_on_the_step_lattice():
    grid = Grid1D()
    with pytest.raises(ValueError, match="step lattice"):
        simulate_forward(PACKET.drift_forward, _rho0(grid), _cfg(n_paths=8),
                         1.0, record_times=np.array([0.0, 0.12345e-1, 1.0]))


# ------------------------------------------------------------ statistics


def test_forward_variance_tracks_the_spreading_packet():
    grid = Grid1D()
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(n_paths=20000, seed=31), 1.0,
                           record_times=np.array([0.0, 0.5, 1.0]))
    for t, want in ((0.0, 1.0), (0.5, 1.25), (1.0, 2.0)):
        var = float(np.var(ens.slice(t)))
        assert var == pytest.approx(want, rel=0.05)


def test_backward_run_recovers_the_start_density():
    grid = Grid1D()
    rhoT = normalize(sample_field(grid, PACKET.rho, 1.0))
    ens = simulate_backward(PACKET.drift_backward, rhoT,
                            _cfg(n_paths=20000, seed=17), 1.0,
                            record_times=np.array([0.0, 0.5, 1.0]))
    assert ens.times[0] == pytest.approx(0.0)
    assert np.all(np.diff(ens.times) > 0.0)
    ks = ks_distance(ens.slice(0.0), lambda x: PACKET.rho_cdf(x, 0.0))
    assert ks < 0.02


def test_reflecting_walls_keep_paths_inside():
    grid = Grid1D(-3.0, 3.0, 129)
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(boundary_policy="reflect"), 1.0)
    assert np.min(ens.positions) >= -3.0
    assert np.max(ens.positions) <= 3.0
    assert ens.n_paths == 2000


def _per_chunk_reference(drift_at, start, cfg, horizon, record_taus, lo, hi):
    """The sequential per-chunk Euler loop: each chunk runs all its steps,
    one drift call and one vector of normals per step, before the next
    chunk starts.  Under reflect it folds on every step.  Also returns
    counts of the steps on which a chunk crossed the upper and the lower
    wall."""
    n_steps, rec_idx = dynamics.step_schedule(horizon, cfg.dt, record_taus)
    cdf, nodes = dynamics._inverse_cdf_table(start)
    sig = np.sqrt(2.0 * cfg.nu * cfg.dt)
    out = np.empty((cfg.n_paths, rec_idx.size))
    crossings = np.zeros(2, dtype=int)
    for chunk, begin in enumerate(range(0, cfg.n_paths, dynamics.CHUNK)):
        end = min(begin + dynamics.CHUNK, cfg.n_paths)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed, spawn_key=(chunk,))))
        x = np.interp(rng.random(end - begin), cdf, nodes)
        path = [x]
        for k in range(n_steps):
            x = (x + drift_at(x, k * cfg.dt) * cfg.dt
                 + sig * rng.standard_normal(end - begin))
            crossings += [np.any(x > hi), np.any(x < lo)]
            if cfg.boundary_policy == "reflect":
                x = np.where(x > hi, 2.0 * hi - x, x)
                x = np.where(x < lo, 2.0 * lo - x, x)
                x = np.clip(x, lo, hi)
            else:
                x = np.where((x < lo) | (x > hi), np.nan, x)
            path.append(x)
        out[begin:end] = np.stack(path, axis=1)[:, rec_idx]
    return out, crossings


def _same_bits(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _packet_with_a_hole(drift):
    # NaN on a narrow band, so a chunk can hold NaN paths next to paths
    # that overshoot a wall on the same step
    return lambda x, t: np.where(np.abs(x - 0.3) < 0.02, np.nan, drift(x, t))


@pytest.mark.parametrize("box", [(-2.0, 2.0), (-0.5, 3.0)])
@pytest.mark.parametrize("make_drift", [lambda d: d, _packet_with_a_hole],
                         ids=["packet", "packet-with-nan-band"])
def test_reflection_equals_the_three_pass_reference(monkeypatch, box,
                                                    make_drift):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    lo, hi = box
    domain = Grid1D(lo, hi, 65)
    times = np.linspace(0.0, 1.0, 101)
    cfg = _cfg(n_paths=2 * 64 + 17, dt=1e-2, seed=4)
    fwd_drift = make_drift(PACKET.drift_forward)
    bwd_drift = make_drift(PACKET.drift_backward)
    rho0 = _rho0(domain)
    rhoT = normalize(sample_field(domain, PACKET.rho, 1.0))

    fwd = simulate_forward(fwd_drift, rho0, cfg, 1.0, record_times=times)
    want, crossed = _per_chunk_reference(fwd_drift, rho0, cfg, 1.0, times,
                                         lo, hi)
    assert _same_bits(fwd.positions, want)
    # both walls are hit, and some chunk steps stay inside the box
    assert 0 < crossed.min() and crossed.max() < 3 * 100

    bwd = simulate_backward(bwd_drift, rhoT, cfg, 1.0, record_times=times)
    want, crossed = _per_chunk_reference(
        lambda y, tau: -bwd_drift(y, 1.0 - tau), rhoT, cfg, 1.0,
        1.0 - times[::-1], lo, hi)
    assert _same_bits(bwd.positions, want[:, ::-1])
    assert 0 < crossed.min() and crossed.max() < 3 * 100
    if make_drift is _packet_with_a_hole:
        assert np.isnan(fwd.positions).any() and np.isnan(bwd.positions).any()


# ------------------------------------------------------------ noise schedule


def _lock_step_case(simulate, policy, n_paths, n_steps):
    """One run and its per-chunk reference, recorded on every step."""
    lo, hi = -3.0, 3.0
    domain = Grid1D(lo, hi, 65)
    cfg = _cfg(n_paths=n_paths, dt=2.5e-3, seed=4, boundary_policy=policy)
    horizon = n_steps * cfg.dt
    times = np.arange(n_steps + 1) * cfg.dt
    if simulate is simulate_forward:
        drift, t0, taus = PACKET.drift_forward, 0.0, times
        drift_at = drift
    else:
        drift, t0, taus = PACKET.drift_backward, horizon, horizon - times[::-1]
        drift_at = lambda y, tau: -drift(y, horizon - tau)
    start = normalize(sample_field(domain, PACKET.rho, t0))
    got = simulate(drift, start, cfg, horizon, record_times=times)
    want, _ = _per_chunk_reference(drift_at, start, cfg, horizon, taus, lo, hi)
    if simulate is simulate_backward:
        want = want[:, ::-1]
    return got, want[~np.isnan(want).any(axis=1)]


@pytest.mark.parametrize("simulate", [simulate_forward, simulate_backward])
@pytest.mark.parametrize("policy", ["reflect", "absorb-and-discard"])
@pytest.mark.parametrize("n_paths", [1, 64, 2 * 64 + 17])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
def test_lock_step_runs_equal_the_per_chunk_loop(monkeypatch, simulate, policy,
                                                 n_paths, blocks, extra):
    # the step guard asks for at least 100 steps, so blocks of 128 rows
    # put the edges at NOISE_ROWS - 1, NOISE_ROWS, NOISE_ROWS + 1 and
    # 3 NOISE_ROWS + 5 steps in reach
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    monkeypatch.setattr(dynamics, "NOISE_ROWS", 128)
    got, want = _lock_step_case(simulate, policy, n_paths, blocks * 128 + extra)
    assert got.n_requested == n_paths
    assert _same_bits(got.positions, want)
    if policy == "absorb-and-discard" and n_paths > 1:
        assert got.n_paths < n_paths


class _StartedJob(Future):
    """A job a worker has started.  It finishes on the caller's
    ``finish_on``-th look at it (never, if None), or when the caller
    waits for it."""

    finish_on: int | None = None

    def __init__(self, fn):
        super().__init__()
        self.fn, self.looks = fn, 0
        self.set_running_or_notify_cancel()

    def _finish(self):
        if not super().done():
            self.set_result(self.fn())

    def done(self):
        self.looks += 1
        if self.looks == self.finish_on:
            self._finish()
        return super().done()

    def result(self, timeout=None):
        self._finish()
        return super().result(timeout)


class _ScriptedPool:
    """Workers on a script: of every three jobs submitted, one runs at
    once, one is left for the caller to take back and one is started
    but not finished."""

    offset = 0

    def __init__(self, max_workers):
        self.submitted = self.offset

    def submit(self, fn):
        self.submitted += 1
        if self.submitted % 3 == 0:
            return _StartedJob(fn)
        job = Future()
        if self.submitted % 3 == 1:
            job.set_running_or_notify_cancel()
            job.set_result(fn())
        return job

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("finish_on", [3, None])
@pytest.mark.parametrize("offset", [0, 1, 2])
def test_draws_run_ahead_taken_back_or_waited_for_keep_each_stream_in_order(
        monkeypatch, offset, finish_on):
    # three chunks per block, so each chunk meets every kind of job
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", _ScriptedPool)
    monkeypatch.setattr(_ScriptedPool, "offset", offset)
    monkeypatch.setattr(_StartedJob, "finish_on", finish_on)
    for simulate in (simulate_forward, simulate_backward):
        got, want = _lock_step_case(simulate, "reflect", 2 * 64 + 17, 100)
        assert _same_bits(got.positions, want)


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_ensembles_do_not_depend_on_the_core_count(monkeypatch, cores):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    monkeypatch.setattr(dynamics, "cores", lambda: cores)
    made = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", Pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often
    try:
        for simulate in (simulate_forward, simulate_backward):
            got, want = _lock_step_case(simulate, "reflect", 4 * 64 + 17, 200)
            assert _same_bits(got.positions, want)
    finally:
        sys.setswitchinterval(interval)
    assert made == [max(1, cores - 1)] * 2


def test_drift_sees_every_path_once_per_step(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    calls = []

    def drift(x, t):
        calls.append((x.size, t))
        return PACKET.drift_forward(x, t)

    cfg = _cfg(n_paths=2 * 64 + 17, dt=1e-2)
    simulate_forward(drift, _rho0(Grid1D()), cfg, 1.0)
    assert [size for size, _ in calls] == [2 * 64 + 17] * 100
    assert [t for _, t in calls] == [k * cfg.dt for k in range(100)]


def test_a_failing_drift_propagates_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(dynamics, "CHUNK", 64)
    monkeypatch.setattr(dynamics, "cores", lambda: 3)

    def drift(x, t):
        if t >= 0.5:
            raise RuntimeError("drift failed")
        return PACKET.drift_forward(x, t)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="drift failed"):
        simulate_forward(drift, _rho0(Grid1D()), _cfg(n_paths=4 * 64), 1.0)
    assert threading.active_count() == before


def test_absorbing_walls_discard_leaked_paths():
    grid = Grid1D(-6.0, 6.0, 129)
    ens = simulate_forward(PACKET.drift_forward, _rho0(grid),
                           _cfg(boundary_policy="absorb-and-discard",
                                n_paths=4000, seed=23), 1.0)
    assert ens.n_requested == 4000
    assert 0.9 * 4000 <= ens.n_paths <= 4000
    assert np.all(np.isfinite(ens.positions))


def test_heavy_leak_raises():
    tight = Grid1D(-0.5, 0.5, 65)
    with pytest.raises(BoundaryLeakError):
        simulate_forward(PACKET.drift_forward, _rho0(tight),
                         _cfg(boundary_policy="absorb-and-discard",
                              n_paths=500), 1.0)


@pytest.mark.parametrize("policy", ["reflect", "absorb-and-discard"])
@pytest.mark.parametrize("simulate, drift_fn, boundary_time", [
    (simulate_forward, PACKET.drift_forward, 0.0),
    (simulate_backward, PACKET.drift_backward, 1.0),
])
def test_lattice_drift_paths_equal_the_interp_reference(
        policy, simulate, drift_fn, boundary_time, interp_reference):
    grid = Grid1D(-4.0, 4.0, 65)
    stack = FieldStack.sample(grid, np.linspace(0.0, 1.0, 11), drift_fn)
    start = normalize(sample_field(grid, PACKET.rho, boundary_time))
    cfg = _cfg(n_paths=600, dt=1e-2, seed=5, boundary_policy=policy)
    got = simulate(stack.at, start, cfg, 1.0)
    want = simulate(lambda x, t: interp_reference(stack, x, t), start, cfg,
                    1.0)
    # the lookup follows the reference to a few ulps per step
    assert got.positions.shape == want.positions.shape
    np.testing.assert_allclose(got.positions, want.positions, rtol=0.0,
                               atol=1e-12)
    if policy == "absorb-and-discard":
        # absorbed paths carry NaN through the later lookups
        assert got.n_paths < got.n_requested


@pytest.mark.parametrize("simulate", [simulate_forward, simulate_backward])
def test_a_drift_that_is_not_callable_is_refused(simulate):
    grid = Grid1D(-4.0, 4.0, 65)
    start = normalize(sample_field(grid, PACKET.rho, 0.0))
    stack = FieldStack.sample(grid, np.array([0.0, 1.0]), PACKET.drift_forward)
    for drift in (0.5, stack):  # a lattice drift is passed as its .at
        with pytest.raises(TypeError, match="must be a callable"):
            simulate(drift, start, _cfg(n_paths=10, dt=1e-2), 1.0)


def test_bad_policy_is_rejected():
    with pytest.raises(ValueError):
        SDEConfig(boundary_policy="bounce")


@pytest.mark.parametrize("nu", [np.inf, np.nan, 0.0])
def test_a_non_finite_or_non_positive_nu_is_rejected(nu):
    # an infinite nu would fold every path onto the walls
    with pytest.raises(ValueError, match="nu must be positive and finite"):
        SDEConfig(nu=nu)


# ------------------------------------------------------- density helpers


def test_empirical_density_mass_and_placement():
    grid = Grid1D(0.0, 4.0, 5)
    times = np.array([0.0, 1.0])
    pos = np.array([[1.0, 1.0], [1.0, 3.0], [3.0, 3.0], [1.0, 3.0]])
    from schrobridge.dynamics import PathEnsemble
    ens = PathEnsemble(times=times, positions=pos, n_requested=4)
    f = empirical_density(ens, 0.0, grid)
    assert float(grid.weights @ f.values) == pytest.approx(1.0, abs=1e-12)
    # three paths in the bin at x=1, one at x=3, bin width 1
    np.testing.assert_allclose(f.values, [0.0, 0.75, 0.0, 0.25, 0.0])


def test_cdf_from_field_is_linear_for_uniform_density():
    grid = Grid1D(0.0, 2.0, 41)
    uni = ScalarField(grid, np.full(41, 0.5))
    cdf = cdf_from_field(uni)
    probes = np.array([0.0, 0.5, 1.0, 1.7, 2.0])
    np.testing.assert_allclose(cdf(probes), probes / 2.0, atol=1e-12)


def test_ks_distance_frozen_two_point_case():
    samples = np.array([0.25, 0.75])
    assert ks_distance(samples, lambda x: x) == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------ residual engines


def test_fokker_planck_residual_direction_guard():
    grid = Grid1D(-6.0, 6.0, 101)
    stack = FieldStack.sample(grid, np.linspace(0.2, 1.0, 9), PACKET.rho)
    with pytest.raises(ValueError):
        fokker_planck_residual(stack, None, 1.0, direction="sideways")


def test_fokker_planck_residual_zero_drift_heat_flow():
    # rho(x, t) spreading from the origin with nu = 0.5, no drift
    def heat(x, t):
        var = 2.0 * 0.5 * t
        return np.exp(-x * x / (2 * var)) / np.sqrt(2 * np.pi * var)

    errs = []
    for n_x, n_t in ((201, 41), (401, 81)):
        grid = Grid1D(-8.0, 8.0, n_x)
        stack = FieldStack.sample(grid, np.linspace(0.5, 1.5, n_t), heat)
        errs.append(fokker_planck_residual(stack, None, 0.5))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] < 1e-3


def test_fokker_planck_residual_accepts_time_dependent_diffusivity():
    # the squared-time kernel marginal solves d rho / dt = t lap rho
    k = make_kernel("example1")
    grid = Grid1D(-8.0, 8.0, 301)
    times = np.linspace(0.5, 1.0, 41)
    stack = FieldStack.sample(grid, times,
                              lambda x, t: k.evaluate(0.0, 0.2, x, t))
    res_good = fokker_planck_residual(stack, None, lambda t: t)
    res_bad = fokker_planck_residual(stack, None, 1.0)
    assert res_good < 2e-2
    assert res_bad > 50 * res_good
