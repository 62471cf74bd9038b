"""Command-line entry point: batch scenario runs with deterministic outputs.

Subcommands
-----------
run               execute a pipeline described by a JSON config file
bridge-solve      solve the boundary factor system for a kernel + densities
simulate          sample forward/backward paths for a scenario or config
burgers-residual  refinement study of the forced Burgers residual
kernel-check-ck   Chapman-Kolmogorov consistency probe for one kernel
gallery           run a named gallery suite
list-scenarios    print the known gallery scenario names

Every other subcommand builds one ScenarioConfig and runs the core of
its pipeline.  Each flag sets one config key (``FLAG_KEYS``); a flag the
user gave wins over the --config file, which wins over the default of
the code that reads the key.

Exit codes: 0 success; 2 config/parse/validation problem; 3 missing
or unreadable input file; 4 a numerical check failed; 5 numeric-domain
error during computation; 6 output could not be written.  The default
output directory is $SCHROBRIDGE_OUT or ./schrobridge-out; reports carry
no timestamps, so reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .bridge import (IPF_MAX_SWEEPS, MASS_DRIFT_TOL, BoundaryData,
                     propagate_factors, solve_boundary_system)
from .burgers import burgers_residual
from .dynamics import (RECORD_SLICES, SDEConfig, simulate_backward,
                       simulate_forward, step_schedule)
from .errors import (ConfigError, MissingInputError, NumericDomainError,
                     SchrobridgeError)
from .grids import FieldStack, Grid1D, normalize, sample_field
from .kernels import check_chapman_kolmogorov
from .packet import PACKET
from .report import RunReport
from .scenario import (ScenarioConfig, density_from_spec, kernel_from_config,
                       load_scenario, write_density_csv, write_field_csv,
                       write_paths_csv, write_report)
from . import gallery

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_CHECK_FAILED = 4
EXIT_NUMERIC = 5
EXIT_OUTPUT = 6
ENV_OUT = "SCHROBRIDGE_OUT"
# the config keys and sections a bridge solve reads
_BRIDGE_READS = {"kernel", "boundary", "horizon", "grid", "time_slices",
                 "ipf_tol"}


def _refuse_unread(cfg: ScenarioConfig, reads: set, reader: str):
    """Refuse, by flag and key, the first given key that ``reader`` reads
    neither itself nor by its section (every run reads pipeline, output_dir)."""
    for key in sorted(cfg.given - {"pipeline", "output_dir"}):
        if not {key, key.partition(".")[0]} & reads:
            raise ConfigError(f"{_NAMED.get(key, key)} is not read by {reader}")


def _emit(report: RunReport, outdir: Path, stem: str) -> int:
    write_report(outdir / f"{stem}.txt", report)
    print(report.render_text())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def density_spec(text: str) -> dict:
    """The config density spec of a --rho0 / --rhoT value."""
    if text.endswith(".csv"):
        return {"csv": text}
    if text.startswith("gaussian:"):
        parts = text[len("gaussian:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(
                f"gaussian density spec must be gaussian:mean,var, got {text!r}")
        return {"form": "gaussian", "mean": float(parts[0]),
                "var": float(parts[1])}
    raise ConfigError(f"cannot parse density spec {text!r}; "
                      "use gaussian:mean,var or a .csv path")


# -- pipeline cores, one per config pipeline ---------------------------------

def run_gallery_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    paths = cfg.scenario == "quantum-free"  # the one suite that draws paths
    _refuse_unread(cfg, {"scenario", "grid.n_points"}
                   | ({"sde.n_paths", "sde.seed"} if paths else set()),
                   f"the {cfg.scenario} suite")
    options = {"grid_points": cfg.grid.get("n_points"),
               "n_paths": cfg.sde.get("n_paths"), "seed": cfg.sde.get("seed")}
    report = gallery.run_scenario(
        cfg.scenario, **{k: v for k, v in options.items() if v is not None})
    return _emit(report, outdir, f"{cfg.scenario}-report")


def _solve_bridge(cfg: ScenarioConfig, grid: Grid1D, callback=None):
    """Boundary data, IPF factors and bridge of a config.

    The kernel's propagator is built once for the config's slice lattice;
    IPF and the factor sweep both take it, and IPF alone builds K(0, T).
    """
    kernel = kernel_from_config(cfg.kernel, grid=grid)
    if getattr(kernel, "start", 0.0) > 0.0:
        raise ConfigError(f"anchor_s (--anchor-s) = {kernel.start:g} > 0, but "
                          "the slice lattice starts at t = 0")
    rho0 = density_from_spec(cfg.boundary.get("rho0"), grid, cfg.base_dir, 0.0)
    rhoT = density_from_spec(cfg.boundary.get("rhoT"), grid, cfg.base_dir,
                             cfg.horizon)
    boundary = BoundaryData(rho0=rho0, rhoT=rhoT)
    propagator = kernel.propagator(grid, cfg.make_times())
    factors = solve_boundary_system(propagator, boundary, tol=cfg.ipf_tol,
                                    callback=callback)
    return boundary, factors, propagate_factors(factors, propagator)


def run_bridge_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    if cfg.boundary is None:
        raise ConfigError("bridge-solve needs a 'boundary' section")
    _refuse_unread(cfg, _BRIDGE_READS, "bridge-solve")
    grid = cfg.make_grid()
    sweeps: list[tuple[int, float]] = []
    boundary, factors, solution = _solve_bridge(
        cfg, grid, callback=lambda k, res: sweeps.append((k, res)))

    report = RunReport(scenario="bridge-solve", config={
        "kernel": cfg.kernel.get("tag"), "grid_points": grid.n_points,
        "horizon": cfg.horizon, "ipf_tol": cfg.ipf_tol})
    report.add("ipf-sweeps", float(len(sweeps)), upper=float(IPF_MAX_SWEEPS),
               detail=f"last marginal residual {sweeps[-1][1]:.3e}")
    report.add("boundary-recovery-l1", float(grid.weights @ np.abs(
        solution.rho.values[0] - boundary.rho0.values)), upper=1e-6)

    write_density_csv(outdir / "u0.csv", factors.u0)
    write_density_csv(outdir / "vT.csv", factors.vT)
    write_field_csv(outdir / "rho.csv", solution.rho)
    write_field_csv(outdir / "drift-forward.csv", solution.b)
    write_field_csv(outdir / "drift-backward.csv", solution.b_star)
    report.add("interpolation-mass-drift",
               float(np.max(np.abs(solution.masses - 1.0))),
               upper=MASS_DRIFT_TOL)
    return _emit(report, outdir, "bridge-report")


def run_simulate_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    sde = dict(cfg.sde)
    direction = sde.pop("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError("sde.direction must be 'forward' or 'backward'")
    forward = direction == "forward"
    # checked before any solve; the nu of the paths comes with the drift
    config = SDEConfig(**sde)
    along_bridge = cfg.boundary is not None  # else along a scenario's drift
    _refuse_unread(cfg, {"sde"} | (_BRIDGE_READS if along_bridge else
                                   {"scenario", "horizon", "grid"}),
                   "simulate " + ("with" if along_bridge else "without")
                   + " a boundary section")
    grid = cfg.make_grid()
    record = np.linspace(0.0, cfg.horizon, RECORD_SLICES)
    step_schedule(cfg.horizon, config.dt, record)

    if along_bridge:
        # bridge-driven run: solve the factor system, then ride its drift
        boundary, _, solution = _solve_bridge(cfg, grid)
        start = boundary.rho0 if forward else boundary.rhoT
        drift = solution.b.at if forward else solution.b_star.at
        rho_ref, nu = solution.rho, solution.kernel.nu
    elif cfg.scenario == "quantum-free":
        if abs(cfg.horizon - 1.0) > 1e-12:
            raise ConfigError("the quantum-free scenario uses horizon 1.0")
        start = normalize(sample_field(grid, PACKET.rho,
                                       0.0 if forward else cfg.horizon))
        drift = PACKET.drift_forward if forward else PACKET.drift_backward
        rho_ref, nu = FieldStack.sample(grid, record, PACKET.rho), 1.0
    else:
        raise ConfigError(
            f"scenario {cfg.scenario!r} has no constant-diffusivity process "
            "to simulate; use quantum-free or provide a boundary section")
    config = dataclasses.replace(config, nu=nu)
    report = RunReport(scenario="simulate", config={
        "direction": direction, "n_paths": config.n_paths, "dt": config.dt,
        "seed": config.seed})
    simulate = simulate_forward if forward else simulate_backward
    ens = simulate(drift, start, config, cfg.horizon, record_times=record)

    write_paths_csv(outdir / "paths.csv", ens)
    report.add("surviving-paths", float(ens.n_paths),
               lower=0.9 * config.n_paths)
    nodes, w = grid.nodes, grid.weights
    for t_probe in (0.0, cfg.horizon):
        v_emp = float(np.var(ens.slice(t_probe)))
        rho_slice = rho_ref.slice(t_probe).values
        mean_ref = float(w @ (nodes * rho_slice))
        v_ref = float(w @ ((nodes - mean_ref) ** 2 * rho_slice))
        report.add(f"variance-at-{t_probe:g}", abs(v_emp - v_ref) / v_ref,
                   upper=0.1, detail=f"empirical {v_emp:.4f} vs {v_ref:.4f}")
    return _emit(report, outdir, "simulate-report")


def run_burgers_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    if cfg.scenario != "quantum-free":
        raise ConfigError("burgers-residual supports the quantum-free scenario")
    _refuse_unread(cfg, {"scenario"}, "burgers-residual")
    report = RunReport(scenario="burgers-residual",
                       config={"scenario": cfg.scenario})
    levels = []
    for n_x, n_t in ((201, 41), (401, 81)):
        grid = Grid1D(-10.0, 10.0, n_x)
        times = np.linspace(0.0, 1.0, n_t)
        vel = FieldStack.sample(grid, times, PACKET.drift_backward)
        force = FieldStack.sample(grid, times, PACKET.force)
        rho = FieldStack.sample(grid, times, PACKET.rho)
        levels.append(burgers_residual(vel, nu=1.0, force=force, rho=rho))
    report.add("residual-fine", levels[1], upper=1e-2,
               detail="forced equation for the backward drift")
    report.add("residual-refinement", levels[0] / levels[1],
               lower=3.5, upper=4.5, detail="second-order step shrink")
    return _emit(report, outdir, "burgers-report")


def run_ck_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    _refuse_unread(cfg, {"kernel", "grid", "ck"}, "kernel-check-ck")
    grid = cfg.make_grid()
    kernel = kernel_from_config(cfg.kernel, grid=grid)
    s = float(cfg.ck.get("s", 0.0))
    tau = float(cfg.ck.get("tau", 0.5))
    t = float(cfg.ck.get("t", 1.0))
    threshold = float(cfg.ck.get("threshold", 1e-6))
    start = getattr(kernel, "start", 0.0)
    if start > 0.0 and s < start:
        raise ConfigError(f"ck s (--s) = {s:g} is before the markov-family "
                          f"anchor_s (--anchor-s) = {start:g}, its first time")
    residual = check_chapman_kolmogorov(kernel, s, tau, t, grid)
    report = RunReport(scenario="kernel-check-ck", config={
        "kernel": cfg.kernel.get("tag"), "s": s, "tau": tau, "t": t})
    report.add("chapman-kolmogorov", residual, upper=threshold,
               detail=f"probe triple ({s}, {tau}, {t})")
    return _emit(report, outdir, "ck-report")


_PIPELINE_CORES = {
    "gallery": run_gallery_pipeline,
    "bridge-solve": run_bridge_pipeline,
    "simulate": run_simulate_pipeline,
    "burgers-residual": run_burgers_pipeline,
    "kernel-check-ck": run_ck_pipeline,
}


def _run(args) -> int:
    """Every subcommand but list-scenarios: the --config file, if any, with
    each flag the user gave set over it, run by its pipeline's core."""
    given = {key: value for key, value in vars(args).items()
             if value is not None}
    command, path = given.pop("command"), given.pop("config", None)
    if command != "run":
        given["pipeline"] = command
    cfg = load_scenario(path, given)
    # the writers make the directory, so a refused run leaves none; one
    # they could not make is refused here, before any work
    outdir = Path(cfg.output_dir or os.environ.get(ENV_OUT) or "schrobridge-out")
    existing = outdir.absolute()
    while not os.path.lexists(existing):
        existing = existing.parent
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise OSError(f"cannot make output directory {outdir}: {existing} "
                      "is not a writable directory")
    return _PIPELINE_CORES[cfg.pipeline](cfg, outdir)


# the config key each flag sets when given, and the type of its value; a
# flag has no default, so an absent key takes the default of its reader
FLAG_KEYS = {
    "--out": ("output_dir", str), "--scenario": ("scenario", str),
    "--horizon": ("horizon", float), "--time-slices": ("time_slices", int),
    "--tol": ("ipf_tol", float), "--x-min": ("grid.x_min", float),
    "--x-max": ("grid.x_max", float), "--grid-points": ("grid.n_points", int),
    "--kernel": ("kernel.tag", str), "--nu": ("kernel.nu", float),
    "--anchor-y": ("kernel.anchor_y", float),
    "--anchor-s": ("kernel.anchor_s", float),
    "--rho0": ("boundary.rho0", density_spec),
    "--rhoT": ("boundary.rhoT", density_spec),
    "--n-paths": ("sde.n_paths", int), "--dt": ("sde.dt", float),
    "--seed": ("sde.seed", int), "--direction": ("sde.direction", str),
    "--s": ("ck.s", float), "--tau": ("ck.tau", float), "--t": ("ck.t", float),
    "--threshold": ("ck.threshold", float),
}
# a key as errors name it: by its flag too when it has one
_NAMED = {key: f"{flag} ({key})" for flag, (key, _) in FLAG_KEYS.items()}


def _flags(p: argparse.ArgumentParser, flags, options: dict | None = None):
    """Add ``flags``; ``options[flag]`` holds more add_argument keywords."""
    for flag in flags:
        key, kind = FLAG_KEYS[flag]
        p.add_argument(flag, dest=key, type=kind,
                       **(options or {}).get(flag, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrobridge",
        description="boundary-data bridge toolkit for 1-D diffusions")
    sub = parser.add_subparsers(dest="command", required=True)
    kernel_flags = ("--kernel", "--nu", "--anchor-y", "--anchor-s")
    kernel_help = {"--nu": {"help": "heat only"},
                   "--anchor-y": {"help": "markov-family only"},
                   "--anchor-s": {"help": "markov-family only"}}

    run_p = sub.add_parser("run", help="execute a JSON scenario config")
    run_p.add_argument("--config", required=True, help="path to the JSON file")
    _flags(run_p, ("--out", "--seed", "--grid-points", "--tol"), {
        "--out": {"help": "output directory"},
        "--tol": {"help": "IPF convergence tolerance override"}})

    br = sub.add_parser("bridge-solve", help="solve the boundary factor system")
    _flags(br, kernel_flags + (
        "--rho0", "--rhoT", "--horizon", "--x-min", "--x-max", "--grid-points",
        "--time-slices", "--tol", "--out"), {
        "--rho0": {"required": True,
                   "help": "gaussian:mean,var or a two-column CSV path"},
        "--rhoT": {"required": True}, **kernel_help})

    sim = sub.add_parser("simulate", help="sample SDE paths")
    sim.add_argument("--config",
                     help="bridge config to drive the drift (optional)")
    _flags(sim, ("--scenario", "--direction", "--n-paths", "--dt", "--seed",
                 "--grid-points", "--out"),
           {"--direction": {"choices": ("forward", "backward")}})

    bur = sub.add_parser("burgers-residual",
                         help="refinement study of the forced Burgers residual")
    _flags(bur, ("--scenario", "--out"))

    ck = sub.add_parser("kernel-check-ck",
                        help="Chapman-Kolmogorov consistency probe")
    _flags(ck, kernel_flags + ("--s", "--tau", "--t", "--grid-points",
                               "--threshold", "--out"),
           {"--kernel": {"required": True}, **kernel_help})

    gal = sub.add_parser("gallery", help="run a named gallery suite")
    gal.add_argument("scenario", choices=gallery.scenario_names())
    _flags(gal, ("--grid-points", "--n-paths", "--seed", "--out"))

    sub.add_parser("list-scenarios", help="print gallery scenario names")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list-scenarios":
            print("\n".join(gallery.scenario_names()))
            return EXIT_OK
        return _run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as e:
        print(f"missing input: {e}", file=sys.stderr)
        return EXIT_MISSING
    except NumericDomainError as e:
        print(f"numeric-domain error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except SchrobridgeError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # an unreadable input raises MissingInputError
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
