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

Exit codes: 0 success; 2 config/parse/validation problem; 3 missing
or unreadable input file; 4 a numerical check failed; 5 numeric-domain
error during computation; 6 output could not be written.  The default
output directory is $SCHROBRIDGE_OUT or ./schrobridge-out; reports carry
no timestamps, so reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bridge import (MASS_DRIFT_TOL, BoundaryData, propagate_factors,
                     solve_boundary_system)
from .burgers import burgers_residual
from .dynamics import (SDEConfig, simulate_backward, simulate_forward,
                       step_schedule)
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


def _resolve_outdir(explicit: str | None) -> Path:
    out = Path(explicit or os.environ.get(ENV_OUT) or "schrobridge-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(report: RunReport, outdir: Path, stem: str) -> int:
    write_report(outdir / f"{stem}.txt", report)
    print(report.render_text())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _parse_density_arg(text: str) -> dict:
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


# -- pipeline cores (shared by `run` and the direct subcommands) ----------

def run_gallery_pipeline(name: str, outdir: Path, grid_points: int | None = None,
                         n_paths: int | None = None,
                         seed: int | None = None) -> int:
    for flag, value in (("--n-paths (sde.n_paths)", n_paths),
                        ("--seed (sde.seed)", seed)):
        if value is not None and name != "quantum-free":
            raise ConfigError(f"{flag} applies only to the quantum-free suite; "
                              f"{name} draws no paths")
    options = {"grid_points": grid_points, "n_paths": n_paths, "seed": seed}
    report = gallery.run_scenario(
        name, **{k: v for k, v in options.items() if v is not None})
    return _emit(report, outdir, f"{name}-report")


def _solve_bridge(cfg: ScenarioConfig, grid: Grid1D, callback=None):
    """Boundary data, propagator, IPF factors and bridge of a config.

    The kernel's propagator is built once for the config's slice lattice:
    IPF iterates on its K(0, T) and the factors are swept through it.
    """
    kernel = kernel_from_config(cfg.kernel, grid=grid)
    if getattr(kernel, "start", 0.0) > 0.0:
        raise ConfigError(f"anchor_s (--anchor-s) = {kernel.start:g} > 0, but "
                          "the slice lattice starts at t = 0")
    rho0 = density_from_spec(cfg.boundary.get("rho0"), grid, cfg.base_dir, 0.0)
    rhoT = density_from_spec(cfg.boundary.get("rhoT"), grid, cfg.base_dir,
                             cfg.horizon)
    boundary = BoundaryData(rho0=rho0, rhoT=rhoT, horizon=cfg.horizon)
    propagator = kernel.propagator(grid, cfg.make_times())
    factors = solve_boundary_system(propagator.matrix, boundary,
                                    tol=cfg.ipf_tol, callback=callback)
    solution = propagate_factors(factors, propagator)
    return boundary, propagator, factors, solution


def run_bridge_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    if cfg.boundary is None:
        raise ConfigError("bridge-solve needs a 'boundary' section")
    grid = cfg.make_grid()
    sweeps: list[tuple[int, float, float]] = []
    boundary, propagator, factors, solution = _solve_bridge(
        cfg, grid, callback=lambda k, ch, res: sweeps.append((k, ch, res)))

    report = RunReport(scenario="bridge-solve", config={
        "kernel": cfg.kernel.get("tag"), "grid_points": grid.n_points,
        "horizon": cfg.horizon, "ipf_tol": cfg.ipf_tol})
    report.add("ipf-sweeps", float(len(sweeps)), upper=500.0,
               detail=f"last change {sweeps[-1][1]:.3e}")
    recovered0 = factors.u0.values * propagator.matrix.apply_target(
        factors.vT.values)
    l1 = float(grid.weights @ np.abs(recovered0 - boundary.rho0.values))
    report.add("boundary-recovery-l1", l1, upper=1e-6)

    write_density_csv(outdir / "u0.csv", factors.u0)
    write_density_csv(outdir / "vT.csv", factors.vT)
    write_field_csv(outdir / "rho.csv", solution.rho_stack)
    write_field_csv(outdir / "drift-forward.csv", solution.forward_drift_stack)
    write_field_csv(outdir / "drift-backward.csv",
                    solution.backward_drift_stack)
    report.add("interpolation-mass-drift",
               float(np.max(np.abs(solution.masses - 1.0))),
               upper=MASS_DRIFT_TOL)
    return _emit(report, outdir, "bridge-report")


def run_simulate_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    sde = cfg.sde
    # checked before any solve; the nu of the paths comes with the drift
    config = SDEConfig(
        n_paths=int(sde.get("n_paths", 10_000)),
        dt=float(sde.get("dt", 1e-3)), seed=int(sde.get("seed", 0)),
        boundary_policy=sde.get("boundary_policy", "reflect"))
    direction = sde.get("direction", "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError("sde.direction must be 'forward' or 'backward'")
    forward = direction == "forward"
    grid = cfg.make_grid()
    record = np.linspace(0.0, cfg.horizon, 11)
    step_schedule(cfg.horizon, config.dt, record)

    if cfg.boundary is not None:
        # bridge-driven run: solve the factor system, then ride its drift
        boundary, _, _, solution = _solve_bridge(cfg, grid)
        start = boundary.rho0 if forward else boundary.rhoT
        drift = (solution.forward_drift_stack if forward
                 else solution.backward_drift_stack)
        rho_ref, nu = solution.rho_stack, solution.nu
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
    config = replace(config, nu=nu)
    report = RunReport(scenario="simulate", config={
        "direction": direction, "n_paths": config.n_paths, "dt": config.dt,
        "seed": config.seed, "policy": config.boundary_policy})
    simulate = simulate_forward if forward else simulate_backward
    ens = simulate(drift, start, config, cfg.horizon, record_times=record)

    write_paths_csv(outdir / "paths.csv", ens)
    report.add("surviving-paths", float(ens.n_paths),
               lower=0.9 * config.n_paths)
    for t_probe in (0.0, cfg.horizon):
        samples = ens.slice(t_probe)
        v_emp = float(np.var(samples))
        k = rho_ref.slice_index(t_probe)
        nodes = grid.nodes
        w = grid.weights
        rho_slice = rho_ref.values[k]
        mean_ref = float(w @ (nodes * rho_slice))
        v_ref = float(w @ ((nodes - mean_ref) ** 2 * rho_slice))
        report.add(f"variance-at-{t_probe:g}", abs(v_emp - v_ref) / v_ref,
                   upper=0.1, detail=f"empirical {v_emp:.4f} vs {v_ref:.4f}")
    return _emit(report, outdir, "simulate-report")


def run_burgers_pipeline(cfg: ScenarioConfig, outdir: Path) -> int:
    if cfg.scenario != "quantum-free":
        raise ConfigError("burgers-residual supports the quantum-free scenario")
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
    "bridge-solve": run_bridge_pipeline,
    "simulate": run_simulate_pipeline,
    "burgers-residual": run_burgers_pipeline,
    "kernel-check-ck": run_ck_pipeline,
}


# -- argparse handlers ------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    if args.grid_points is not None:
        cfg.grid["n_points"] = args.grid_points
    if args.seed is not None:
        cfg.sde["seed"] = args.seed
    if args.tol is not None:
        cfg.ipf_tol = args.tol
    outdir = _resolve_outdir(args.out or cfg.output_dir)
    if cfg.pipeline == "gallery":
        return run_gallery_pipeline(
            cfg.scenario, outdir, grid_points=cfg.grid.get("n_points"),
            n_paths=cfg.sde.get("n_paths"), seed=cfg.sde.get("seed"))
    return _PIPELINE_CORES[cfg.pipeline](cfg, outdir)


def _kernel_section(args) -> dict:
    """Kernel config from the --kernel flag and the flags of its parameters."""
    params = {"heat": {"nu": args.nu}, "markov-family": {
        "anchor_y": args.anchor_y, "anchor_s": args.anchor_s}}
    return {"tag": args.kernel, **params.get(args.kernel, {})}


def _cmd_bridge_solve(args) -> int:
    cfg = ScenarioConfig(
        pipeline="bridge-solve", kernel=_kernel_section(args),
        boundary={"rho0": _parse_density_arg(args.rho0),
                  "rhoT": _parse_density_arg(args.rhoT)},
        horizon=args.horizon,
        grid={"x_min": args.x_min, "x_max": args.x_max,
              "n_points": args.grid_points},
        time_slices=args.time_slices, ipf_tol=args.tol)
    return run_bridge_pipeline(cfg, _resolve_outdir(args.out))


def _cmd_simulate(args) -> int:
    if args.config:
        cfg = load_scenario(args.config)
        if cfg.pipeline != "simulate":
            cfg.pipeline = "simulate"
    else:
        cfg = ScenarioConfig(pipeline="simulate", scenario=args.scenario,
                             grid={"n_points": args.grid_points})
    cfg.sde.setdefault("direction", args.direction)
    if args.n_paths is not None:
        cfg.sde["n_paths"] = args.n_paths
    if args.dt is not None:
        cfg.sde["dt"] = args.dt
    if args.seed is not None:
        cfg.sde["seed"] = args.seed
    return run_simulate_pipeline(cfg, _resolve_outdir(args.out))


def _cmd_burgers(args) -> int:
    cfg = ScenarioConfig(pipeline="burgers-residual", scenario=args.scenario)
    return run_burgers_pipeline(cfg, _resolve_outdir(args.out))


def _cmd_ck(args) -> int:
    cfg = ScenarioConfig(
        pipeline="kernel-check-ck", kernel=_kernel_section(args),
        grid={"n_points": args.grid_points},
        ck={"s": args.s, "tau": args.tau, "t": args.t,
            "threshold": args.threshold})
    return run_ck_pipeline(cfg, _resolve_outdir(args.out))


def _cmd_gallery(args) -> int:
    return run_gallery_pipeline(args.name, _resolve_outdir(args.out),
                                grid_points=args.grid_points,
                                n_paths=args.n_paths, seed=args.seed)


def _cmd_list(args) -> int:
    for name in gallery.scenario_names():
        print(name)
    return EXIT_OK


def _add_kernel_flags(p: argparse.ArgumentParser, **kernel_opts):
    p.add_argument("--kernel", **kernel_opts)
    p.add_argument("--nu", type=float, default=1.0, help="heat only")
    for flag in ("--anchor-y", "--anchor-s"):
        p.add_argument(flag, type=float, default=0.0, help="markov-family only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrobridge",
        description="boundary-data bridge toolkit for 1-D diffusions")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a JSON scenario config")
    run_p.add_argument("--config", required=True, help="path to the JSON file")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--grid-points", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None,
                       help="IPF convergence tolerance override")
    run_p.set_defaults(func=_cmd_run)

    br = sub.add_parser("bridge-solve", help="solve the boundary factor system")
    _add_kernel_flags(br, default="heat")
    br.add_argument("--rho0", required=True,
                    help="gaussian:mean,var or a two-column CSV path")
    br.add_argument("--rhoT", required=True)
    br.add_argument("--horizon", type=float, default=1.0)
    br.add_argument("--x-min", type=float, default=-10.0)
    br.add_argument("--x-max", type=float, default=10.0)
    br.add_argument("--grid-points", type=int, default=513)
    br.add_argument("--time-slices", type=int, default=101)
    br.add_argument("--tol", type=float, default=1e-12)
    br.add_argument("--out", default=None)
    br.set_defaults(func=_cmd_bridge_solve)

    sim = sub.add_parser("simulate", help="sample SDE paths")
    sim.add_argument("--scenario", default="quantum-free")
    sim.add_argument("--config", default=None,
                     help="bridge config to drive the drift (optional)")
    sim.add_argument("--direction", choices=("forward", "backward"),
                     default="forward")
    sim.add_argument("--n-paths", type=int, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--grid-points", type=int, default=513)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    bur = sub.add_parser("burgers-residual",
                         help="refinement study of the forced Burgers residual")
    bur.add_argument("--scenario", default="quantum-free")
    bur.add_argument("--out", default=None)
    bur.set_defaults(func=_cmd_burgers)

    ck = sub.add_parser("kernel-check-ck",
                        help="Chapman-Kolmogorov consistency probe")
    _add_kernel_flags(ck, required=True)
    ck.add_argument("--s", type=float, default=0.0)
    ck.add_argument("--tau", type=float, default=0.5)
    ck.add_argument("--t", type=float, default=1.0)
    ck.add_argument("--grid-points", type=int, default=513)
    ck.add_argument("--threshold", type=float, default=1e-6)
    ck.add_argument("--out", default=None)
    ck.set_defaults(func=_cmd_ck)

    gal = sub.add_parser("gallery", help="run a named gallery suite")
    gal.add_argument("name", choices=gallery.scenario_names())
    gal.add_argument("--grid-points", type=int, default=None)
    gal.add_argument("--n-paths", type=int, default=None)
    gal.add_argument("--seed", type=int, default=None)
    gal.add_argument("--out", default=None)
    gal.set_defaults(func=_cmd_gallery)

    lst = sub.add_parser("list-scenarios", help="print gallery scenario names")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
