"""Seeded inputs and output checks for the four benchmark workloads.

Each workload draws its inputs from ``random.Random("<name>:<seed>")``,
writes any config file into the run's work directory, and hands the CLI
only the argv and that file.  The ranges sit around the documented CLI
defaults; BENCHMARK.json repeats them next to each workload's reason.

The checks read the artifacts of the last call and verify them
independently of the package (numpy only): marginals recovered from the
factor pair, interpolating densities that match the prescribed ends and
keep unit mass, well-formed path tables, and reports whose configuration
matches the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BOX = (-10.0, 10.0)


@dataclass(frozen=True)
class Inputs:
    argv: tuple[str, ...]
    files: dict[str, bytes]
    outdir: Path
    report: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, Path], Inputs]
    check: Callable[[Inputs], list[str]]

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        """Draw the inputs for ``seed`` and write their files into workdir."""
        inputs = self.make(random.Random(f"{self.name}:{seed}"), workdir)
        for name, data in inputs.files.items():
            (workdir / name).write_bytes(data)
        inputs.outdir.mkdir(parents=True, exist_ok=True)
        return inputs


def _marginals(rng: random.Random, v1_range: tuple[float, float]) -> dict:
    return {"m0": rng.uniform(-0.5, 0.5), "m1": rng.uniform(-0.5, 0.5),
            "v0": rng.uniform(0.8, 1.2), "v1": rng.uniform(*v1_range)}


def _boundary(p: dict) -> dict:
    return {"rho0": {"form": "gaussian", "mean": p["m0"], "var": p["v0"]},
            "rhoT": {"form": "gaussian", "mean": p["m1"], "var": p["v1"]}}


def _config_file(cfg: dict) -> bytes:
    return (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()


def _make_bridge_solve(rng, workdir):
    p = _marginals(rng, (2.4, 3.6))
    p.update(n_points=513, slices=101)
    out = workdir / "out"
    argv = ("bridge-solve", "--rho0", f"gaussian:{p['m0']!r},{p['v0']!r}",
            "--rhoT", f"gaussian:{p['m1']!r},{p['v1']!r}", "--out", str(out))
    return Inputs(argv, {}, out, "bridge-report.json", p)


def _make_fk_bridge(rng, workdir):
    p = _marginals(rng, (1.6, 2.4))
    p.update(n_points=257, slices=21)
    cfg = {"pipeline": "bridge-solve",
           "kernel": {"tag": "numeric-fk", "potential": {"kind": "packet"}},
           "boundary": _boundary(p), "grid": {"n_points": p["n_points"]},
           "time_slices": p["slices"]}
    out = workdir / "out"
    argv = ("run", "--config", str(workdir / "fk-bridge.json"), "--out", str(out))
    return Inputs(argv, {"fk-bridge.json": _config_file(cfg)}, out,
                  "bridge-report.json", p)


def _make_simulate_bridge(rng, workdir):
    p = _marginals(rng, (2.4, 3.6))
    p.update(n_points=513, slices=101, n_paths=10_000,
             sde_seed=rng.randrange(2**31))
    cfg = {"pipeline": "simulate", "kernel": {"tag": "heat", "nu": 1.0},
           "boundary": _boundary(p), "grid": {"n_points": p["n_points"]},
           "time_slices": p["slices"],
           "sde": {"n_paths": p["n_paths"], "dt": 1e-3, "seed": p["sde_seed"],
                   "direction": "forward"}}
    out = workdir / "out"
    argv = ("simulate", "--config", str(workdir / "simulate-bridge.json"),
            "--out", str(out))
    return Inputs(argv, {"simulate-bridge.json": _config_file(cfg)}, out,
                  "simulate-report.json", p)


def _make_gallery_qf(rng, workdir):
    p = {"mc_seed": rng.randrange(2**31)}
    out = workdir / "out"
    argv = ("gallery", "quantum-free", "--seed", str(p["mc_seed"]),
            "--out", str(out))
    return Inputs(argv, {}, out, "quantum-free-report.json", p)


# -- output checks ---------------------------------------------------------

def _lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.linspace(*BOX, n)
    w = np.full(n, nodes[1] - nodes[0])
    w[[0, -1]] *= 0.5
    return nodes, w


def _gaussian(nodes, w, mean, var) -> np.ndarray:
    g = np.exp(-((nodes - mean) ** 2) / (2.0 * var))
    return g / (w @ g)


def _read(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _report(inputs: Inputs) -> dict:
    return json.loads((inputs.outdir / inputs.report).read_text())


def _check_config(report: dict, expected: dict) -> list[str]:
    return [f"report config {k}={report['config'].get(k)!r}, expected {v!r}"
            for k, v in expected.items() if report["config"].get(k) != v]


def _check_fields(inputs: Inputs) -> list[str]:
    """Interpolating fields: lattice, unit mass, prescribed end densities."""
    p = inputs.params
    n, slices = p["n_points"], p["slices"]
    nodes, w = _lattice(n)
    problems = []
    fields = {}
    for name in ("rho", "drift-forward", "drift-backward"):
        data = _read(inputs.outdir / f"{name}.csv")
        if data.shape != (n * slices, 3) or not np.all(np.isfinite(data)):
            return [f"{name}.csv has shape {data.shape} or non-finite values"]
        if (np.max(np.abs(data[:, 0] - np.repeat(np.linspace(0, 1, slices), n)))
                > 1e-12 or np.max(np.abs(data[:, 1] - np.tile(nodes, slices)))
                > 1e-9):
            problems.append(f"{name}.csv is not on the {slices}x{n} lattice")
        fields[name] = data[:, 2].reshape(slices, n)
    rho = fields["rho"]
    mass = np.max(np.abs(rho @ w - 1.0))
    if mass > 1e-4:
        problems.append(f"rho.csv slice mass drifts by {mass:.3e}")
    for k, mean, var in ((0, p["m0"], p["v0"]), (-1, p["m1"], p["v1"])):
        err = w @ np.abs(rho[k] - _gaussian(nodes, w, mean, var))
        if err > 1e-6:
            problems.append(f"rho.csv slice {k} misses its marginal by {err:.3e}")
    return problems


def _check_bridge_solve(inputs: Inputs) -> list[str]:
    p = inputs.params
    report = _report(inputs)
    problems = _check_config(report, {"kernel": "heat", "grid_points": 513})
    nodes, w = _lattice(p["n_points"])
    u0 = _read(inputs.outdir / "u0.csv")
    vT = _read(inputs.outdir / "vT.csv")
    if max(np.max(np.abs(f[:, 0] - nodes)) for f in (u0, vT)) > 1e-9:
        return problems + ["u0.csv / vT.csv are not on the grid"]
    # heat kernel, nu = 1, from 0 to 1: Gaussian of variance 2
    k = np.exp(-((nodes[None, :] - nodes[:, None]) ** 2) / 4.0) / np.sqrt(4.0 * np.pi)
    u, v = u0[:, 1], vT[:, 1]
    for label, got, mean, var in (
            ("rho0", u * (k @ (w * v)), p["m0"], p["v0"]),
            ("rhoT", v * ((w * u) @ k), p["m1"], p["v1"])):
        err = w @ np.abs(got - _gaussian(nodes, w, mean, var))
        if err > 1e-8:
            problems.append(f"factor pair misses {label} by {err:.3e} (L1)")
    return problems + _check_fields(inputs)


def _check_fk_bridge(inputs: Inputs) -> list[str]:
    report = _report(inputs)
    problems = _check_config(report, {"kernel": "numeric-fk", "grid_points": 257})
    return problems + _check_fields(inputs)


def _check_simulate_bridge(inputs: Inputs) -> list[str]:
    p = inputs.params
    report = _report(inputs)
    problems = _check_config(report, {"n_paths": p["n_paths"],
                                      "seed": p["sde_seed"], "dt": 1e-3})
    data = _read(inputs.outdir / "paths.csv")
    n, rec = p["n_paths"], 11
    if data.shape != (n * rec, 3):
        return problems + [f"paths.csv has shape {data.shape}"]
    ids, t, x = data[:, 0], data[:, 1], data[:, 2].reshape(n, rec)
    if (np.any(ids != np.repeat(np.arange(n), rec))
            or np.max(np.abs(t - np.tile(np.linspace(0, 1, rec), n))) > 1e-12):
        problems.append("paths.csv ids or times are out of order")
    if not np.all(np.isfinite(x)) or np.min(x) < BOX[0] or np.max(x) > BOX[1]:
        problems.append("paths.csv has positions outside the box")
    # six standard errors: a wrong mean, not sampling noise
    for col, mean, var in ((0, p["m0"], p["v0"]), (-1, p["m1"], p["v1"])):
        err = abs(float(np.mean(x[:, col])) - mean)
        if err > 6.0 * np.sqrt(var / n):
            problems.append(f"path mean at column {col} is off by {err:.3e}")
    return problems


QF_CHECKS = (
    "factorization-identity", "variance-at-horizon", "drift-difference-identity",
    "parabolic-residual-fine", "parabolic-refinement-u", "parabolic-refinement-v",
    "compatibility-spatial-constancy", "boundary-recovery-l1",
    "factor-match-k1-u0", "factor-match-k1-vT", "factor-agreement-k2-u0",
    "factor-agreement-k2-vT", "bridge-drift-error", "transition-normalization",
    "reversal-identity", "hopf-cole-roundtrip", "fokker-planck-residual",
    "continuity-residual", "forward-mc-variance-0.5", "forward-mc-variance-1.0",
    "backward-mc-ks", "slice-consistency-ks", "empirical-density-mass",
)


def _check_gallery_qf(inputs: Inputs) -> list[str]:
    report = _report(inputs)
    problems = _check_config(report, {"seed": inputs.params["mc_seed"],
                                      "n_paths": 20_000, "grid_points": 1025})
    names = tuple(c["name"] for c in report["checks"])
    if names != QF_CHECKS:
        problems.append(f"quantum-free report lists checks {names}")
    if not all(np.isfinite(c["measured"]) for c in report["checks"]):
        problems.append("quantum-free report has a non-finite measurement")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("bridge-solve", _make_bridge_solve, _check_bridge_solve),
    Workload("fk-bridge", _make_fk_bridge, _check_fk_bridge),
    Workload("simulate-bridge", _make_simulate_bridge, _check_simulate_bridge),
    Workload("gallery-qf", _make_gallery_qf, _check_gallery_qf),
)}
