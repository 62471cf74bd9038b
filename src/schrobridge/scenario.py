"""Scenario configuration: JSON schema, density ingestion, CSV output.

A scenario file is a single JSON object.  Top-level keys:

  pipeline     one of "gallery", "bridge-solve", "simulate",
               "burgers-residual", "kernel-check-ck"       (required)
  scenario     gallery scenario name (gallery/simulate/burgers pipelines)
  kernel       {"tag": <registry tag>, ...tag parameters}
  boundary     {"rho0": <density spec>, "rhoT": <density spec>}
  horizon      end time T (default 1.0)
  grid         {"x_min", "x_max", "n_points"}
  time_slices  interpolation slice count (default 101)
  ipf_tol      IPF convergence tolerance (default 1e-12)
  sde          {"n_paths", "dt", "seed", "boundary_policy", "direction"};
               paths diffuse at the kernel's nu (1 for quantum-free)
  ck           {"s", "tau", "t", "threshold"}
  output_dir   default output directory for this run

A density spec is {"form": "gaussian", "mean": m, "var": v} or
{"csv": <path>} with a two-column x,value file covering the grid; CSV
densities are resampled onto the run grid and must carry unit mass to
within 1e-3 before exact renormalization.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .dynamics import PathEnsemble
from .errors import ConfigError, MissingInputError
from .grids import FieldStack, Grid1D, ScalarField, integrate
from .kernels import (Kernel, NumericFeynmanKacKernel, Potential, make_kernel)
from .report import RunReport

PIPELINES = ("gallery", "bridge-solve", "simulate", "burgers-residual",
             "kernel-check-ck")
CSV_MASS_TOL = 1e-3

_TOP_KEYS = {"pipeline", "scenario", "kernel", "boundary", "horizon", "grid",
             "time_slices", "ipf_tol", "sde", "ck", "output_dir"}
_GRID_KEYS = {"x_min", "x_max", "n_points"}
_SDE_KEYS = {"n_paths", "dt", "seed", "boundary_policy", "direction"}
_CK_KEYS = {"s", "tau", "t", "threshold"}
# the numeric keys and the type each must hold ("section.key" in a section)
_NUMERIC_KEYS = {
    "horizon": Real, "ipf_tol": Real, "time_slices": Integral,
    "grid.x_min": Real, "grid.x_max": Real, "grid.n_points": Integral,
    "sde.n_paths": Integral, "sde.dt": Real, "sde.seed": Integral,
    "ck.s": Real, "ck.tau": Real, "ck.t": Real, "ck.threshold": Real}


def _number(mapping: dict, key: str, default, where: str = "",
            kind: type = Real):
    """mapping[key], or ``default`` when absent, refused by name (``where``
    prefixed) unless it is a number of ``kind``; a bool is not a number."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is Integral else "a number"
        raise ConfigError(f"{where}{key} must be {noun}, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} section must be an object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


@dataclass
class ScenarioConfig:
    """Parsed scenario file plus the directory it was loaded from."""

    pipeline: str
    scenario: str = "quantum-free"
    kernel: dict = field(default_factory=lambda: {"tag": "quantum-k1"})
    boundary: dict | None = None
    horizon: float = 1.0
    grid: dict = field(default_factory=dict)
    time_slices: int = 101
    ipf_tol: float = 1e-12
    sde: dict = field(default_factory=dict)
    ck: dict = field(default_factory=dict)
    output_dir: str | None = None
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(
                f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        _reject_unknown(self.grid, _GRID_KEYS, "grid")
        _reject_unknown(self.sde, _SDE_KEYS, "sde")
        _reject_unknown(self.ck, _CK_KEYS, "ck")
        if not isinstance(self.kernel, dict) or "tag" not in self.kernel:
            raise ConfigError("kernel section needs a 'tag' entry")
        for key, kind in _NUMERIC_KEYS.items():
            section, dot, name = key.rpartition(".")
            _number(getattr(self, section) if section else vars(self), name,
                    0, section + dot, kind)
        if self.time_slices < 2:
            raise ConfigError("time_slices must be at least 2")
        if not 0.0 < self.horizon < np.inf:
            raise ConfigError("horizon must be positive and finite")

    def make_grid(self) -> Grid1D:
        g = self.grid
        return Grid1D(x_min=float(g.get("x_min", -10.0)),
                      x_max=float(g.get("x_max", 10.0)),
                      n_points=int(g.get("n_points", 513)))

    def make_times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.time_slices)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a JSON scenario file."""
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "pipeline" not in raw:
        raise ConfigError("config needs a 'pipeline' entry")
    return ScenarioConfig(base_dir=path.parent, **raw)


def density_from_spec(spec, grid: Grid1D, base_dir: Path | None = None,
                      time_label: float = 0.0) -> ScalarField:
    """Build a boundary density from a config spec on the run grid.

    Gaussian specs are evaluated and renormalized on the grid.  CSV specs
    are linearly resampled; the file must cover the grid span with
    positive values and carry unit mass within 1e-3, after which the
    field is renormalized exactly.
    """
    if not isinstance(spec, dict):
        raise ConfigError("density spec must be an object")
    if "csv" in spec:
        path = Path(spec["csv"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise MissingInputError(f"density file not found: {path}")
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=_header_rows(path))
        except ValueError as e:
            raise ConfigError(f"cannot parse density CSV {path}: {e}") from None
        if data.shape[1] != 2:
            raise ConfigError(f"density CSV {path} must have 2 columns (x, value)")
        xs, vals = data[:, 0], data[:, 1]
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"density CSV {path} has non-finite entries")
        if np.any(np.diff(xs) <= 0.0):
            raise ConfigError(f"density CSV {path} x column must increase")
        if xs[0] > grid.x_min or xs[-1] < grid.x_max:
            raise ConfigError(
                f"density CSV {path} spans [{xs[0]}, {xs[-1]}] but the grid "
                f"needs [{grid.x_min}, {grid.x_max}]")
        resampled = np.interp(grid.nodes, xs, vals)
        f = ScalarField(grid, resampled, time_label=time_label)
        mass = integrate(f)
        if abs(mass - 1.0) > CSV_MASS_TOL:
            raise ConfigError(
                f"density CSV {path} mass {mass:.6f} is not normalized "
                f"(|mass - 1| must be <= {CSV_MASS_TOL})")
        return f.with_values(resampled / mass)
    if spec.get("form") == "gaussian":
        mean = float(_number(spec, "mean", 0.0, "gaussian density "))
        var = float(_number(spec, "var", 1.0, "gaussian density "))
        if not (np.isfinite(mean) and 0.0 < var < np.inf):
            raise ConfigError(f"gaussian density {spec!r} needs finite "
                              "positive variance and a finite mean")
        vals = np.exp(-((grid.nodes - mean) ** 2) / (2.0 * var))
        vals /= np.sqrt(2.0 * np.pi * var)
        f = ScalarField(grid, vals, time_label=time_label)
        return f.with_values(vals / integrate(f))
    raise ConfigError(f"unrecognized density spec {spec!r}")


def _header_rows(path: Path) -> int:
    with open(path) as fh:
        first = fh.readline()
    head = first.split(",")[0].strip()
    try:
        float(head)
    except ValueError:
        return 1
    return 0


def kernel_from_config(cfg: dict, grid: Grid1D | None = None) -> Kernel:
    """Instantiate a kernel from a config section."""
    cfg = dict(cfg)
    tag = cfg.pop("tag")
    if tag == "numeric-fk":
        pot_cfg = cfg.pop("potential", {"kind": "zero"})
        kind = pot_cfg.get("kind", "zero")
        nu = float(_number(pot_cfg, "nu", 1.0, "kernel.potential."))
        if cfg.get("n_substeps") is not None:
            _number(cfg, "n_substeps", None, "kernel.", Integral)
        if kind == "zero":
            potential = Potential.zero(nu)
        elif kind == "constant":
            value = float(_number(pot_cfg, "value", 0.0, "kernel.potential."))
            if not np.isfinite(value):
                raise ConfigError(f"potential value must be finite, got {value}")
            potential = Potential.constant(value, nu)
        elif kind == "packet":
            potential = Potential.packet()
        else:
            raise ConfigError(f"unknown potential kind {kind!r}")
        return NumericFeynmanKacKernel(potential, grid=grid,
                                       n_substeps=cfg.pop("n_substeps", None))
    for key in cfg:
        _number(cfg, key, None, "kernel.")
    try:
        return make_kernel(tag, **cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad kernel section: {e}") from None


def _column(values: np.ndarray) -> list[str]:
    return [f"{v:.17g}" for v in values.tolist()]


def _write_lines(path: str | Path, header: str, blocks: Iterable[str]):
    """Header line, then each block of newline-terminated rows, written as
    the blocks are formatted so only one block's rows are alive at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(blocks)


def write_density_csv(path: str | Path, density: ScalarField):
    """Two-column x,value CSV at full precision."""
    _write_lines(path, "x,value", (f"{x},{v:.17g}\n" for x, v in zip(
        _column(density.grid.nodes), density.values.tolist())))


def write_field_csv(path: str | Path, stack: FieldStack):
    """Long-format t,x,value CSV for a space-time field."""
    xs = _column(stack.grid.nodes)
    _write_lines(path, "t,x,value", (
        "".join([f"{ts},{x},{v:.17g}\n" for x, v in zip(xs, row.tolist())])
        for ts, row in zip(_column(stack.times), stack.values)))


def write_paths_csv(path: str | Path, ensemble: PathEnsemble):
    """Long-format path_id,t,x CSV, ordered by path then time."""
    times = _column(ensemble.times)
    _write_lines(path, "path_id,t,x", (
        "".join([f"{i},{t},{x:.17g}\n" for t, x in zip(times, row.tolist())])
        for i, row in enumerate(ensemble.positions)))


def write_report(path: str | Path, report: RunReport):
    """Plain-text report plus a JSON twin next to it."""
    path = Path(path)
    path.write_text(report.render_text() + "\n")
    path.with_suffix(".json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
