"""Scenario configuration: JSON schema, density ingestion, CSV output.

A scenario file is a single JSON object.  Top-level keys:

  pipeline     one of "gallery", "bridge-solve", "simulate",
               "burgers-residual", "kernel-check-ck"       (required)
  scenario     gallery scenario name (gallery/simulate/burgers pipelines)
  kernel       {"tag": <registry tag>, ...tag parameters} (default heat)
  boundary     {"rho0": <density spec>, "rhoT": <density spec>}
  horizon      end time T (default 1.0)
  grid         {"x_min", "x_max", "n_points"}
  time_slices  interpolation slice count (default 101)
  ipf_tol      IPF convergence tolerance (default 1e-12)
  sde          {"n_paths", "dt", "seed", "boundary_policy", "direction"};
               paths diffuse at the kernel's nu (1 for quantum-free)
  ck           {"s", "tau", "t", "threshold"}
  output_dir   default output directory for this run

Absent keys take the default of the code that reads them.

A density spec is {"form": "gaussian", "mean": m, "var": v} or
{"csv": <path>} with a two-column x,value file covering the grid; CSV
densities are resampled onto the run grid and must carry unit mass to
within 1e-3 before exact renormalization.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .bridge import IPF_TOL
from .dynamics import PathEnsemble, cores
from .errors import ConfigError, MissingInputError
from .grids import FieldStack, Grid1D, ScalarField, integrate, normalize
from .kernels import (Kernel, NumericFeynmanKacKernel, Potential, make_kernel)
from .report import RunReport

PIPELINES = ("gallery", "bridge-solve", "simulate", "burgers-residual",
             "kernel-check-ck")
CSV_MASS_TOL = 1e-3
# Fewest rows per formatting process.  A fork and its reap cost ~4 ms in a
# 40-70 MB process and a row ~1.3 us, so two parts break even at ~5,400
# rows each (a 10,773-row field takes 16.7 ms either way on 2 cores).
MIN_PART_ROWS = 10_000

_TOP_KEYS = {"pipeline", "scenario", "kernel", "boundary", "horizon", "grid",
             "time_slices", "ipf_tol", "sde", "ck", "output_dir"}
_BOUNDARY_KEYS = {"rho0", "rhoT"}
_GRID_KEYS = {"x_min", "x_max", "n_points"}
_SDE_KEYS = {"n_paths", "dt", "seed", "boundary_policy", "direction"}
_CK_KEYS = {"s", "tau", "t", "threshold"}
# the keys of each numeric-fk potential kind; the packet's closed forms are nu = 1
_POTENTIAL_KEYS = {"zero": {"kind", "nu"}, "constant": {"kind", "nu", "value"},
                   "packet": {"kind"}}
# the typed keys and the type each must hold ("section.key" in a section);
# a null output_dir is its default
_TYPED_KEYS = {
    "scenario": str, "output_dir": (str, type(None)),
    "horizon": Real, "ipf_tol": Real, "time_slices": Integral,
    "grid.x_min": Real, "grid.x_max": Real, "grid.n_points": Integral,
    "sde.n_paths": Integral, "sde.dt": Real, "sde.seed": Integral,
    "ck.s": Real, "ck.tau": Real, "ck.t": Real, "ck.threshold": Real}


def _typed(mapping: dict, key: str, default, where: str = "",
           kind: type | tuple = Real):
    """mapping[key], or ``default`` when absent, refused by name (``where``
    prefixed) unless it is of ``kind``; a bool is not a number."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = {Integral: "an integer", Real: "a number"}.get(kind, "a string")
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
    kernel: dict = field(default_factory=lambda: {"tag": "heat"})
    boundary: dict | None = None
    horizon: float = 1.0
    grid: dict = field(default_factory=dict)
    time_slices: int = 101
    ipf_tol: float = IPF_TOL
    sde: dict = field(default_factory=dict)
    ck: dict = field(default_factory=dict)
    output_dir: str | None = None
    base_dir: Path = field(default_factory=Path)
    # the keys the file and flags gave, "section.key" in a section
    given: frozenset = field(default=frozenset(), init=False, repr=False)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(
                f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        if self.boundary is not None:
            _reject_unknown(self.boundary, _BOUNDARY_KEYS, "boundary")
        _reject_unknown(self.grid, _GRID_KEYS, "grid")
        _reject_unknown(self.sde, _SDE_KEYS, "sde")
        _reject_unknown(self.ck, _CK_KEYS, "ck")
        if not isinstance(self.kernel, dict) or "tag" not in self.kernel:
            raise ConfigError("kernel section needs a 'tag' entry")
        for key, kind in _TYPED_KEYS.items():
            section, dot, name = key.rpartition(".")
            _typed(getattr(self, section) if section else vars(self), name,
                   0, section + dot, kind)
        if self.time_slices < 2:
            raise ConfigError("time_slices must be at least 2")
        if not 0.0 < self.horizon < np.inf:
            raise ConfigError("horizon must be positive and finite")

    def make_grid(self) -> Grid1D:
        return Grid1D(**self.grid)

    def make_times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.time_slices)


# a section a given key creates starts from its ScenarioConfig default
_SECTION_DEFAULTS = {f.name: f.default_factory for f in fields(ScenarioConfig)
                     if f.default_factory is not MISSING}


def load_scenario(path: str | Path | None = None,
                  given: dict | None = None) -> ScenarioConfig:
    """Validate a JSON scenario file (``None``: an empty one) with each
    ``given`` "key" or "section.key" set over it."""
    raw = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise MissingInputError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except OSError as e:
            raise MissingInputError(f"cannot read config file {path}: "
                                    f"{e.strerror}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse error at line {e.lineno}, column {e.colno}: "
                f"{e.msg}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in (given or {}).items():
        section, _, name = key.rpartition(".")
        target = raw
        if section:
            target = raw.setdefault(section,
                                    _SECTION_DEFAULTS.get(section, dict)())
            if not isinstance(target, dict):
                raise ConfigError(
                    f"{section} section must be an object, got {target!r}")
        target[name] = value
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "pipeline" not in raw:
        raise ConfigError("config needs a 'pipeline' entry")
    cfg = ScenarioConfig(base_dir=path.parent if path else Path(), **raw)
    cfg.given = frozenset(k for key, value in raw.items() for k in (
        [f"{key}.{n}" for n in value] if isinstance(value, dict) else [key]))
    return cfg


def density_from_spec(spec, grid: Grid1D, base_dir: Path | None = None,
                      time_label: float = 0.0) -> ScalarField:
    """Build a boundary density from a config spec on the run grid.

    Gaussian specs are evaluated and renormalized on the grid; one with no
    mass on the grid is refused.  CSV specs
    are linearly resampled; the file must cover the grid span with
    positive values and carry unit mass within 1e-3, after which the
    field is renormalized exactly.
    """
    if not isinstance(spec, dict):
        raise ConfigError("density spec must be an object")
    _reject_unknown(spec, {"csv"} if "csv" in spec else {"form", "mean", "var"},
                    f"density spec {spec!r}")
    if "csv" in spec:
        path = Path(spec["csv"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise MissingInputError(f"density file not found: {path}")
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=_header_rows(path))
        except OSError as e:
            raise MissingInputError(f"cannot read density file {path}: "
                                    f"{e.strerror}") from None
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
        return normalize(f)
    if spec.get("form") == "gaussian":
        mean = float(_typed(spec, "mean", 0.0, "gaussian density "))
        var = float(_typed(spec, "var", 1.0, "gaussian density "))
        if not (np.isfinite(mean) and 0.0 < var < np.inf):
            raise ConfigError(f"gaussian density {spec!r} needs finite "
                              "positive variance and a finite mean")
        vals = np.exp(-((grid.nodes - mean) ** 2) / (2.0 * var))
        vals /= np.sqrt(2.0 * np.pi * var)
        f = ScalarField(grid, vals, time_label=time_label)
        if not integrate(f) > 0.0:
            raise ConfigError(
                f"gaussian density {spec!r} has no mass on the grid span "
                f"[{grid.x_min:g}, {grid.x_max:g}]")
        return normalize(f)
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
        _reject_unknown(cfg, {"potential", "n_substeps"}, "kernel")
        pot_cfg = cfg.get("potential", {})
        _reject_unknown(pot_cfg, {"kind", "nu", "value"}, "kernel.potential")
        kind = pot_cfg.get("kind", "zero")
        if kind not in _POTENTIAL_KEYS:
            raise ConfigError(f"unknown potential kind {kind!r}")
        _reject_unknown(pot_cfg, _POTENTIAL_KEYS[kind], f"{kind} potential")
        params = {key: float(_typed(pot_cfg, key, None, "kernel.potential."))
                  for key in pot_cfg if key != "kind"}
        if cfg.get("n_substeps") is not None:
            _typed(cfg, "n_substeps", None, "kernel.", Integral)
        if kind == "constant":
            value = params.pop("value", 0.0)
            if not np.isfinite(value):
                raise ConfigError(f"potential value must be finite, got {value}")
            potential = Potential.constant(value, **params)
        else:
            potential = getattr(Potential, kind)(**params)
        return NumericFeynmanKacKernel(potential, grid=grid,
                                       n_substeps=cfg.get("n_substeps"))
    for key in cfg:
        _typed(cfg, key, None, "kernel.")
    try:
        return make_kernel(tag, **cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad kernel section: {e}") from None


def _column(values: np.ndarray) -> list[str]:
    return [f"{v:.17g}" for v in values.tolist()]


def _format(out, block, lo: int, hi: int):
    out.writelines(block(k).encode() for k in range(lo, hi))


def _format_and_exit(out, block, lo: int, hi: int):
    """A forked child's whole life: format blocks lo .. hi-1 into ``out``
    and leave through ``os._exit``, so no atexit hook or inherited buffer
    runs: status 0 once ``out`` is flushed, 1 on any exception."""
    status = 1
    try:
        _format(out, block, lo, hi)
        out.flush()
        status = 0
    finally:
        os._exit(status)


def _write_lines(path: str | Path, header: str, n_blocks: int,
                 block_rows: int, block: Callable[[int], str]):
    """Header line, then ``block(k)`` (``block_rows`` newline-terminated
    rows) for k = 0 .. n_blocks-1, complete (its directory made if missing)
    when this returns.

    A file of at least MIN_PART_ROWS rows per part is cut into up to
    ``cores()`` contiguous ranges of blocks.  Every range after the first
    is formatted by a forked child into an unnamed temporary file while
    the caller formats the first straight into ``path``; the caller then
    appends the children's bytes in order.  The bytes are those of one
    process formatting every block: a range whose fork fails is formatted
    by the caller.  A child that fails makes the write raise OSError
    naming ``path``; a write that raises kills and reaps its children.
    """
    parts = min(cores(), n_blocks * block_rows // MIN_PART_ROWS, n_blocks)
    parts = max(1, parts) if hasattr(os, "fork") else 1
    cuts = [n_blocks * i // parts for i in range(parts + 1)]
    children = []  # (pid, temporary file) of each forked range, in order
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "wb") as fh:
            fh.write(f"{header}\n".encode())
            rest = parts  # the first range no child took
            for i in range(1, parts):
                tmp = tempfile.TemporaryFile()
                try:
                    pid = os.fork()
                except OSError:
                    tmp.close()
                    rest = i
                    break
                if pid == 0:
                    _format_and_exit(tmp, block, cuts[i], cuts[i + 1])
                children.append((pid, tmp))
            _format(fh, block, 0, cuts[1])
            while children:
                pid, tmp = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                with tmp:
                    code = os.waitstatus_to_exitcode(status)
                    if code:
                        raise OSError(
                            f"could not write {path}: its formatting process "
                            + (f"exited with status {code}" if code > 0 else
                               f"was killed by signal {-code}"))
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
            _format(fh, block, cuts[rest], n_blocks)
    finally:
        if children:
            import signal  # only a failed write needs it (1.5 ms to load)
            for pid, tmp in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                tmp.close()


def write_density_csv(path: str | Path, density: ScalarField):
    """Two-column x,value CSV at full precision."""
    _write_lines(path, "x,value", 1, density.grid.n_points, lambda _: "".join(
        [f"{x},{v:.17g}\n" for x, v in zip(_column(density.grid.nodes),
                                           density.values.tolist())]))


def write_field_csv(path: str | Path, stack: FieldStack):
    """Long-format t,x,value CSV for a space-time field."""
    times, xs = _column(stack.times), _column(stack.grid.nodes)
    _write_lines(path, "t,x,value", len(times), len(xs), lambda k: "".join(
        [f"{times[k]},{x},{v:.17g}\n"
         for x, v in zip(xs, stack.values[k].tolist())]))


def write_paths_csv(path: str | Path, ensemble: PathEnsemble):
    """Long-format path_id,t,x CSV, ordered by path then time."""
    times = _column(ensemble.times)
    _write_lines(path, "path_id,t,x", len(ensemble.positions), len(times),
                 lambda i: "".join(
                     [f"{i},{t},{x:.17g}\n"
                      for t, x in zip(times, ensemble.positions[i].tolist())]))


def write_report(path: str | Path, report: RunReport):
    """Plain-text report plus a JSON twin, in a directory made if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.render_text() + "\n")
    path.with_suffix(".json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
