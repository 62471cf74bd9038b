"""Span recording for the traced benchmark run.

The tracer replaces public functions of the schrobridge modules with
wrappers that record a span (name, start, end, parent span, call id) and
bump per-call counters.  Each function is wrapped where its caller looks
it up: ``cli`` and ``gallery`` import functions by name, so those names
are replaced in the importing module; methods are replaced on their
class; the packet drifts are shadowed on the ``PACKET`` instance.
``Tracer.restore`` puts every original back; ``not_restored`` lists any
name that does not hold its original again.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part covered by its child spans; every span name maps
to one self-time metric, so the metrics of one call add up to the
duration of its ``cli.main`` span.  Work in a function no hook wraps
lands in the catch-all ``cli.self_s`` or ``gallery.self_s``;
``trace_problems`` reports it when it grows past ``RESIDUAL_SHARE``, and
reports a trace that contradicts its workload's stated reason.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MISSING = object()

# self-time metrics; together they account for the whole cli.main span
SELF_TIME_METRICS = (
    "cli.self_s", "scenario.write_s", "kernels.matrix_build_s",
    "kernels.matvec_s", "kernels.fk_solve_s", "bridge.ipf_s",
    "bridge.propagate_self_s", "bridge.drift_s", "dynamics.sample_self_s",
    "dynamics.check_s", "grids.field_at_s", "packet.drift_s", "burgers.s",
    "gallery.self_s",
)
COUNT_METRICS = (
    "kernels.matrix_builds", "kernels.matrix_bytes", "kernels.matvecs",
    "kernels.fk_solves", "kernels.fk_banded_solves", "kernels.fk_columns",
    "bridge.ipf_sweeps", "dynamics.path_steps", "grids.field_at_calls",
    "grids.field_at_points", "scenario.write_bytes",
)

# largest share of a call the catch-all self times may take (measured:
# at most 0.7% on every workload)
RESIDUAL_SHARE = 0.10


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Hook:
    """One replaced attribute.

    ``metric`` receives the span's self time; a hook without one records
    no span and only counts.  ``tally`` is incremented once per call of
    the function; ``count(counters, args, kwargs, result)`` adds computed
    counts.
    """

    owner: object
    attr: str
    name: str
    metric: str | None
    tally: str | None = None
    count: Callable | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def trace_problems(workload: str, metrics: dict[str, float]) -> list[str]:
    """Where a traced run's metrics contradict why ``workload`` was chosen."""
    problems = []
    total = sum(metrics[k] for k in SELF_TIME_METRICS)
    residual = metrics["cli.self_s"] + metrics["gallery.self_s"]
    if residual > RESIDUAL_SHARE * total:
        problems.append(f"cli.self_s + gallery.self_s is {residual:.4f} s of "
                        f"{total:.4f} s: work outside every wrapped function")
    fk = workload == "fk-bridge"
    if (metrics["kernels.fk_solves"] > 0) != fk:
        problems.append(f"kernels.fk_solves is {metrics['kernels.fk_solves']}"
                        f" on {workload}")
    largest = max(SELF_TIME_METRICS, key=metrics.__getitem__)
    if fk and largest != "kernels.fk_solve_s":
        problems.append(f"the largest self time on fk-bridge is {largest}")
    if workload == "simulate-bridge" and metrics["grids.field_at_calls"] == 0:
        problems.append("no grids.field_at_calls on simulate-bridge")
    if workload == "gallery-qf" and metrics["grids.field_at_calls"] != 0:
        problems.append("grids.field_at_calls on gallery-qf")
    if (workload in ("bridge-solve", "fk-bridge")
            and metrics["dynamics.path_steps"] != 0):
        problems.append(f"dynamics.path_steps on {workload}")
    return problems


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_matrix(counters, args, kwargs, result):
    counters["kernels.matrix_bytes"] += result.entries.size * 8


def _count_banded(counters, args, kwargs, result):
    rhs = np.asarray(_arg(args, kwargs, 2, "b"))
    counters["kernels.fk_banded_solves"] += 1
    counters["kernels.fk_columns"] += rhs.shape[1] if rhs.ndim == 2 else 1


def _count_field_at(counters, args, kwargs, result):
    counters["grids.field_at_points"] += int(np.size(_arg(args, kwargs, 1,
                                                          "positions")))


def _count_paths(counters, args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    horizon = float(_arg(args, kwargs, 3, "horizon"))
    counters["dynamics.path_steps"] += config.n_paths * int(
        round(horizon / config.dt))
    counters["dynamics.paths_requested"] += result.n_requested
    counters["dynamics.paths_survived"] += result.n_paths


def _count_written(counters, args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 0, "path"))
    counters["scenario.write_bytes"] += os.path.getsize(path)


def _count_report_written(counters, args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 0, "path"))
    counters["scenario.write_bytes"] += (
        os.path.getsize(path)
        + os.path.getsize(os.path.splitext(path)[0] + ".json"))


def schrobridge_hooks() -> list[Hook]:
    """Every replaced name reached by the four CLI pipelines."""
    from schrobridge import bridge, cli, gallery, grids, kernels, packet

    hooks = [Hook(cli, "main", "cli.main", "cli.self_s")]
    for owner in (cli, gallery):
        hooks += [
            Hook(owner, "solve_boundary_system", "bridge.solve_boundary_system",
                 "bridge.ipf_s"),
            Hook(owner, "propagate_factors", "bridge.propagate_factors",
                 "bridge.propagate_self_s"),
        ]
        hooks += [Hook(owner, fn, f"dynamics.{fn}", "dynamics.sample_self_s",
                       count=_count_paths)
                  for fn in ("simulate_forward", "simulate_backward")]
    hooks += [Hook(cli, fn, f"scenario.{fn}", "scenario.write_s",
                   count=_count_written)
              for fn in ("write_density_csv", "write_field_csv",
                         "write_paths_csv")]
    hooks += [Hook(cli, "write_report", "scenario.write_report",
                   "scenario.write_s", count=_count_report_written)]
    hooks += [Hook(gallery, "run_scenario", "gallery.run_scenario",
                   "gallery.self_s")]
    hooks += [Hook(gallery, fn, f"dynamics.{fn}", "dynamics.check_s")
              for fn in ("ks_distance", "empirical_density", "cdf_from_field",
                         "fokker_planck_residual")]
    hooks += [Hook(gallery, fn, f"burgers.{fn}", "burgers.s")
              for fn in ("compatibility_potential", "hopf_cole_forward",
                         "hopf_cole_inverse")]
    hooks += [
        Hook(bridge, "marginal_l1_residual", "bridge.marginal_l1_residual",
             "bridge.ipf_s", tally="bridge.ipf_sweeps"),
        Hook(bridge.BridgeSolution, "from_factor_stacks",
             "bridge.BridgeSolution.from_factor_stacks", "bridge.drift_s"),
        Hook(kernels.KernelMatrix, "from_kernel",
             "kernels.KernelMatrix.from_kernel", "kernels.matrix_build_s",
             tally="kernels.matrix_builds", count=_count_matrix),
        Hook(kernels, "solve_feynman_kac", "kernels.solve_feynman_kac",
             "kernels.fk_solve_s", tally="kernels.fk_solves"),
        Hook(kernels, "solve_banded", "kernels.solve_banded", None,
             count=_count_banded),
        Hook(grids.FieldStack, "at", "grids.FieldStack.at", "grids.field_at_s",
             tally="grids.field_at_calls", count=_count_field_at),
    ]
    hooks += [Hook(kernels.KernelMatrix, fn, f"kernels.KernelMatrix.{fn}",
                   "kernels.matvec_s", tally="kernels.matvecs")
              for fn in ("apply_source", "apply_target")]
    hooks += [Hook(packet.PACKET, fn, f"packet.{fn}", "packet.drift_s")
              for fn in ("drift_forward", "drift_backward")]
    return hooks


class Tracer:
    """Installs hooks, records spans and counters, restores originals.

    A root span (one with no open parent) starts a new call id.
    """

    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.metric_of = {h.name: h.metric for h in hooks}
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.call = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        self._saved = []
        for h in self.hooks:
            raw = vars(h.owner).get(h.attr, _MISSING)
            if raw is _MISSING:
                replacement = self._wrap(getattr(h.owner, h.attr), h)
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, h))
            else:
                replacement = self._wrap(raw, h)
            self._saved.append((h.owner, h.attr, raw))
            setattr(h.owner, h.attr, replacement)

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, hook: Hook):
        if hook.metric is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook.count(self.counters[self.call], args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self._stack:
                self.call += 1
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.call, hook.name,
                                       start, end))
            counters = self.counters[self.call]
            if hook.tally:
                counters[hook.tally] += 1
            if hook.count:
                hook.count(counters, args, kwargs, result)
            return result
        return spanned

    def call_metrics(self, call: int) -> dict[str, float]:
        """Per-layer metrics of one call."""
        spans = [s for s in self.spans if s.call == call]
        selfs = self_times(spans)
        metrics = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        sampling = 0.0
        for s in spans:
            metrics[self.metric_of[s.name]] += selfs[s.id]
            if s.name.startswith("dynamics.simulate_"):
                sampling += s.end - s.start
        counters = self.counters[call]
        metrics.update({k: counters[k] for k in COUNT_METRICS})
        steps = counters["dynamics.path_steps"]
        metrics["dynamics.path_steps_per_s"] = steps / sampling if sampling else 0.0
        requested = counters["dynamics.paths_requested"]
        metrics["dynamics.survivor_ratio"] = (
            counters["dynamics.paths_survived"] / requested if requested else 0.0)
        return metrics

    def not_restored(self) -> list[str]:
        """Replaced names that do not hold their original object."""
        return [f"{owner!r}.{attr}" for owner, attr, raw in self._saved
                if vars(owner).get(attr, _MISSING) is not raw]

    def dump(self) -> dict:
        return {"spans": [[s.id, s.parent, s.call, s.name, s.start, s.end]
                          for s in self.spans],
                "counters": {str(k): dict(v) for k, v in self.counters.items()}}
