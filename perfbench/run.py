"""Benchmark of the schrobridge CLI pipelines, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bridge-solve --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One process, one caller, closed loop: each call of
``schrobridge.cli.main(argv)`` starts when the previous one returned, with
argv as a user would type it and stdout captured.  OpenBLAS keeps its
default threading.  The first call of the process is the cold call; the
warm calls that follow fill BENCHMARK.json's ``run_seconds``.  ``--seconds``
is accepted only with that value, so every run measures as long as the
baseline's did.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced warm calls for ``run_seconds``
and reports the per-layer metrics (see spans.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are for people.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_CALLS = 3
SETUPS = 7


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def import_cli():
    """Import schrobridge.cli from this checkout's src/, timing the import."""
    package = ROOT / "src" / "schrobridge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no schrobridge source under {package.parent}")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    from schrobridge import cli
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported schrobridge from {cli.__file__}, "
                 f"not from {package}")
    return cli, elapsed


class Session:
    """Calls cli.main with one fixed argv and verifies every call's report.

    A call fails when it raises, exits non-zero (a FAIL verdict exits 4)
    or writes a report that differs from the first call's.  Problems are
    outputs the benchmark cannot accept: no report, a report whose
    verdicts disagree with the exit code, or a report that changed.
    """

    def __init__(self, cli, inputs):
        self.cli = cli
        self.inputs = inputs
        self.codes: list[int | None] = []
        self.failed = 0
        self.problems: list[str] = []
        self.failing_checks: set[str] = set()
        self._first_report: bytes | None = None

    def call(self) -> float:
        report = self.inputs.outdir / self.inputs.report
        report.unlink(missing_ok=True)
        out, err = StringIO(), StringIO()
        code = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(self.inputs.argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self._verify(code, report, err.getvalue())
        return elapsed

    def _verify(self, code, report: Path, stderr: str):
        self.codes.append(code)
        problem = self._report_problem(code, report, stderr)
        if problem:
            self.problems.append(problem)
        self.failed += code != 0 or problem is not None

    def _report_problem(self, code, report: Path, stderr: str) -> str | None:
        if code not in (0, 4) or not report.is_file():
            return f"exit code {code}: {stderr.strip()[-400:]}"
        data = report.read_bytes()
        try:
            doc = json.loads(data)
        except ValueError as e:
            return f"unreadable report: {e}"
        self.failing_checks.update(c["name"] for c in doc["checks"]
                                   if not c["passed"])
        if doc["all_passed"] != (code == 0):
            return f"exit code {code} but all_passed={doc['all_passed']}"
        if self._first_report is None:
            self._first_report = data
        elif data != self._first_report:
            return (f"call {len(self.codes)} wrote a report that differs "
                    "from the first call's")
        return None

    def loop(self, seconds: float) -> list[float]:
        """Warm calls until the next one would end after ``seconds``."""
        times: list[float] = []
        start = time.perf_counter()
        while (len(times) < MIN_CALLS or time.perf_counter() - start
               + statistics.median(times) <= seconds):
            times.append(self.call())
        return times


def probe_setups(args, count: int) -> list[float]:
    """Set-up times of fresh processes (import plus input generation)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def set_up(args, workdir: Path):
    """The timed set-up: import schrobridge, generate the inputs."""
    cli, import_s = import_cli()
    import workloads
    start = time.perf_counter()
    inputs = workloads.WORKLOADS[args.workload].inputs(args.seed, workdir)
    return cli, inputs, import_s + time.perf_counter() - start


def setup_probe(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        setup_s = set_up(args, workdir)[2]
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _untraced(args, session, setup_s: float, seconds: int
              ) -> tuple[dict, list[str]]:
    warm = session.loop(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + probe_setups(args, SETUPS - 1)
    lines = [
        f"wall_s       {statistics.median(warm):.4f} s  median of {len(warm)} "
        f"warm calls (min {min(warm):.4f}, max {max(warm):.4f})",
        f"setup_s      {statistics.median(setups):.4f} s  median of "
        f"{len(setups)} set-ups (import schrobridge, generate inputs): "
        + " ".join(f"{t:.4f}" for t in setups),
        f"peak_rss_mb  {peak_mb:.1f} MB  process peak over the run",
    ]
    return {"wall_s": statistics.median(warm),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mb}, lines


def _traced(args, session, cold: float, seconds: int
            ) -> tuple[dict, list[str]]:
    """Alternate untraced and traced calls, restoring originals in between."""
    import spans

    tracer = spans.Tracer(spans.schrobridge_hooks())
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while (len(traced) < MIN_CALLS or time.perf_counter() - start
           + statistics.median(untraced) + statistics.median(traced)
           <= seconds):
        untraced.append(session.call())
        with tracer:
            traced.append(session.call())
        session.problems.extend(f"{name} still wrapped after a traced call"
                                for name in tracer.not_restored())
    if tracer.call != len(traced):
        session.problems.append(f"{tracer.call} root spans for {len(traced)} "
                                "traced calls")
    per_call = [tracer.call_metrics(call)
                for call in range(1, tracer.call + 1)]
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    session.problems.extend(spans.trace_problems(args.workload, metrics))
    metrics["cli.cold_call_s"] = cold
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced))
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps(tracer.dump()))
    return metrics, [f"{len(traced)} traced calls alternating with "
                     f"{len(untraced)} untraced; spans written to "
                     f"{dump.relative_to(ROOT)}"]


def run_one(args, spec: dict) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cli, inputs, setup_s = set_up(args, workdir)
        import machine
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        session = Session(cli, inputs)
        cold = session.call()
        if args.trace:
            metrics, lines = _traced(args, session, cold, spec["run_seconds"])
        else:
            metrics, lines = _untraced(args, session, setup_s,
                                       spec["run_seconds"])
        if session.codes[-1] in (0, 4):
            try:
                session.problems.extend(workload.check(inputs))
            except (OSError, ValueError, KeyError) as e:
                session.problems.append(f"output check could not run: {e!r}")
        fs = machine.filesystem(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: computed {sorted(metrics)}, BENCHMARK.json "
                 f"lists {sorted(units)}")
    attempted = len(session.codes)
    codes = {c: session.codes.count(c) for c in sorted(set(session.codes), key=str)}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {spec['run_seconds']}")
    print("machine " + json.dumps(machine.describe(), sort_keys=True))
    print(f"artifacts in a temporary directory on {fs}, removed at exit")
    print("argv " + " ".join(inputs.argv))
    print(f"cold call    {cold:.4f} s  first call in this process")
    for line in lines:
        print(line)
    if args.trace:
        for name in units:
            print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    print(f"fail_ratio   {session.failed / attempted:.4f}  ({session.failed} of "
          f"{attempted} calls; exit codes {codes})")
    print("FAIL verdicts: " + (", ".join(sorted(session.failing_checks)) or "none"))
    for problem in session.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not session.problems, "attempted": attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}, the "
                     "run_seconds of BENCHMARK.json")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
