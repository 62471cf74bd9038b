"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_self_times_of_a_nested_trace():
    # root 0-10 with children 1-4 (holding 2-3), 5-9 and 8-12 (overlaps
    # its sibling and outlives the root); a second root 20-21 has none
    trace = [Span(0, None, 1, "root", 0.0, 10.0), Span(1, 0, 1, "a", 1.0, 4.0),
             Span(2, 1, 1, "a1", 2.0, 3.0), Span(3, 0, 1, "b", 5.0, 9.0),
             Span(4, 0, 1, "c", 8.0, 12.0), Span(5, None, 2, "r2", 20.0, 21.0)]
    got = spans.self_times(trace)
    assert got == {0: 10.0 - 3.0 - 5.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 4.0, 5: 1.0}


def test_self_times_of_nested_spans_add_up_to_the_root():
    trace = [Span(0, None, 1, "root", 0.0, 8.0), Span(1, 0, 1, "a", 0.5, 3.5),
             Span(2, 1, 1, "a1", 1.0, 1.25), Span(3, 1, 1, "a2", 2.0, 3.0),
             Span(4, 0, 1, "b", 4.0, 7.75), Span(5, 4, 1, "b1", 4.0, 7.75)]
    assert sum(spans.self_times(trace).values()) == 8.0


def _layer_metrics(**values):
    metrics = dict.fromkeys(spans.SELF_TIME_METRICS + spans.COUNT_METRICS, 0.0)
    metrics.update(values)
    return metrics


def test_trace_problems_report_a_contradicted_workload_reason():
    fk = _layer_metrics(**{"kernels.fk_solve_s": 2.0, "kernels.fk_solves": 39,
                           "kernels.matrix_build_s": 0.4, "cli.self_s": 0.01})
    assert spans.trace_problems("fk-bridge", fk) == []
    assert len(spans.trace_problems("bridge-solve", fk)) == 1
    fk["kernels.matrix_build_s"] = 3.0
    assert spans.trace_problems("fk-bridge", fk) == [
        "the largest self time on fk-bridge is kernels.matrix_build_s"]
    sim = _layer_metrics(**{"grids.field_at_s": 1.0, "grids.field_at_calls": 2000,
                            "dynamics.path_steps": 1e7})
    assert spans.trace_problems("simulate-bridge", sim) == []
    assert len(spans.trace_problems("gallery-qf", sim)) == 1
    assert len(spans.trace_problems("fk-bridge", sim)) == 3


def test_trace_problems_report_work_outside_the_wrapped_functions():
    metrics = _layer_metrics(**{"kernels.matrix_build_s": 0.5,
                                "cli.self_s": 0.05})
    assert spans.trace_problems("bridge-solve", metrics) == []
    metrics["cli.self_s"] = 0.2
    assert len(spans.trace_problems("bridge-solve", metrics)) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]

    def generate(seed):
        inputs = workload.inputs(seed, tmp_path)
        return inputs.argv, {f: (tmp_path / f).read_bytes() for f in inputs.files}

    first = generate(11)
    assert generate(11) == first
    assert generate(12) != first


def test_traced_call_restores_every_wrapped_name(tmp_path):
    from schrobridge import cli, gallery, grids, kernels, packet

    originals = {"main": cli.main, "run_scenario": gallery.run_scenario,
                 "solve_banded": kernels.solve_banded,
                 "from_kernel": vars(kernels.KernelMatrix)["from_kernel"],
                 "at": grids.FieldStack.at}
    tracer = spans.Tracer(spans.schrobridge_hooks())
    argv = ["bridge-solve", "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,2",
            "--grid-points", "65", "--time-slices", "5", "--out", str(tmp_path)]
    with tracer:
        assert cli.main is not originals["main"]
        assert "drift_forward" in vars(packet.PACKET)
        assert cli.main(argv) == 0
    assert tracer.not_restored() == []
    assert cli.main is originals["main"]
    assert gallery.run_scenario is originals["run_scenario"]
    assert kernels.solve_banded is originals["solve_banded"]
    assert vars(kernels.KernelMatrix)["from_kernel"] is originals["from_kernel"]
    assert grids.FieldStack.at is originals["at"]
    assert "drift_forward" not in vars(packet.PACKET)

    metrics = tracer.call_metrics(1)
    assert tracer.call == 1
    [root] = [s for s in tracer.spans if s.parent is None]
    # one (0, T) matrix for IPF plus 2 * (5 - 1) for propagation
    assert metrics["kernels.matrix_builds"] == 9
    assert metrics["kernels.matrix_bytes"] == 9 * 65 * 65 * 8
    assert metrics["scenario.write_bytes"] == sum(
        p.stat().st_size for p in tmp_path.iterdir())
    total = sum(metrics[k] for k in spans.SELF_TIME_METRICS)
    assert total == pytest.approx(root.end - root.start, abs=1e-9)
