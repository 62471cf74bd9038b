from __future__ import annotations

import errno
import json
import os
import re
import signal
import time

import numpy as np
import pytest

from schrobridge import (ConfigError, FieldStack, Grid1D, MissingInputError,
                         NumericFeynmanKacKernel, PathEnsemble, integrate,
                         sample_field, scenario)
from schrobridge.packet import PACKET
from schrobridge.scenario import (density_from_spec, kernel_from_config,
                                  load_scenario, write_density_csv,
                                  write_field_csv, write_paths_csv)


def _write_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadScenario:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_scenario(_write_config(tmp_path, {"pipeline": "bridge-solve"}))
        assert cfg.pipeline == "bridge-solve"
        assert cfg.kernel == {"tag": "heat"}
        assert cfg.horizon == 1.0
        assert cfg.make_grid() == Grid1D(-10.0, 10.0, 513)
        assert cfg.make_times().size == cfg.time_slices
        assert cfg.base_dir == tmp_path

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"pipeline": "bridge-solve",\n  "horizon": }')
        with pytest.raises(ConfigError, match=r"line 2, column 14"):
            load_scenario(path)

    def test_root_must_be_an_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('["pipeline"]')
        with pytest.raises(ConfigError, match="JSON object"):
            load_scenario(path)

    @pytest.mark.parametrize("payload, message", [
        ({"pipeline": "dance"}, "pipeline must be one of"),
        ({"horizon": 2.0}, "'pipeline' entry"),
        ({"pipeline": "simulate", "typo_key": 1}, "unknown config keys"),
        ({"pipeline": "simulate", "grid": {"dx": 0.1}}, "unknown grid keys"),
        ({"pipeline": "simulate", "sde": {"paths": 3}}, "unknown sde keys"),
        ({"pipeline": "simulate", "kernel": {}}, "'tag' entry"),
        ({"pipeline": "simulate", "time_slices": 1}, "at least 2"),
        ({"pipeline": "simulate", "horizon": -1.0}, "must be positive"),
        ({"pipeline": "simulate", "time_slices": 10.5},
         "time_slices must be an integer, got 10.5"),
        ({"pipeline": "simulate", "horizon": "1"},
         "horizon must be a number, got '1'"),
        ({"pipeline": "simulate", "horizon": True},
         "horizon must be a number, got True"),
        ({"pipeline": "simulate", "grid": {"n_points": 64.7}},
         "grid.n_points must be an integer, got 64.7"),
        ({"pipeline": "simulate", "sde": {"seed": 1.5}},
         "sde.seed must be an integer, got 1.5"),
        ({"pipeline": "simulate", "sde": {"n_paths": False}},
         "sde.n_paths must be an integer, got False"),
        ({"pipeline": "simulate", "grid": 5},
         "grid section must be an object, got 5"),
        ({"pipeline": "burgers-residual", "output_dir": 5},
         "output_dir must be a string, got 5"),
        ({"pipeline": "burgers-residual", "output_dir": ["o"]},
         r"output_dir must be a string, got \['o'\]"),
        ({"pipeline": "gallery", "scenario": ["x"]},
         r"scenario must be a string, got \['x'\]"),
    ])
    def test_validation_failures(self, tmp_path, payload, message):
        with pytest.raises(ConfigError, match=message):
            load_scenario(_write_config(tmp_path, payload))

    def test_a_null_output_dir_is_the_default(self, tmp_path):
        cfg = load_scenario(_write_config(
            tmp_path, {"pipeline": "burgers-residual", "output_dir": None}))
        assert cfg.output_dir is None


class TestDensityFromSpec:
    def test_gaussian_spec(self):
        grid = Grid1D(-12.0, 12.0, 769)
        f = density_from_spec({"form": "gaussian", "mean": 0.5, "var": 2.0},
                              grid)
        assert integrate(f) == pytest.approx(1.0, abs=1e-13)
        top = grid.nodes[np.argmax(f.values)]
        assert top == pytest.approx(0.5, abs=grid.spacing)

    def test_gaussian_rejects_bad_variance(self):
        with pytest.raises(ConfigError, match="positive variance"):
            density_from_spec({"form": "gaussian", "var": 0.0}, Grid1D())

    @pytest.mark.parametrize("spec", [17, {"form": "dirac"}, {}])
    def test_unrecognized_specs(self, spec):
        with pytest.raises(ConfigError):
            density_from_spec(spec, Grid1D())

    def test_csv_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError, match="density file not found"):
            density_from_spec({"csv": "gone.csv"}, Grid1D(),
                              base_dir=tmp_path)

    def test_csv_relative_path_resolves_against_base_dir(self, tmp_path):
        grid = Grid1D(-6.0, 6.0, 101)
        write_density_csv(tmp_path / "rho.csv",
                          sample_field(grid, PACKET.rho, 0.0))
        f = density_from_spec({"csv": "rho.csv"}, grid, base_dir=tmp_path)
        np.testing.assert_allclose(f.values, PACKET.rho(grid.nodes, 0.0),
                                   rtol=1e-6)

    @pytest.mark.parametrize("rows, message", [
        (["x,value", "0.0,abc"], "cannot parse"),
        (["x,value", "-9,0.1,0", "9,0.1,0"], "2 columns"),
        (["x,value", "-9,0.1", "-9,0.1", "9,0.1"], "must increase"),
        (["x,value", "-2,0.25", "2,0.25"], "spans"),
        (["x,value", "-9,nan", "9,0.1"], "non-finite"),
    ])
    def test_csv_structural_rejections(self, tmp_path, rows, message):
        path = tmp_path / "rho.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=message):
            density_from_spec({"csv": str(path)}, Grid1D(-5.0, 5.0, 65))

    def test_csv_mass_gate(self, tmp_path):
        grid = Grid1D(-5.0, 5.0, 65)
        path = tmp_path / "rho.csv"
        # uniform 0.2 over a 10-wide span integrates to 2.0
        path.write_text("x,value\n-6,0.2\n6,0.2\n")
        with pytest.raises(ConfigError, match="not normalized"):
            density_from_spec({"csv": str(path)}, grid)

    def test_csv_accepts_headerless_files_and_renormalizes(self, tmp_path):
        grid = Grid1D(-5.0, 5.0, 65)
        path = tmp_path / "rho.csv"
        # mass 1.0006 on the 10-wide grid, inside the 1e-3 gate; the
        # result is renormalized exactly
        path.write_text("-6,0.10006\n6,0.10006\n")
        f = density_from_spec({"csv": str(path)}, grid)
        assert integrate(f) == pytest.approx(1.0, abs=1e-15)
        assert np.ptp(f.values) == 0.0


class TestKernelFromConfig:
    def test_tagged_kernel_with_parameters(self):
        k = kernel_from_config({"tag": "heat", "nu": 0.25})
        assert k.tag == "heat"
        assert k.nu == 0.25

    def test_pinned_kernel_tag(self):
        assert kernel_from_config({"tag": "pinned-example2"}).tag == (
            "pinned-example2")

    @pytest.mark.parametrize("section", [
        {"tag": "heat", "nu": float("inf")},
        {"tag": "markov-family", "anchor_y": float("nan"), "anchor_s": 0.0}])
    def test_non_finite_parameter_is_a_config_error(self, section):
        with pytest.raises(ConfigError, match="must be"):
            kernel_from_config(section)

    def test_bad_parameter_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bad kernel section"):
            kernel_from_config({"tag": "heat", "viscosity": 1.0})

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            kernel_from_config({"tag": "telegraph"})

    @pytest.mark.parametrize("pot, check", [
        ({"kind": "zero"}, lambda p: p(np.zeros(1), 0.0)[0] == 0.0),
        ({"kind": "constant", "value": 0.8},
         lambda p: p(np.zeros(1), 0.0)[0] == 0.8),
        ({"kind": "packet"},
         lambda p: p(np.zeros(1), 0.0)[0] == pytest.approx(-1.0)),
    ])
    def test_numeric_fk_potentials(self, pot, check):
        k = kernel_from_config({"tag": "numeric-fk", "potential": pot},
                               grid=Grid1D(-4.0, 4.0, 65))
        assert isinstance(k, NumericFeynmanKacKernel)
        assert check(k.potential)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_numeric_fk_rejects_a_non_finite_constant(self, value):
        with pytest.raises(ConfigError, match="must be finite"):
            kernel_from_config(
                {"tag": "numeric-fk",
                 "potential": {"kind": "constant", "value": value}},
                grid=Grid1D(-4.0, 4.0, 65))

    def test_numeric_fk_rejects_unknown_potential(self):
        with pytest.raises(ConfigError, match="unknown potential kind"):
            kernel_from_config(
                {"tag": "numeric-fk", "potential": {"kind": "coulomb"}},
                grid=Grid1D(-4.0, 4.0, 65))


class TestWriters:
    def test_density_round_trip_is_lossless(self, tmp_path):
        grid = Grid1D(-8.0, 8.0, 257)
        original = sample_field(grid, PACKET.rho, 0.5)
        write_density_csv(tmp_path / "rho.csv", original)
        back = density_from_spec({"csv": "rho.csv"}, grid, base_dir=tmp_path)
        # %.17g survives the float round trip; only renormalization touches it
        np.testing.assert_allclose(back.values, original.values, rtol=1e-12)

    def test_field_csv_layout(self, tmp_path):
        grid = Grid1D(-1.0, 1.0, 3)
        from schrobridge import FieldStack
        stack = FieldStack(grid, np.array([0.0, 0.5]),
                           np.arange(6.0).reshape(2, 3))
        write_field_csv(tmp_path / "f.csv", stack)
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 6
        assert lines[1].split(",") == ["0", "-1", "0"]
        assert lines[4].split(",") == ["0.5", "-1", "3"]

    def test_paths_csv_orders_by_path_then_time(self, tmp_path):
        from schrobridge.dynamics import PathEnsemble, SDEConfig
        ens = PathEnsemble(times=np.array([0.0, 1.0]),
                           positions=np.array([[0.0, 1.0], [2.0, 3.0]]),
                           n_requested=2)
        write_paths_csv(tmp_path / "p.csv", ens)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines == ["path_id,t,x", "0,0,0", "0,1,1", "1,0,2", "1,1,3"]


_EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1e300, 0.1 + 0.2, -1.5, -2.5e-17, -1e300]


def _edge_field() -> FieldStack:
    """A 101 x 513 field of random magnitudes and _EDGE_VALUES."""
    rng = np.random.default_rng(17)
    values = (rng.standard_normal((101, 513))
              * 10.0 ** rng.integers(-300, 300, (101, 513)))
    values.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
    values[50, 100:100 + len(_EDGE_VALUES)] = _EDGE_VALUES
    times = np.concatenate(([0.0], np.sort(rng.random(100))))
    return FieldStack(Grid1D(), times, values)


@pytest.fixture()
def forks(monkeypatch):
    """The os.fork calls made while the writers see three cores."""
    made = []
    fork = os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(scenario, "cores", lambda: 3)
    monkeypatch.setattr(os, "fork", counted)
    return made


class TestWritersMatchTheFloatReference:
    """Each writer's bytes equal those of the per-element float() writers,
    whether one process or several format them."""

    @staticmethod
    def _same_bytes(tmp_path, write, reference, obj):
        write(tmp_path / "new.csv", obj)
        reference(tmp_path / "ref.csv", obj)
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        return got

    def test_field_with_edge_values(self, tmp_path, csv_reference, forks):
        got = self._same_bytes(tmp_path, write_field_csv, csv_reference.field,
                               _edge_field())
        assert len(forks) == 2  # three parts of 51,813 rows
        lines = got.decode().splitlines()
        assert len(lines) == 1 + 101 * 513
        assert lines[1] == "0,-10,-0"
        values = [line.split(",")[2] for line in lines[1:9]]
        assert values == [
            "-0", "4.9406564584124654e-324", "1e-300",
            "1.0000000000000001e+300", "0.30000000000000004", "-1.5",
            "-2.4999999999999999e-17", "-1.0000000000000001e+300"]

    def test_density(self, tmp_path, csv_reference, forks):
        density = sample_field(Grid1D(-8.0, 8.0, 257), PACKET.rho, 0.5)
        self._same_bytes(tmp_path, write_density_csv, csv_reference.density,
                         density)
        assert forks == []

    @pytest.mark.parametrize("times, positions", [
        (np.array([0.0, 0.1 + 0.2, 1.0]),
         np.array([[0.1, -0.0, 1e-300], [5e-324, 0.1 + 0.2, -1e300],
                   [np.nan, 2.0, -7.25]])),
        (np.array([0.0, 0.1 + 0.2, 1.0]), np.empty((0, 3))),
        (np.empty(0), np.empty((3, 0))),
    ], ids=["three-paths", "zero-paths", "zero-records"])
    def test_paths(self, tmp_path, csv_reference, times, positions):
        ens = PathEnsemble(times=times, positions=positions, n_requested=3)
        got = self._same_bytes(tmp_path, write_paths_csv, csv_reference.paths,
                               ens)
        if positions.size == 0:
            assert got == b"path_id,t,x\n"
        else:
            assert got.splitlines()[4] == b"1,0,4.9406564584124654e-324"

    def test_large_paths_table(self, tmp_path, csv_reference, forks):
        rng = np.random.default_rng(23)
        positions = (rng.standard_normal((10_000, 11))
                     * 10.0 ** rng.integers(-300, 300, (10_000, 11)))
        for path in (0, 5_000, 9_999):  # one in each of the three parts
            positions[path, 0] = np.nan
            positions[path, 3:3 + len(_EDGE_VALUES)] = _EDGE_VALUES
        ens = PathEnsemble(times=np.linspace(0.0, 1.0, 11),
                           positions=positions, n_requested=10_000)
        got = self._same_bytes(tmp_path, write_paths_csv, csv_reference.paths,
                               ens)
        assert len(forks) == 2  # three parts of 110,000 rows
        assert got.count(b"\n") == 1 + 110_000
        assert got.count(b",nan\n") == 3

    def test_one_core_formats_in_process(self, tmp_path, csv_reference,
                                         monkeypatch):
        def no_fork():
            raise AssertionError("forked on one core")

        monkeypatch.setattr(scenario, "cores", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        self._same_bytes(tmp_path, write_field_csv, csv_reference.field,
                         _edge_field())

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_failed_fork_leaves_its_ranges_to_the_caller(
            self, tmp_path, csv_reference, monkeypatch, failing):
        calls = []
        fork = os.fork

        def fork_until_refused():
            calls.append(None)
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(scenario, "cores", lambda: 3)
        monkeypatch.setattr(os, "fork", fork_until_refused)
        self._same_bytes(tmp_path, write_field_csv, csv_reference.field,
                         _edge_field())
        assert len(calls) == failing


def _fail():
    raise RuntimeError("formatting failed")


def _write_four_blocks(path, block):
    """Blocks 0-3 with rows enough for two parts: the caller formats blocks
    0 and 1, a forked child blocks 2 and 3."""
    scenario._write_lines(path, "k", 4, scenario.MIN_PART_ROWS, block)


class TestFailingWrites:
    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(scenario, "cores", lambda: 2)

    @pytest.mark.parametrize("fail, ending", [
        (_fail, "exited with status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         "was killed by signal 9")], ids=["raises", "killed"])
    def test_a_failing_back_range_fails_the_write_naming_the_file(
            self, tmp_path, fail, ending):
        path = tmp_path / "four.csv"

        def block(k):
            if k == 3:
                fail()
            return f"{k}\n"

        with pytest.raises(OSError, match=re.escape(
                f"could not write {path}: its formatting process {ending}")):
            _write_four_blocks(path, block)

    def test_a_failing_caller_range_kills_and_reaps_its_children(
            self, tmp_path):
        def block(k):
            if k == 0:
                _fail()
            time.sleep(60)  # the child's range; only a kill ends it in time
            return f"{k}\n"

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="formatting failed"):
            _write_four_blocks(tmp_path / "four.csv", block)
        assert time.perf_counter() - start < 30
