from __future__ import annotations

import json

import numpy as np
import pytest

from schrobridge import (ConfigError, Grid1D, MissingInputError,
                         NumericFeynmanKacKernel, integrate, sample_field)
from schrobridge.kernels import HeatKernel, PinnedGaussianKernel
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
        assert cfg.kernel == {"tag": "quantum-k1"}
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
    ])
    def test_validation_failures(self, tmp_path, payload, message):
        with pytest.raises(ConfigError, match=message):
            load_scenario(_write_config(tmp_path, payload))


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
        assert isinstance(k, HeatKernel)
        assert k.nu == 0.25

    def test_pinned_kernel_tag(self):
        assert isinstance(kernel_from_config({"tag": "pinned-example2"}),
                          PinnedGaussianKernel)

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
                           config=SDEConfig(n_paths=2, dt=1e-2, seed=0),
                           horizon=1.0, n_requested=2)
        write_paths_csv(tmp_path / "p.csv", ens)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines == ["path_id,t,x", "0,0,0", "0,1,1", "1,0,2", "1,1,3"]
