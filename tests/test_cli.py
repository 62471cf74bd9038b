from __future__ import annotations

import argparse
import errno
import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from schrobridge import Grid1D, KernelMatrix, bridge, cli, gallery, scenario
from schrobridge.kernels import KERNEL_TAGS


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_OUT, str(out))
    return out


BRIDGE_CONFIG = {
    "pipeline": "bridge-solve",
    "kernel": {"tag": "heat", "nu": 1.0},
    "boundary": {"rho0": {"form": "gaussian", "mean": 0.0, "var": 1.0},
                 "rhoT": {"form": "gaussian", "mean": 0.0, "var": 3.0}},
    "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 257},
    "time_slices": 6,
}

SIM_CONFIG = {
    "pipeline": "simulate",
    "scenario": "quantum-free",
    "grid": {"n_points": 257},
    "sde": {"n_paths": 2000, "dt": 1e-2, "seed": 11},
}


def test_bridge_solve_run_writes_all_artifacts(tmp_path, outdir, capsys):
    code = cli.main(["run", "--config", _write_config(tmp_path, BRIDGE_CONFIG)])
    assert code == cli.EXIT_OK
    for name in ("u0.csv", "vT.csv", "rho.csv", "drift-forward.csv",
                 "drift-backward.csv", "bridge-report.txt",
                 "bridge-report.json"):
        assert (outdir / name).is_file(), name
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    payload = json.loads((outdir / "bridge-report.json").read_text())
    assert payload["all_passed"] is True


def test_boundary_recovery_is_read_off_the_written_density(tmp_path, outdir):
    assert cli.main(["run", "--config",
                     _write_config(tmp_path, BRIDGE_CONFIG)]) == cli.EXIT_OK
    checks = json.loads((outdir / "bridge-report.json").read_text())["checks"]
    measured = {c["name"]: c["measured"] for c in checks}
    table = np.loadtxt(outdir / "rho.csv", delimiter=",", skiprows=1)
    grid = Grid1D(**BRIDGE_CONFIG["grid"])
    rho0 = scenario.density_from_spec(BRIDGE_CONFIG["boundary"]["rho0"], grid)
    l1 = grid.weights @ np.abs(table[table[:, 0] == 0.0, 2] - rho0.values)
    assert measured["boundary-recovery-l1"] == pytest.approx(l1, rel=1e-12)

def test_explicit_out_flag_beats_the_environment(tmp_path, outdir):
    target = tmp_path / "elsewhere"
    code = cli.main(["run", "--config", _write_config(tmp_path, BRIDGE_CONFIG),
                     "--out", str(target)])
    assert code == cli.EXIT_OK
    assert (target / "bridge-report.txt").is_file()
    assert not outdir.exists()


def test_seeded_simulation_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, SIM_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", cfg, "--out", str(b)]) == cli.EXIT_OK
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_seed_override_changes_the_paths(tmp_path):
    cfg = _write_config(tmp_path, SIM_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", cfg, "--out", str(b),
                     "--seed", "12"]) == cli.EXIT_OK
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_backward_simulation_subcommand(tmp_path, outdir):
    code = cli.main(["simulate", "--direction", "backward",
                     "--n-paths", "2000", "--dt", "1e-2", "--seed", "3",
                     "--grid-points", "257"])
    assert code == cli.EXIT_OK
    assert (outdir / "paths.csv").is_file()
    assert (outdir / "simulate-report.txt").is_file()


FK_CONFIG = {
    "pipeline": "bridge-solve",
    "kernel": {"tag": "numeric-fk", "potential": {"kind": "packet"}},
    "boundary": {"rho0": {"form": "gaussian", "mean": 0.0, "var": 1.0},
                 "rhoT": {"form": "gaussian", "mean": 0.0, "var": 2.0}},
    "grid": {"n_points": 257},
    "time_slices": 21,
}


def test_numeric_fk_bridge_run_passes(tmp_path, outdir):
    code = cli.main(["run", "--config", _write_config(tmp_path, FK_CONFIG)])
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "bridge-report.json").read_text())
    assert payload["all_passed"] is True


def test_numeric_fk_bridge_drives_a_simulation(tmp_path, outdir):
    payload = dict(FK_CONFIG, pipeline="simulate",
                   sde={"n_paths": 2000, "dt": 1e-2, "seed": 5})
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_OK
    assert (outdir / "simulate-report.txt").is_file()


@pytest.mark.parametrize("value, message", [
    (1e6, "pass n_substeps explicitly"),
    (float("inf"), "must be finite"),
])
def test_numeric_fk_strong_potential_fails_fast(tmp_path, outdir, capsys,
                                                value, message):
    # json writes inf as Infinity, which json.loads reads back
    payload = dict(FK_CONFIG, kernel={
        "tag": "numeric-fk", "potential": {"kind": "constant", "value": value}})
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_numeric_fk_infinite_diffusivity_is_a_config_error(tmp_path, outdir,
                                                          capsys):
    payload = dict(FK_CONFIG, kernel={
        "tag": "numeric-fk", "potential": {"kind": "zero", "nu": float("inf")}})
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert "nu must be positive and finite" in capsys.readouterr().err


def test_burgers_subcommand(outdir):
    assert cli.main(["burgers-residual"]) == cli.EXIT_OK
    assert (outdir / "burgers-report.txt").is_file()


def test_ck_subcommand_passes_for_a_consistent_kernel(outdir):
    code = cli.main(["kernel-check-ck", "--kernel", "heat",
                     "--grid-points", "257"])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("s, code", [(0.0, cli.EXIT_CONFIG),
                                     (0.4, cli.EXIT_CONFIG),
                                     (0.5, cli.EXIT_OK)])
def test_ck_subcommand_names_both_flags_for_s_before_the_anchor(outdir, capsys,
                                                               s, code):
    assert cli.main(["kernel-check-ck", "--kernel", "markov-family",
                     "--anchor-s", "0.5", "--s", str(s), "--tau", "0.7",
                     "--grid-points", "257"]) == code
    if code == cli.EXIT_CONFIG:
        err = capsys.readouterr().err
        assert (f"ck s (--s) = {s:g} is before the markov-family anchor_s "
                "(--anchor-s) = 0.5, its first time") in err


def test_ck_subcommand_flags_the_inconsistent_kernel(outdir, capsys):
    code = cli.main(["kernel-check-ck", "--kernel", "pinned-example2",
                     "--grid-points", "257"])
    assert code == cli.EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_bridge_solve_direct_flags(outdir):
    code = cli.main(["bridge-solve", "--kernel", "heat",
                     "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,3",
                     "--grid-points", "129", "--time-slices", "3"])
    assert code == cli.EXIT_OK
    assert (outdir / "u0.csv").is_file()


@pytest.mark.parametrize("anchor", [[], ["--anchor-y", "0.5", "--anchor-s", "0"]],
                         ids=["default-anchor", "anchor-flags"])
def test_bridge_solve_markov_family(outdir, anchor):
    code = cli.main(["bridge-solve", "--kernel", "markov-family", *anchor,
                     "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,2",
                     "--grid-points", "129", "--time-slices", "11"])
    assert code == cli.EXIT_OK


def test_a_tilted_bridge_solve_runs_and_reruns_byte_identically(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        code = cli.main(["bridge-solve", "--kernel", "quantum-k2",
                         "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,2",
                         "--grid-points", "129", "--out", str(out)])
        assert code == cli.EXIT_OK
    names = sorted(p.name for p in runs[0].iterdir())
    assert {"bridge-report.json", "rho.csv", "drift-forward.csv"} <= set(names)
    assert sorted(p.name for p in runs[1].iterdir()) == names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["bridge-solve", "simulate", "run"])
def test_a_markov_anchor_after_t0_is_refused_before_any_build(
        command, tmp_path, outdir, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(KernelMatrix, "from_kernel",
                        classmethod(lambda cls, *args: builds.append(args)))
    if command == "bridge-solve":
        argv = ["bridge-solve", "--kernel", "markov-family", "--anchor-s",
                "0.5", "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,2",
                "--grid-points", "129"]
    else:
        config = dict(BRIDGE_CONFIG, kernel={
            "tag": "markov-family", "anchor_y": 0.0, "anchor_s": 0.5})
        if command == "simulate":
            config["pipeline"] = "simulate"
        argv = [command, "--config", _write_config(tmp_path, config)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("anchor_s (--anchor-s) = 0.5 > 0, but the slice lattice starts "
            "at t = 0") in err
    assert builds == []


def test_bridge_solve_hands_the_anchor_flags_to_the_kernel(outdir, capsys):
    code = cli.main(["bridge-solve", "--kernel", "markov-family",
                     "--anchor-s", "-1", "--rho0", "gaussian:0,1",
                     "--rhoT", "gaussian:0,2", "--grid-points", "129"])
    assert code == cli.EXIT_NUMERIC
    assert "anchor time must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--kernel", "heat", "--nu", "inf"], "nu must be positive and finite"),
    (["--kernel", "heat", "--nu", "nan"], "nu must be positive and finite"),
    (["--kernel", "markov-family", "--anchor-y", "inf"],
     "anchor_y must be finite"),
    (["--kernel", "markov-family", "--anchor-s", "nan"],
     "anchor_s must be finite"),
])
def test_non_finite_kernel_flags_are_config_errors(outdir, capsys, flags,
                                                   message):
    code = cli.main(["bridge-solve", *flags, "--rho0", "gaussian:0,1",
                     "--rhoT", "gaussian:0,3", "--grid-points", "129"])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--horizon", "inf"], "horizon must be positive and finite"),
    (["--tol", "nan"], "IPF tol must be positive and finite, got nan"),
    (["--tol", "0"], "IPF tol must be positive and finite, got 0.0"),
    (["--tol", "-1"], "IPF tol must be positive and finite, got -1.0"),
    (["--rho0", "gaussian:0,inf"], "'mean': 0.0, 'var': inf}"),
    (["--rho0", "gaussian:0,nan"], "'mean': 0.0, 'var': nan}"),
    (["--rho0", "gaussian:nan,1"], "'mean': nan, 'var': 1.0}"),
    (["--x-min", "nan"], "grid.x_min must be finite, got nan"),
    (["--x-max", "inf"], "grid.x_max must be finite, got inf"),
], ids=["horizon-inf", "tol-nan", "tol-0", "tol-negative", "var-inf",
        "var-nan", "mean-nan", "x-min-nan", "x-max-inf"])
def test_out_of_range_run_parameters_are_refused_before_any_sweep(
        outdir, capsys, monkeypatch, flags, message):
    sweeps = []
    residual = bridge.marginal_l1_residual
    monkeypatch.setattr(bridge, "marginal_l1_residual",
                        lambda *args: sweeps.append(args) or residual(*args))
    code = cli.main(["bridge-solve", "--rho0", "gaussian:0,1",
                     "--rhoT", "gaussian:0,3", "--grid-points", "129",
                     "--time-slices", "11", *flags])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sweeps == []


def test_run_tol_override_is_checked_by_the_solver(tmp_path, outdir, capsys):
    # --tol is set after the config has been validated
    code = cli.main(["run", "--config", _write_config(tmp_path, BRIDGE_CONFIG),
                     "--tol", "nan"])
    assert code == cli.EXIT_CONFIG
    assert "IPF tol must be positive and finite" in capsys.readouterr().err


def test_bridge_paths_diffuse_at_the_kernel_nu(tmp_path, outdir):
    # a heat nu = 0.5 bridge: paths at nu = 1 against its nu = 0.5 drift
    # ended with variance 4.197 against 3
    payload = dict(BRIDGE_CONFIG, pipeline="simulate",
                   kernel={"tag": "heat", "nu": 0.5}, time_slices=51,
                   sde={"n_paths": 4000, "seed": 3})
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_OK
    report = json.loads((outdir / "simulate-report.json").read_text())
    assert report["all_passed"] is True


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0.003"], "horizon 1.0 is not a whole number of steps of 0.003"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
])
def test_simulate_refuses_its_step_and_seed_before_the_solve(
        tmp_path, outdir, capsys, monkeypatch, flags, message):
    def no_build(cls, *args):
        raise AssertionError("a kernel matrix was built")
    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(no_build))
    config = dict(BRIDGE_CONFIG, pipeline="simulate")
    code = cli.main(["simulate", "--config", _write_config(tmp_path, config),
                     *flags])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_gallery_subcommand_writes_the_suite_report(outdir, monkeypatch,
                                                    gallery_report):
    # the session's example1 report stands in for a second run of the suite
    monkeypatch.setattr(gallery, "run_scenario", gallery_report)
    assert cli.main(["gallery", "example1"]) == cli.EXIT_OK
    payload = json.loads((outdir / "example1-report.json").read_text())
    assert payload["scenario"] == "example1" and payload["all_passed"]
    assert (outdir / "example1-report.txt").is_file()


def test_the_quantum_free_suite_runs_off_its_default_grid(outdir):
    # the transition probes are the nodes nearest fixed points of the
    # default box; with few paths only the Monte Carlo checks may fail
    code = cli.main(["gallery", "quantum-free", "--grid-points", "513",
                     "--n-paths", "2000"])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    payload = json.loads((outdir / "quantum-free-report.json").read_text())
    assert payload["config"]["grid_points"] == 513
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert failed <= {"forward-mc-variance-0.5", "forward-mc-variance-1.0",
                      "backward-mc-ks", "slice-consistency-ks"}
    assert "transition-normalization" in {c["name"]
                                          for c in payload["checks"]}


def test_the_quantum_free_suite_refuses_a_grid_it_cannot_resolve(
        outdir, capsys, monkeypatch):
    # at 257 points the quantum-k1 bridge's slice-1 mass drifts by 3.2e-2
    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(
        lambda cls, *args: pytest.fail("a kernel matrix was built")))
    code = cli.main(["gallery", "quantum-free", "--grid-points", "257"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: the quantum-free suite needs at least 398 grid points "
        "to resolve its first slice, got 257\n")
    assert gallery.QF_MIN_GRID_POINTS == 398
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--seed", "--n-paths"])
def test_gallery_path_flags_are_quantum_free_only(outdir, capsys, flag):
    assert cli.main(["gallery", "example1", flag, "3"]) == cli.EXIT_CONFIG
    assert f"{flag} " in capsys.readouterr().err


@pytest.mark.parametrize("payload, flags, message", [
    ({"grid": {"x_min": -3.0}}, [], "--x-min (grid.x_min)"),
    ({"time_slices": 7}, [], "--time-slices (time_slices)"),
    ({}, ["--tol", "5"], "--tol (ipf_tol)"),
    ({"sde": {"dt": 0.01}}, [], "--dt (sde.dt)"),
    ({"kernel": {"tag": "heat"}}, [], "--kernel (kernel.tag)"),
], ids=["x-min", "time-slices", "tol", "dt", "kernel"])
def test_a_gallery_suite_refuses_config_keys_it_does_not_read(
        tmp_path, outdir, capsys, monkeypatch, payload, flags, message):
    monkeypatch.setattr(gallery, "run_scenario",
                        lambda *args, **kwargs: pytest.fail("the suite ran"))
    cfg = _write_config(tmp_path, dict(payload, pipeline="gallery",
                                       scenario="example1"))
    assert cli.main(["run", "--config", cfg, *flags]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {message} is not read by the example1 suite\n")


@pytest.mark.parametrize("argv", [["--scenario", "quantum-free"], []],
                         ids=["flag", "config"])
def test_a_simulation_along_a_bridge_refuses_a_scenario(
        tmp_path, outdir, capsys, monkeypatch, argv):
    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(
        lambda cls, *args: pytest.fail("a kernel matrix was built")))
    config = dict(BRIDGE_CONFIG, pipeline="simulate")
    if not argv:
        config["scenario"] = "example1"
    code = cli.main(["simulate", "--config", _write_config(tmp_path, config),
                     *argv])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: --scenario (scenario) is not read by simulate with a "
        "boundary section\n")


@pytest.mark.parametrize("payload, argv, message", [
    (BRIDGE_CONFIG, ["--seed", "3"], "--seed (sde.seed) is not read by "
     "bridge-solve"),
    ({"pipeline": "burgers-residual", "grid": {"n_points": 129}}, [],
     "--grid-points (grid.n_points) is not read by burgers-residual"),
    ({"pipeline": "kernel-check-ck", "kernel": {"tag": "heat"},
      "horizon": 2.0}, [], "--horizon (horizon) is not read by "
     "kernel-check-ck"),
    (dict(SIM_CONFIG, time_slices=11), [], "--time-slices (time_slices) is "
     "not read by simulate without a boundary section"),
], ids=["bridge-solve", "burgers-residual", "kernel-check-ck", "simulate"])
def test_every_core_refuses_config_keys_it_does_not_read(
        tmp_path, outdir, capsys, payload, argv, message):
    code = cli.main(["run", "--config", _write_config(tmp_path, payload),
                     *argv])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not outdir.exists()


def test_sde_nu_is_not_a_config_key(tmp_path, outdir, capsys):
    payload = dict(SIM_CONFIG, sde=dict(SIM_CONFIG["sde"], nu=0.5))
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert "unknown sde keys: ['nu']" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"form": "gaussian", "mean": "0.5", "var": True},
     "gaussian density mean must be a number, got '0.5'"),
    ({"form": "gaussian", "mean": 0.5, "var": True},
     "gaussian density var must be a number, got True"),
])
def test_density_values_of_the_wrong_type_name_their_key(tmp_path, outdir,
                                                         capsys, spec,
                                                         message):
    payload = dict(BRIDGE_CONFIG,
                   boundary=dict(BRIDGE_CONFIG["boundary"], rho0=spec))
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kernel, message", [
    ({"tag": "heat", "nu": "1"}, "kernel.nu must be a number, got '1'"),
    ({"tag": "markov-family", "anchor_y": 0.0, "anchor_s": False},
     "kernel.anchor_s must be a number, got False"),
    ({"tag": "numeric-fk", "potential": {"kind": "zero", "nu": "1"}},
     "kernel.potential.nu must be a number, got '1'"),
    ({"tag": "numeric-fk", "potential": {"kind": "constant", "value": "2"}},
     "kernel.potential.value must be a number, got '2'"),
    ({"tag": "numeric-fk", "n_substeps": 40.0},
     "kernel.n_substeps must be an integer, got 40.0"),
])
def test_kernel_values_of_the_wrong_type_name_their_key(tmp_path, outdir,
                                                        capsys, kernel,
                                                        message):
    payload = dict(BRIDGE_CONFIG, kernel=kernel)
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_list_scenarios_prints_the_gallery_names(capsys, outdir):
    assert cli.main(["list-scenarios"]) == cli.EXIT_OK
    names = capsys.readouterr().out.split()
    assert {"example1", "example2", "quantum-free"} <= set(names)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, outdir, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "gone.json")])
        assert code == cli.EXIT_MISSING
        assert "missing input" in capsys.readouterr().err

    def test_bad_pipeline_name(self, tmp_path, outdir, capsys):
        cfg = _write_config(tmp_path, {"pipeline": "dance"})
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_density_csv(self, tmp_path, outdir):
        payload = dict(BRIDGE_CONFIG)
        payload["boundary"] = {"rho0": {"csv": "gone.csv"},
                               "rhoT": {"form": "gaussian"}}
        cfg = _write_config(tmp_path, payload)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_MISSING

    @pytest.mark.parametrize("what", ["config", "density"])
    def test_an_unreadable_input_is_a_missing_input(self, tmp_path, outdir,
                                                   capsys, monkeypatch, what):
        (tmp_path / "rho0.csv").write_text("x,value\n-10,0.05\n10,0.05\n")
        cfg = _write_config(tmp_path, dict(BRIDGE_CONFIG, boundary={
            "rho0": {"csv": "rho0.csv"}, "rhoT": {"form": "gaussian"}}))
        owner, name, path = {
            "config": (Path, "read_text", cfg),
            "density": (scenario.np, "loadtxt", tmp_path / "rho0.csv")}[what]

        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(path))

        monkeypatch.setattr(owner, name, denied)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_MISSING
        assert (f"cannot read {what} file {path}: Permission denied"
                in capsys.readouterr().err)

    def test_an_output_directory_under_a_file_is_an_output_error(
            self, tmp_path, capsys, monkeypatch):
        # refused before the solve: no kernel matrix is built
        monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(
            lambda cls, *args: pytest.fail("a kernel matrix was built")))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["bridge-solve", "--rho0", "gaussian:0,1",
                         "--rhoT", "gaussian:0,3",
                         "--out", str(blocker / "sub")])
        assert code == cli.EXIT_OUTPUT
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(blocker / "sub") in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, values", [
        ("gaussian:100,1", "'mean': 100.0, 'var': 1.0"),
        ("gaussian:0.01,1e-8", "'mean': 0.01, 'var': 1e-08"),
    ], ids=["off-grid", "between-nodes"])
    def test_a_density_spec_with_no_mass_on_the_grid_is_a_config_error(
            self, outdir, capsys, spec, values):
        code = cli.main(["bridge-solve", "--rho0", spec,
                         "--rhoT", "gaussian:0,3"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: gaussian density {{'form': 'gaussian', {values}}} "
            "has no mass on the grid span [-10, 10]\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("spec, key", [
        ({"form": "gaussian", "mean": 0, "variance": 4.0}, "variance"),
        ({"form": "gaussian", "var": 2.0, "csv_path": "rho0.csv"},
         "csv_path"),
        ({"csv": "rho0.csv", "var": 2.0}, "var"),
    ], ids=["gaussian-variance", "gaussian-csv-path", "csv-var"])
    def test_an_unknown_density_spec_key_is_a_config_error(
            self, tmp_path, outdir, capsys, spec, key):
        xs = np.linspace(-10.0, 10.0, 201)
        np.savetxt(tmp_path / "rho0.csv", np.column_stack(
            (xs, np.exp(-xs ** 2 / 2.0) / np.sqrt(2.0 * np.pi))),
            delimiter=",")
        payload = dict(BRIDGE_CONFIG,
                       boundary=dict(BRIDGE_CONFIG["boundary"], rho0=spec))
        code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown density spec {spec!r} keys: ['{key}']\n")
        assert not outdir.exists()

    def test_a_failed_formatting_process_is_an_output_error(
            self, outdir, capsys, monkeypatch):
        monkeypatch.setattr(scenario, "cores", lambda: 2)
        monkeypatch.setattr(scenario, "_format_and_exit",
                            lambda *args: os._exit(1))
        code = cli.main(["bridge-solve", "--rho0", "gaussian:0,1",
                         "--rhoT", "gaussian:0,3"])
        assert code == cli.EXIT_OUTPUT
        assert capsys.readouterr().err == (
            f"output error: could not write {outdir / 'rho.csv'}: its "
            "formatting process exited with status 1\n")

    def test_bad_density_flag_is_a_config_error(self, outdir, capsys):
        code = cli.main(["bridge-solve", "--rho0", "uniform:0,1",
                         "--rhoT", "gaussian:0,3"])
        assert code == cli.EXIT_CONFIG
        assert "density spec" in capsys.readouterr().err

    def test_a_refused_run_makes_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["bridge-solve", "--kernel", "nope",
                         "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,3",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "unknown kernel tag" in capsys.readouterr().err
        assert not out.exists()

    def test_unordered_probe_times_are_a_numeric_error(self, outdir, capsys):
        code = cli.main(["kernel-check-ck", "--kernel", "heat",
                         "--s", "0.5", "--tau", "0.5", "--t", "1.0",
                         "--grid-points", "129"])
        assert code == cli.EXIT_NUMERIC
        assert "error" in capsys.readouterr().err

    def test_unconverged_ipf_names_its_marginal_residual(self, outdir,
                                                        capsys):
        # plain IPF contracts by ~0.96 per sweep on this short horizon; the
        # change test gives up while the marginals already match to ~5e-11
        code = cli.main(["bridge-solve", "--rho0", "gaussian:0,1",
                         "--rhoT", "gaussian:0,1.02", "--horizon", "0.01"])
        assert code == cli.EXIT_NUMERIC
        found = re.search(r"IPF did not reach tol=1e-12 within 500 sweeps "
                          r"\(last change (\S+), marginal residual (\S+)\)",
                          capsys.readouterr().err)
        assert found is not None
        change, residual = map(float, found.groups())
        assert change > 1e-12 and residual < 1e-10

    @pytest.mark.parametrize("flag", ["--rho0", "--rhoT"])
    def test_underflowing_boundary_density_names_its_first_zero_node(
            self, outdir, capsys, flag):
        # exp(-x^2 / 0.1) underflows to 0 for |x| > ~8.4 on [-10, 10]
        other = "--rhoT" if flag == "--rho0" else "--rho0"
        code = cli.main(["bridge-solve", flag, "gaussian:0,0.05",
                         other, "gaussian:0,1"])
        assert code == cli.EXIT_NUMERIC
        assert (f"{flag[2:]} must be strictly positive: 72 of 513 nodes are "
                "<= 0, the first is node 0 (x = -10, value 0.000e+00)"
                in capsys.readouterr().err)

    def test_argparse_rejects_unknown_subcommands(self, outdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


# -- one route: a flag the user gave, then the config file, then the default

def _report(outdir, stem):
    return json.loads((outdir / f"{stem}-report.json").read_text())


def test_simulate_direction_flag_beats_the_config(tmp_path):
    cfg = _write_config(tmp_path, dict(SIM_CONFIG, sde=dict(
        SIM_CONFIG["sde"], direction="forward")))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--direction", "backward",
                     "--out", str(out)]) == cli.EXIT_OK
    assert _report(out, "simulate")["config"]["direction"] == "backward"


def test_simulate_grid_points_flag_beats_the_config(tmp_path):
    flagged, written = tmp_path / "flagged", tmp_path / "written"
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, SIM_CONFIG, "a.json"),
                     "--grid-points", "129", "--out", str(flagged)]
                    ) == cli.EXIT_OK
    assert cli.main(["run", "--config", _write_config(
        tmp_path, dict(SIM_CONFIG, grid={"n_points": 129}), "b.json"),
        "--out", str(written)]) == cli.EXIT_OK
    assert ((flagged / "paths.csv").read_bytes()
            == (written / "paths.csv").read_bytes())


def test_simulate_config_output_dir_beats_the_environment(tmp_path, outdir):
    target = tmp_path / "from-config"
    cfg = _write_config(tmp_path, dict(SIM_CONFIG, output_dir=str(target)))
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    assert (target / "paths.csv").is_file()
    assert not outdir.exists()


def test_simulate_scenario_flag_beats_the_config(tmp_path, outdir, capsys):
    cfg = _write_config(tmp_path, SIM_CONFIG)
    code = cli.main(["simulate", "--config", cfg, "--scenario", "example1"])
    assert code == cli.EXIT_CONFIG
    assert ("scenario 'example1' has no constant-diffusivity process"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kernel, flag, key", [
    ("example1", "--nu", "nu"), ("heat", "--anchor-y", "anchor_y"),
    ("markov-family", "--nu", "nu")])
def test_a_kernel_flag_for_another_kernel_is_refused(outdir, capsys, kernel,
                                                     flag, key):
    code = cli.main(["bridge-solve", "--kernel", kernel, flag, "7",
                     "--rho0", "gaussian:0,1", "--rhoT", "gaussian:0,3",
                     "--grid-points", "129", "--time-slices", "3"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad kernel section: ")
    assert f"unexpected keyword argument '{key}'" in err


def test_bridge_solve_flags_and_a_run_config_write_the_same_bytes(tmp_path):
    flagged, written = tmp_path / "flagged", tmp_path / "written"
    assert cli.main(["bridge-solve", "--kernel", "markov-family",
                     "--anchor-y", "0.3", "--rho0", "gaussian:0.1,1",
                     "--rhoT", "gaussian:-0.2,2", "--horizon", "0.8",
                     "--x-min", "-9", "--x-max", "8", "--grid-points", "129",
                     "--time-slices", "9", "--tol", "1e-11",
                     "--out", str(flagged)]) == cli.EXIT_OK
    cfg = _write_config(tmp_path, {
        "pipeline": "bridge-solve",
        "kernel": {"tag": "markov-family", "anchor_y": 0.3},
        "boundary": {"rho0": {"form": "gaussian", "mean": 0.1, "var": 1.0},
                     "rhoT": {"form": "gaussian", "mean": -0.2, "var": 2.0}},
        "horizon": 0.8, "grid": {"x_min": -9.0, "x_max": 8.0, "n_points": 129},
        "time_slices": 9, "ipf_tol": 1e-11, "output_dir": str(written)})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
    names = sorted(p.name for p in flagged.iterdir())
    assert names == sorted(p.name for p in written.iterdir())
    assert len(names) == 7
    for name in names:
        assert (flagged / name).read_bytes() == (written / name).read_bytes()


def test_gallery_flags_and_a_gallery_config_write_the_same_report(tmp_path):
    flagged, written = tmp_path / "flagged", tmp_path / "written"
    assert cli.main(["gallery", "example1", "--grid-points", "129",
                     "--out", str(flagged)]) == cli.EXIT_OK
    cfg = _write_config(tmp_path, {"pipeline": "gallery",
                                   "scenario": "example1",
                                   "grid": {"n_points": 129}})
    assert cli.main(["run", "--config", cfg, "--out", str(written)]
                    ) == cli.EXIT_OK
    assert _report(flagged, "example1")["config"]["grid_points"] == 129
    for name in ("example1-report.txt", "example1-report.json"):
        assert (flagged / name).read_bytes() == (written / name).read_bytes()


def test_the_markov_anchors_default_to_zero_in_a_config_too(tmp_path, outdir):
    payload = dict(BRIDGE_CONFIG, kernel={"tag": "markov-family"})
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_OK


def test_a_config_without_a_kernel_section_solves_heat(tmp_path, outdir):
    payload = {k: v for k, v in BRIDGE_CONFIG.items() if k != "kernel"}
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_OK
    assert _report(outdir, "bridge")["config"]["kernel"] == "heat"


@pytest.mark.parametrize("kernel, message", [
    ({"tag": "numeric-fk", "nu": 5, "typo": 1,
      "potential": {"kind": "zero", "bogus": 3}},
     "unknown kernel keys: ['nu', 'typo']"),
    ({"tag": "numeric-fk", "potential": {"kind": "zero", "bogus": 3}},
     "unknown kernel.potential keys: ['bogus']"),
    ({"tag": "numeric-fk", "potential": {"kind": "packet", "nu": 2}},
     "unknown packet potential keys: ['nu']"),
    ({"tag": "numeric-fk", "potential": {"kind": "zero", "value": 3}},
     "unknown zero potential keys: ['value']"),
    ({"tag": "numeric-fk", "potential": 5},
     "kernel.potential section must be an object, got 5"),
], ids=["kernel-keys", "potential-key", "packet-nu", "zero-value",
        "not-an-object"])
def test_numeric_fk_sections_refuse_keys_they_do_not_read(
        tmp_path, outdir, capsys, monkeypatch, kernel, message):
    monkeypatch.setattr(KernelMatrix, "from_kernel", classmethod(
        lambda cls, *args: pytest.fail("a kernel matrix was built")))
    payload = dict(FK_CONFIG, kernel=kernel)
    code = cli.main(["run", "--config", _write_config(tmp_path, payload)])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_a_flag_over_a_config_section_that_is_not_an_object(tmp_path, outdir,
                                                           capsys):
    cfg = _write_config(tmp_path, dict(SIM_CONFIG, grid=5))
    code = cli.main(["simulate", "--config", cfg, "--grid-points", "129"])
    assert code == cli.EXIT_CONFIG
    assert "grid section must be an object, got 5" in capsys.readouterr().err


def _accepted_keys() -> set[str]:
    """Every key a ScenarioConfig accepts, "section.key" in a section."""
    keys = set(scenario._TOP_KEYS)
    for section, names in (("boundary", scenario._BOUNDARY_KEYS),
                           ("grid", scenario._GRID_KEYS),
                           ("sde", scenario._SDE_KEYS),
                           ("ck", scenario._CK_KEYS)):
        keys |= {f"{section}.{name}" for name in names}
    kernel = {"tag", "potential", "n_substeps"}
    for factory in KERNEL_TAGS.values():
        if not isinstance(factory, type):
            kernel |= set(inspect.signature(factory).parameters)
    return keys | {f"kernel.{name}" for name in kernel}


def test_every_flag_sets_a_config_key_and_has_no_default():
    # a flag with its own default, or one that feeds something other than
    # the config, would be a second route from the command line to a run
    parser = cli.build_parser()
    accepted = _accepted_keys()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == {
        "run", "bridge-solve", "simulate", "burgers-residual",
        "kernel-check-ck", "gallery", "list-scenarios"}
    seen = set()
    for command, sub in subparsers.choices.items():
        assert sub._defaults == {}, command
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            where = f"{command} {'/'.join(action.option_strings) or action.dest}"
            if action.option_strings == ["--config"]:
                assert action.dest == "config", where
                continue
            assert action.default is None, where
            assert action.dest in accepted, where
            seen.add(action.dest)
    assert seen == {key for key, _ in cli.FLAG_KEYS.values()} | {"scenario"}
