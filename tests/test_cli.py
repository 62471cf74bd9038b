from __future__ import annotations

import json

import pytest

from schrobridge import cli


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


def test_burgers_subcommand(outdir):
    assert cli.main(["burgers-residual"]) == cli.EXIT_OK
    assert (outdir / "burgers-report.txt").is_file()


def test_ck_subcommand_passes_for_a_consistent_kernel(outdir):
    code = cli.main(["kernel-check-ck", "--kernel", "heat",
                     "--grid-points", "257"])
    assert code == cli.EXIT_OK


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

    def test_bad_density_flag_is_a_config_error(self, outdir, capsys):
        code = cli.main(["bridge-solve", "--rho0", "uniform:0,1",
                         "--rhoT", "gaussian:0,3"])
        assert code == cli.EXIT_CONFIG
        assert "density spec" in capsys.readouterr().err

    def test_unordered_probe_times_are_a_numeric_error(self, outdir, capsys):
        code = cli.main(["kernel-check-ck", "--kernel", "heat",
                         "--s", "0.5", "--tau", "0.5", "--t", "1.0",
                         "--grid-points", "129"])
        assert code == cli.EXIT_NUMERIC
        assert "error" in capsys.readouterr().err

    def test_argparse_rejects_unknown_subcommands(self, outdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
