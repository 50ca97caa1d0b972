"""End-to-end command-line tests, all in process through main()."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from velobs import cli
from velobs.cli import (
    EXIT_CHECKS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIMULATION,
    load_scenario_file,
    main,
)
from velobs.dynamics import TwoLinkParams
from velobs.simulator import Scenario, Trajectory

QUICK_INI = """\
[initial]
q0 = 0 0
dq0 = 0 0
dq0_hat = 0 0

[controller]
type = constant
tau = 0 0

[observer]
eta = 1.0
mode = reduced
gain = constant
v_max = 1.5

[simulation]
dt = 1e-3
t_final = 0.2
"""

SCHEDULED_INI = """\
[initial]
q0 = -0.5 0.3
dq0 = 0.1 -0.2
dq0_hat = 0 0

[controller]
type = pd
kp = 40 20
kd = 60 30
setpoint = 0.785398 -1.047198

[observer]
eta = 1.0
mode = reduced
gain = scheduled

[hybrid]
v_bar = 1.5
r_min = 1
r_guess = 1
semantics = paper

[simulation]
dt = 1e-3
t_final = 0.2
"""


@pytest.fixture()
def quick_ini(tmp_path):
    path = tmp_path / "quick.ini"
    path.write_text(QUICK_INI)
    return path


def test_run_builtin_with_report_passes(tmp_path, capsys):
    code = main(["run", "example1", "--out", str(tmp_path), "--report"])
    assert code == EXIT_OK
    csv = tmp_path / "example1.csv"
    report = tmp_path / "example1_report.txt"
    assert csv.is_file() and report.is_file()
    text = report.read_text()
    assert "overall: pass" in text
    assert "scenario: example1" in text
    traj = Trajectory.from_csv(csv)
    assert traj.t.shape[0] == 20001

    # re-checking the exported CSV must work even though the file only
    # carries the active estimate, not the full-observer history
    capsys.readouterr()
    assert main(["check", str(csv), "--scenario", "example1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "check_reduced_settles: pass" in out
    assert "full_settles" not in out


def test_run_report_gate_fails_on_truncated_horizon(tmp_path):
    # 0.05 s is too short for the error to settle, so the gate trips
    code = main(["run", "example1", "--out", str(tmp_path), "--report",
                 "--t-final", "0.05"])
    assert code == EXIT_CHECKS
    assert (tmp_path / "example1.csv").is_file()


def test_non_finite_horizon_is_a_config_error(tmp_path, capsys):
    for value in ("inf", "nan"):
        code = main(["run", "example1", "--out", str(tmp_path), "--t-final", value])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: t_final") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["eta", "v_max"])
def test_nan_design_constant_is_a_config_error(tmp_path, capsys, key):
    path = tmp_path / "nan.ini"
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = nan", QUICK_INI, flags=re.M))
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and err.count("\n") == 1


@pytest.mark.parametrize("ini", [
    pytest.param(QUICK_INI.replace("v_max = 1.5", "v_max = 1e308"), id="constant"),
    pytest.param(SCHEDULED_INI.replace("v_bar = 1.5", "v_bar = 1e308")
                 .replace("r_guess = 1", "r_guess = 5"), id="scheduled"),
])
def test_an_overflowing_designed_gain_is_a_config_error(tmp_path, capsys, ini):
    # numpy's overflow warning is an error under this suite, so it must not
    # be raised on the way
    path = tmp_path / "huge.ini"
    path.write_text(ini)
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: designed gain k0") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text", [
    pytest.param("[model]\nm1 = 5\nm1 = 6\n", id="duplicate_option"),
    pytest.param("[model]\nm1 = 5\n[model]\nm2 = 6\n", id="duplicate_section"),
    pytest.param("m1 = 5\n[model]\n", id="no_section_header"),
])
def test_a_malformed_ini_is_a_one_line_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([command, str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid scenario file {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("law", ["open_loop_1", "open_loop_2", "constant"])
@pytest.mark.parametrize("dt", ["1e100", "1e300"])
def test_a_math_error_mid_run_is_a_blow_up(tmp_path, capsys, law, dt):
    # the first step overflows the angle, and a later stage takes its cosine
    path = tmp_path / "huge_step.ini"
    path.write_text(f"[controller]\ntype = {law}\n[initial]\nq0 = 0.1 0.2\ndq0 = 1 1\n"
                    f"[observer]\nv_max = 1.5\n[simulation]\ndt = {dt}\nt_final = {dt}\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    shown = {"1e100": "1e+100", "1e300": "1e+300"}[dt]
    assert err == f"simulation failed: state component left |x| <= 1e+06 at t = {shown}\n"
    assert len(err) < 100


def test_nan_band_width_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "nan_band.ini"
    path.write_text(SCHEDULED_INI.replace("v_bar = 1.5", "v_bar = nan"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "v_bar" in capsys.readouterr().err


def test_run_too_long_to_hold_is_a_config_error(tmp_path, capsys):
    # rejected before any sample array is allocated
    code = main(["run", "example1", "--out", str(tmp_path),
                 "--dt", "1e-9", "--t-final", "1e3"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "samples" in err and err.count("\n") == 1
    assert not (tmp_path / "example1.csv").exists()


def test_check_of_a_full_observer_export_reports_the_full_observer(tmp_path, capsys):
    overrides = ["--observer", "full", "--t-final", "3"]
    run_code = main(["run", "example1", "--out", str(tmp_path), "--report", *overrides])
    report = (tmp_path / "example1_report.txt").read_text().splitlines()
    capsys.readouterr()
    check_code = main(["check", str(tmp_path / "example1.csv"),
                       "--scenario", "example1", *overrides])
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("full_settling_time:") for line in out)
    assert not any(line.startswith("reduced_") for line in out)
    assert check_code == run_code

    def gates(lines):
        return [line for line in lines if line.startswith(("check_", "overall"))]

    assert gates(out) == gates(report)


def test_run_unknown_scenario(tmp_path, capsys):
    code = main(["run", "nosuch", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "unknown scenario" in capsys.readouterr().err


def test_run_scenario_file_and_determinism(tmp_path, quick_ini):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(quick_ini), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", str(quick_ini), "--out", str(out_b)]) == EXIT_OK
    bytes_a = (out_a / "quick.csv").read_bytes()
    bytes_b = (out_b / "quick.csv").read_bytes()
    assert bytes_a == bytes_b


def test_run_uses_environment_output_dir(tmp_path, quick_ini, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("VELOBS_OUT", str(env_dir))
    assert main(["run", str(quick_ini)]) == EXIT_OK
    assert (env_dir / "quick.csv").is_file()


def test_run_scheduled_scenario_file(tmp_path):
    path = tmp_path / "sched.ini"
    path.write_text(SCHEDULED_INI)
    sc = load_scenario_file(path)
    assert sc.gain_mode == "scheduled"
    assert sc.hybrid.r_min == 1
    assert sc.controller.name == "pd"
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "sched.csv").is_file()


def test_invalid_scenario_files(tmp_path, capsys):
    bad_type = tmp_path / "bad_type.ini"
    bad_type.write_text("[controller]\ntype = fuzzy\n")
    assert main(["run", str(bad_type), "--out", str(tmp_path)]) == EXIT_CONFIG

    missing_key = tmp_path / "missing.ini"
    missing_key.write_text("[controller]\ntype = pd\nkp = 1 1\n")
    assert main(["run", str(missing_key), "--out", str(tmp_path)]) == EXIT_CONFIG

    bad_vec = tmp_path / "vec.ini"
    bad_vec.write_text(QUICK_INI.replace("q0 = 0 0", "q0 = 0 0 0"))
    assert main(["run", str(bad_vec), "--out", str(tmp_path)]) == EXIT_CONFIG

    nan_mass = tmp_path / "nan_mass.ini"
    nan_mass.write_text("[model]\nm1 = nan\n" + QUICK_INI)
    assert main(["run", str(nan_mass), "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()

    # a torque that is not finite at t = 0 is a config error, not a blow-up
    nan_tau = tmp_path / "nan_tau.ini"
    nan_tau.write_text(QUICK_INI.replace("tau = 0 0", "tau = nan 0"))
    assert main(["run", str(nan_tau), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "torque" in err

    # a NaN gain is named as not finite, not as an off-diagonal entry
    for key in ("kp", "kd"):
        nan_gain = tmp_path / f"nan_{key}.ini"
        gains = {"kp": "1 1", "kd": "1 1"}
        gains[key] = "nan 1"
        nan_gain.write_text(QUICK_INI.replace(
            "type = constant\ntau = 0 0",
            f"type = pd\nkp = {gains['kp']}\nkd = {gains['kd']}\nsetpoint = 0 0"))
        assert main(["run", str(nan_gain), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} must be finite" in err


def test_ill_conditioned_arm_is_a_config_error(tmp_path, capsys):
    # the arm's inertia is checked when it is built from the file, so a
    # near-singular arm is an input error before any step is taken
    path = tmp_path / "thin.ini"
    path.write_text("[model]\nm1 = 1\nm2 = 1e-13\n" + QUICK_INI)
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerically singular" in err
    assert not (tmp_path / "thin.csv").exists()


def test_blow_up_maps_to_simulation_exit(tmp_path, capsys):
    path = tmp_path / "boom.ini"
    path.write_text(QUICK_INI.replace("tau = 0 0", "tau = 1e9 1e9")
                    .replace("t_final = 0.2", "t_final = 5.0"))
    code = main(["run", str(path), "--out", str(tmp_path)])
    assert code == EXIT_SIMULATION
    assert "simulation failed" in capsys.readouterr().err


def test_list_builtins(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["example1", "example2", "example3"]


def test_list_with_config_dir(tmp_path, quick_ini, capsys):
    assert main(["list", "--config-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert out[:3] == ["example1", "example2", "example3"]
    assert out[3].startswith("quick (")
    assert main(["list", "--config-dir", str(tmp_path / "missing")]) == EXIT_CONFIG
    capsys.readouterr()


def test_semantics_override_requires_hybrid(tmp_path, capsys):
    code = main(["run", "example1", "--out", str(tmp_path),
                 "--jump-semantics", "hysteresis", "--t-final", "0.01"])
    assert code == EXIT_CONFIG
    assert "jump-semantics" in capsys.readouterr().err


def test_semantics_and_mode_overrides(tmp_path):
    code = main(["run", "example2", "--out", str(tmp_path),
                 "--jump-semantics", "hysteresis", "--t-final", "0.05"])
    assert code == EXIT_OK
    # switching a constant scenario to scheduled builds a default band
    code = main(["run", "example1", "--out", str(tmp_path), "--gain",
                 "scheduled", "--observer", "reduced", "--t-final", "0.05"])
    assert code == EXIT_OK


def test_sweep_all_builtins(tmp_path):
    code = main(["sweep", "--out", str(tmp_path), "--jobs", "2"])
    assert code == EXIT_OK
    for name in ("example1", "example2", "example3"):
        assert (tmp_path / name / f"{name}.csv").is_file()
        report = tmp_path / name / f"{name}_report.txt"
        assert "overall: pass" in report.read_text()


def test_sweep_reports_every_scenario(tmp_path, capsys):
    # example1 has no hybrid config to switch; the other two still run
    code = main(["sweep", "--out", str(tmp_path), "--jump-semantics", "hysteresis",
                 "--t-final", "0.05"])
    out, err = capsys.readouterr()
    assert "jump-semantics" in err
    exits = [line for line in out.splitlines() if ": exit " in line]
    assert exits == ["example1: exit 1", "example2: exit 3", "example3: exit 3"]
    assert code == EXIT_CHECKS
    for name in ("example2", "example3"):
        assert (tmp_path / name / f"{name}_report.txt").is_file()


def test_sweep_jobs_are_checked_and_clamped(tmp_path, capsys, monkeypatch):
    assert main(["sweep", "--out", str(tmp_path), "--jobs", "0"]) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.sweep_workers(1000, 3) == 3
    assert cli.sweep_workers(1000, 50) == 4
    assert cli.sweep_workers(2, 50) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.sweep_workers(8, 3) == 1


def test_check_subcommand_roundtrip(tmp_path, quick_ini, capsys):
    assert main(["run", str(quick_ini), "--out", str(tmp_path)]) == EXIT_OK
    csv = tmp_path / "quick.csv"
    rep = tmp_path / "check_report.txt"
    code = main(["check", str(csv), "--scenario", str(quick_ini),
                 "--report-file", str(rep)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert rep.is_file()

    corrupted = tmp_path / "corrupt.csv"
    lines = csv.read_text().splitlines()
    lines[0] = lines[0].replace("t,", "stamp,", 1)
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["check", str(corrupted), "--scenario",
                 str(quick_ini)]) == EXIT_CONFIG
    capsys.readouterr()


def test_check_of_a_non_finite_csv_is_a_config_error(tmp_path, quick_ini, capsys):
    assert main(["run", str(quick_ini), "--out", str(tmp_path)]) == EXIT_OK
    csv = tmp_path / "quick.csv"
    header, *rows = csv.read_text().splitlines()
    rows[5] = ",".join(["nan"] * len(header.split(",")))
    csv.write_text("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["check", str(csv), "--scenario", str(quick_ini)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_argparse_errors_and_help(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["--help"]) == EXIT_OK
    assert main(["run"]) == EXIT_CONFIG
    capsys.readouterr()


def test_scenario_file_model_section(tmp_path):
    path = tmp_path / "light.ini"
    path.write_text("[model]\nm2 = 5.0\nl2 = 0.8\n" + QUICK_INI)
    sc = load_scenario_file(path)
    assert sc.model.params.m2 == 5.0
    assert sc.model.params.l2 == 0.8
    assert sc.name == "light"


def test_a_scenario_file_keeps_the_defaults_it_leaves_out(tmp_path):
    path = tmp_path / "bare.ini"
    path.write_text("[model]\nm2 = 5\n")
    sc = load_scenario_file(path)
    assert sc.model.params == TwoLinkParams(m2=5.0)
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    assert (sc.dt, sc.t_final) == (defaults["dt"], defaults["t_final"])
    path.write_text("[model]\ngravity = 1.62\n[simulation]\nt_final = 2\n")
    sc = load_scenario_file(path)
    assert sc.model.params == TwoLinkParams(gravity_accel=1.62)
    assert (sc.dt, sc.t_final) == (defaults["dt"], 2.0)
