"""End-to-end command-line tests, in process through main(), and once
through `python -m velobs.cli`."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from velobs import cli
from velobs.cli import (
    EXIT_CHECKS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIMULATION,
    load_scenario_file,
    main,
)
from velobs.dynamics import TwoLinkArm, TwoLinkParams, design_tables
from velobs.hybrid_logic import MAX_INIT_JUMPS
from velobs.simulator import (BUILTIN_NAMES, GAIN_MODES, OBSERVER_MODES, Scenario,
                              Trajectory, builtin_scenarios, simulate)

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


ARM_OVERFLOW = "invalid scenario file {path}: arm parameters overflow the inertia terms"
ARM_NAN = "invalid scenario file {path}: inertia matrix is numerically singular (eigs nan"


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
    traj = Trajectory.from_csv(csv, builtin_scenarios()["example1"])
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


@pytest.mark.parametrize("ini, message", [
    pytest.param(QUICK_INI.replace("v_max = 1.5", "v_max = 1e308"), "designed gain k0",
                 id="constant"),
    pytest.param(SCHEDULED_INI.replace("v_bar = 1.5", "v_bar = 1e308")
                 .replace("r_guess = 1", "r_guess = 5"), "designed gain k0", id="scheduled"),
    # a float ** that overflows raises OverflowError where * would give inf
    pytest.param("[model]\nm1 = 1e308\n" + QUICK_INI, ARM_OVERFLOW, id="arm_mass"),
    pytest.param("[model]\nl2 = 1e200\n" + QUICK_INI, ARM_OVERFLOW, id="arm_length"),
    # a product that overflows gives inf terms, and lambda_min = nan
    pytest.param("[model]\nm2 = 1e308\n" + QUICK_INI, ARM_NAN, id="arm_product"),
    # a mode too large for a float, and so for its band speed
    pytest.param(SCHEDULED_INI.replace("r_guess = 1", "r_guess = 1" + "0" * 400),
                 "r_guess must lie between r_min and 9007199250740992", id="huge_mode"),
])
def test_an_overflowing_designed_gain_is_a_config_error(tmp_path, capsys, ini, message):
    # numpy's overflow warning is an error under this suite, so it must not
    # be raised on the way
    path = tmp_path / "huge.ini"
    path.write_text(ini)
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=path)}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["run"], ["run", "--report"], ["sweep"], ["check"]])
def test_a_floor_mode_no_float_holds_is_refused_by_every_command(tmp_path, quick_ini, capsys,
                                                                  command):
    # a constant gain never reads its band, but the report reads the band
    # speed of the mode above the floor
    path = tmp_path / "floor.ini"
    path.write_text(QUICK_INI + "[hybrid]\nr_min = 1" + "0" * 400 + "\n")
    assert main(["run", str(quick_ini), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    args = ["--scenario", str(path), str(tmp_path / "quick.csv")] if command == ["check"] \
        else [str(path), "--out", str(tmp_path / "out")]
    assert main([*command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: r_min must be at most 9007199250740992\n"


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


@pytest.mark.parametrize("f1", ["1e308", "8.9e307"])
def test_a_friction_too_large_to_double_is_a_blow_up(tmp_path, capsys, f1):
    # F's symmetric part is F itself, taken with no F + F^T to overflow: the
    # design sees f2 = 0.3 as the floor (to LAPACK's scaling), and the first
    # step blows up
    floor = design_tables(TwoLinkArm(TwoLinkParams(f1=float(f1)))).floor
    assert floor == pytest.approx(0.3, rel=1e-15)
    path = tmp_path / "sticky.ini"
    path.write_text(f"[model]\nf1 = {f1}\n[observer]\nv_max = 1.5\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SIMULATION
    assert capsys.readouterr().err == (
        "simulation failed: state component left |x| <= 1e+06 at t = 0.001\n")


def test_an_overflowing_gravity_term_is_one_line(tmp_path, capsys):
    # g(q) overflows to inf - inf in the design grid's array pass, which is
    # silent as the float kernel is; the run then blows up at its first step
    path = tmp_path / "heavy.ini"
    path.write_text("[model]\ngravity = 1e308\n[observer]\nv_max = 1.5\n")
    assert main(["run", str(path), "--out", str(tmp_path), "--report"]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: ") and err.count("\n") == 1


def test_a_fast_initial_estimate_settles_far_below_r_guess(tmp_path, capsys):
    # v_bar < 2 eta leaves every mode above the floor without a flow annulus,
    # so the unit estimate settles at r_min = 1, 1,099,989 bands below
    # r_guess: one bisection finds it, and the report audits the whole walk
    path = tmp_path / "far.ini"
    path.write_text("[initial]\ndq0 = 9.999895 0\ndq0_hat = 1 0\n[observer]\ngain = scheduled\n"
                    "[hybrid]\nv_bar = 1e-5\nr_guess = 1099990\n")
    assert main(["run", str(path), "--out", str(tmp_path), "--report"]) in (EXIT_OK, EXIT_CHECKS)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "far.csv").read_text().splitlines()[1].split(",")[9] == "1"
    assert "check_jumps_legal: pass" in (tmp_path / "far_report.txt").read_text()


def test_a_time_zero_mode_past_the_bound_is_refused(tmp_path, capsys):
    # bands of 1e-300: a unit estimate would settle near mode 2e300
    path = tmp_path / "narrow.ini"
    path.write_text("[initial]\ndq0_hat = 1 0\n[observer]\ngain = scheduled\n"
                    "[hybrid]\nv_bar = 1e-300\nr_guess = 1\n")
    assert main(["run", str(path), "--out", str(tmp_path), "--report"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: the time-zero mode lies more than {MAX_INIT_JUMPS} bands from r_guess\n")


@pytest.mark.parametrize("dq0_hat, r_guess, way", [("5 0", 1, 1), ("0 0", 5, -1)])
def test_check_audits_the_time_zero_walk_of_an_export(tmp_path, capsys, dq0_hat, r_guess, way):
    # a walk of four bands up to mode 5, or down to the floor mode 1
    path = tmp_path / "walk.ini"
    path.write_text(SCHEDULED_INI.replace("dq0_hat = 0 0", f"dq0_hat = {dq0_hat}")
                    .replace("r_guess = 1", f"r_guess = {r_guess}"))
    sc = load_scenario_file(path)
    traj = simulate(sc)
    csv = tmp_path / "walk.csv"
    traj.to_csv(csv)
    assert [ev[1:3] for ev in traj.jump_events if ev.step == 0] == [
        (m, m + way) for m in range(r_guess, r_guess + 4 * way, way)]
    assert Trajectory.from_csv(csv, sc).jump_events == traj.jump_events
    main(["check", str(csv), "--scenario", str(path)])
    assert "check_jumps_legal: pass" in capsys.readouterr().out.splitlines()
    header, first, *rows = csv.read_text().splitlines()
    at = header.split(",").index("r")

    def with_row0(r: int) -> Path:
        values = first.split(",")
        values[at] = str(r)
        csv.write_text("\n".join([header, ",".join(values), *rows]) + "\n")
        return csv

    # row 0 one band past the settled mode: the walk's last jump leaves its jump set
    assert main(["check", str(with_row0(int(traj.r[0]) + way)), "--scenario", str(path)]) == (
        EXIT_CHECKS)
    assert "check_jumps_legal: fail" in capsys.readouterr().out.splitlines()
    # a row 0 MAX_INIT_JUMPS bands from r_guess is read; one band more is
    # too far for its walk to be held, and refused
    far = r_guess + MAX_INIT_JUMPS
    assert Trajectory.from_csv(with_row0(far), sc).r[0] == far
    assert main(["check", str(with_row0(far + 1)), "--scenario", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: CSV row 0 lies more than {MAX_INIT_JUMPS} bands from r_guess\n")


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


def test_check_reads_its_scenario_then_the_csv_then_validates(tmp_path, capsys):
    # an unknown scenario is refused before the file is opened, and a file
    # that cannot be read before the scenario is validated
    missing = str(tmp_path / "missing.csv")
    assert main(["check", missing, "--scenario", "nope"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: unknown scenario 'nope'")
    assert main(["check", missing, "--scenario", "example1", "--dt=-1"]) == EXIT_CONFIG
    assert "No such file" in capsys.readouterr().err


def test_resolving_a_file_builds_no_builtin(quick_ini, monkeypatch):
    built = []
    post_init = Scenario.__post_init__

    def counted(sc):
        built.append(sc.name)
        post_init(sc)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
    assert cli.resolve_scenario(str(quick_ini)).name == "quick"
    assert built == ["quick"]
    assert cli.resolve_scenario("example2").name == "example2"
    assert "example2" in built
    # the names are known without building the scenarios, in list order
    assert BUILTIN_NAMES == tuple(builtin_scenarios()) == tuple(sorted(BUILTIN_NAMES))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_file_named_as_a_builtin_is_refused(tmp_path, capsys, name):
    # its report would hold it to the builtin's claims: as example3 this
    # constant-torque file has no PD setpoint, as example2 no rising mode
    out = tmp_path / "out"
    plain = tmp_path / "plain.ini"
    plain.write_text(QUICK_INI)
    assert main(["run", str(plain), "--report", "--out", str(out)]) == EXIT_OK
    path = tmp_path / f"{name}.ini"
    path.write_text(QUICK_INI)
    capsys.readouterr()
    for argv in (["run", str(path), "--report", "--out", str(out)],
                 ["sweep", str(path), "--out", str(out)],
                 ["check", str(out / "plain.csv"), "--scenario", str(path)]):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: scenario file {path} has the name of a builtin; rename it\n")
    assert sorted(p.name for p in out.iterdir()) == ["plain.csv", "plain_report.txt"]


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_a_constant_gain_override_designs_at_the_design_speed(tmp_path, name):
    # --gain constant runs the scenario given v_max = design_speed(), byte for byte
    flag, given = tmp_path / "flag", tmp_path / "given"
    code = main(["run", name, "--out", str(flag), "--report", "--gain", "constant",
                 "--t-final", "2"])
    sc = builtin_scenarios()[name]
    given.mkdir()
    assert cli._run_one(dataclasses.replace(sc, gain_mode="constant", t_final=2.0,
                                            v_max=sc.design_speed()), given, True) == code
    for file in (f"{name}.csv", f"{name}_report.txt"):
        assert (flag / file).read_bytes() == (given / file).read_bytes()


@pytest.mark.parametrize("v_max, band", [
    pytest.param(None, None, id="no_band"),
    pytest.param("2.5", None, id="no_band_v_max"),
    pytest.param("1.5", "r_min = 3\nr_guess = 2", id="guess_below_floor"),
    pytest.param("1.5", "r_min = 0\nr_guess = 0", id="floor_zero"),
    pytest.param("1.5", "r_min = 1\nr_guess = 5", id="guess_above_floor"),
    pytest.param("1.5", "v_bar = 2.5\nr_guess = 2\nsemantics = hysteresis", id="hysteresis"),
])
def test_a_scheduled_gain_override_runs_the_file_that_says_scheduled(tmp_path, capsys, v_max,
                                                                      band):
    # --gain scheduled on a constant-gain file is that file with gain =
    # scheduled: its [hybrid] band and first mode, or with no band those of an
    # empty [hybrid] whose v_bar is the file's v_max, byte for byte
    text = QUICK_INI.replace("v_max = 1.5\n", "" if v_max is None else f"v_max = {v_max}\n")
    flag = text + ("" if band is None else f"[hybrid]\n{band}\n")
    if band is None:
        band = "" if v_max is None else f"v_bar = {v_max}"
    given = text.replace("gain = constant", "gain = scheduled") + f"[hybrid]\n{band}\n"
    results = []
    for name, ini, args in (("flag", flag, ["--gain", "scheduled"]), ("given", given, [])):
        out = tmp_path / name
        out.mkdir()
        (out / "quick.ini").write_text(ini)
        code = main(["run", str(out / "quick.ini"), "--out", str(out), "--report", *args])
        err = capsys.readouterr().err.replace(str(out), "<out>")
        written = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "quick.ini"}
        results.append((code, err, written))
    assert results[0] == results[1]
    code, err, written = results[0]
    assert err.count("\n") == (code == EXIT_CONFIG)
    assert sorted(written) == ([] if code == EXIT_CONFIG else ["quick.csv", "quick_report.txt"])
    if band == "r_min = 3\nr_guess = 2":
        assert err == "error: r_guess must lie between r_min and 9007199250740992\n"


def test_a_scheduled_gain_override_takes_a_zero_v_max_as_its_band(tmp_path, capsys):
    # the band is v_max wide where the file has one, a zero v_max too, so
    # HybridConfig refuses it rather than the table's default band running
    path = tmp_path / "still.ini"
    path.write_text("[observer]\nv_max = 0\n[simulation]\nt_final = 0.01\n")
    assert main(["run", str(path), "--out", str(tmp_path), "--gain", "scheduled"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: v_bar must be positive and finite\n"
    assert list(tmp_path.iterdir()) == [path]


def test_the_table_defaults_are_the_dataclass_defaults():
    def default(section, key):
        parse, text = cli.SCENARIO_KEYS[section][key]
        return parse(text)

    assert [default("model", key) for key in cli.SCENARIO_KEYS["model"]] \
        == [field.default for field in dataclasses.fields(TwoLinkParams)]
    fields = {field.name: field.default for field in dataclasses.fields(Scenario)}
    for name, section, key in (("eta", "observer", "eta"),
                               ("observer_mode", "observer", "mode"),
                               ("gain_mode", "observer", "gain"),
                               ("dt", "simulation", "dt"), ("t_final", "simulation", "t_final")):
        assert default(section, key) == fields[name], name


@pytest.mark.parametrize("r_min, r_guess", [(0, 0), (1, 1), (1, 3)])
def test_a_constant_gain_file_with_a_band_designs_at_its_top(tmp_path, r_min, r_guess):
    path = tmp_path / "band.ini"
    path.write_text(QUICK_INI.replace("v_max = 1.5\n", "")
                    + f"[hybrid]\nv_bar = 2.5\nr_min = {r_min}\nr_guess = {r_guess}\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert simulate(load_scenario_file(path)).design.v_max == 2.5 * max(r_guess, 1)


@pytest.mark.parametrize("hybrid", [
    pytest.param("r_guess = 1" + "0" * 400, id="huge_mode"),
    pytest.param("r_guess = -3", id="negative_mode"),
    pytest.param("r_min = 3\nr_guess = 1", id="below_floor"),
    pytest.param("r_guess = 9007199254740993", id="past_top"),
    pytest.param("v_bar = 1e308\nsemantics = hysteresis", id="wide_band")])
def test_a_constant_gain_file_with_v_max_ignores_its_band(tmp_path, hybrid):
    plain, banded = tmp_path / "plain", tmp_path / "banded"
    for out, text in ((plain, QUICK_INI), (banded, QUICK_INI + f"[hybrid]\n{hybrid}\n")):
        out.mkdir()
        (out / "quick.ini").write_text(text)
    codes = [main(["run", str(out / "quick.ini"), "--out", str(out), "--report"])
             for out in (plain, banded)]
    assert codes == [EXIT_OK, EXIT_OK]
    assert (plain / "quick.csv").read_bytes() == (banded / "quick.csv").read_bytes()


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

    # a directory named like a scenario file
    adir = tmp_path / "adir.ini"
    adir.mkdir()
    assert main(["run", str(adir), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot read scenario file {adir}\n"

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
    for path in (tmp_path / "missing", quick_ini):
        assert main(["list", "--config-dir", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: config dir {path} is not a directory\n")


def test_list_shows_only_files_that_run(tmp_path, quick_ini, capsys):
    # a file named as a builtin is refused by run, so list leaves it out
    (tmp_path / "example1.ini").write_text(QUICK_INI)
    assert main(["list", "--config-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["example1", "example2", "example3", f"quick ({quick_ini})"]
    assert main(["run", str(tmp_path / "example1.ini"), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["run", str(quick_ini), "--out", str(tmp_path)]) == EXIT_OK
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


def test_sweep_workers_are_spawned(tmp_path, monkeypatch):
    # fork is unsafe in a process with threads, which numpy's import starts
    import concurrent.futures
    contexts = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        """A pool that records its start method and runs tasks in threads."""

        def __init__(self, max_workers, mp_context):
            contexts.append(mp_context.get_start_method())
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli, "sweep_workers", lambda jobs, n_tasks: 2)
    code = main(["sweep", "example1", "example2", "--out", str(tmp_path), "--jobs", "2",
                 "--t-final", "0.05"])
    assert contexts == ["spawn"]
    # 0.05 s is too short for the builtins' checks, which both runs report
    assert code == EXIT_CHECKS
    assert all((tmp_path / name / f"{name}_report.txt").is_file()
               for name in ("example1", "example2"))


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refuses_two_scenarios_of_one_name(tmp_path, capsys, jobs):
    # both would write out/x/, the second run over the first
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.ini").write_text(QUICK_INI)
    out = tmp_path / "out"
    for tokens in ([str(tmp_path / "a" / "x.ini"), str(tmp_path / "b" / "x.ini")],
                   ["example1", "example2", "example1"]):
        name = Path(tokens[0]).stem
        assert main(["sweep", *tokens, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"error: two scenarios are named {name!r}, with one output directory\n")
        assert not out.exists()
    assert main(["sweep", str(tmp_path / "a" / "x.ini"), "--out", str(out)]) == EXIT_OK


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
    # the right header over rows of 14 columns
    header, *rows = csv.read_text().splitlines()
    corrupted.write_text("\n".join([header] + [row.rpartition(",")[0] for row in rows]) + "\n")
    assert main(["check", str(corrupted), "--scenario", str(quick_ini)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unexpected CSV column count\n"


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


@pytest.mark.parametrize("dt", ["1e-200", "1e-320"])
def test_a_run_over_tiny_times_reports_without_a_decay_rate(tmp_path, capfd, dt):
    # two samples dt apart: the centred times' squares underflow, so the
    # decay fit has no finite rate and its line is left out of the report;
    # capfd sees text that a linear-algebra library writes to fd 1 as well
    ini = tmp_path / "tiny.ini"
    ini.write_text("[initial]\ndq0 = 1 0.5\n[observer]\nv_max = 1.5\n")
    overrides = [f"--dt={dt}", f"--t-final={dt}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ran = main(["run", str(ini), "--out", str(tmp_path), "--report", *overrides])
        out, err = capfd.readouterr()
        checked = main(["check", str(tmp_path / "tiny.csv"), "--scenario", str(ini),
                        *overrides])
    report = (tmp_path / "tiny_report.txt").read_text()
    assert ran == EXIT_CHECKS and err == "" and out == (
        f"wrote {tmp_path / 'tiny.csv'}\nwrote {tmp_path / 'tiny_report.txt'}\n")
    assert "samples: 2\n" in report and "observed_rate" not in report
    assert checked == EXIT_CHECKS and capfd.readouterr() == (report, "")


@pytest.mark.parametrize("dt", ["1e-160", "1e-30"])
def test_equal_error_norms_over_tiny_times_decay_at_rate_zero(tmp_path, capsys, dt):
    # two samples dt apart with equal error norms: the fitted slope is 0, not
    # the rounding of the log-norms divided by the tiny spread of the times
    ini = tmp_path / "tiny.ini"
    ini.write_text("[initial]\ndq0 = 1 0.5\n[observer]\nv_max = 1.5\n")
    overrides = [f"--dt={dt}", f"--t-final={dt}"]
    assert main(["run", str(ini), "--out", str(tmp_path), "--report", *overrides]) == EXIT_CHECKS
    report = (tmp_path / "tiny_report.txt").read_text()
    assert "samples: 2\n" in report and "reduced_observed_rate: 0\n" in report
    capsys.readouterr()
    assert main(["check", str(tmp_path / "tiny.csv"), "--scenario", str(ini),
                 *overrides]) == EXIT_CHECKS
    assert capsys.readouterr() == (report, "")


# The farthest a full or both draw puts each component of its first estimate
# from the speed.  Farther, the full observer may blow up: in 3,000 uniform
# draws of such 0.2 s files with every component of the estimate in [-6, 6],
# 26 exited 2, and none of them began with an error of norm under 4.1; this
# bound keeps the norm under 2.9.
FULL_ESTIMATE_ERROR = 2.0


@st.composite
def short_scenario_files(draw) -> str:
    """A short scenario file on the default arm: a constant gain with any
    observer, or a scheduled one whose first estimate may lie bands away from
    its starting mode, so that its logic jumps at time zero.  Where the full
    observer runs, the first estimate lies within FULL_ESTIMATE_ERROR of the
    speed in each component."""
    def pair(lo, hi):
        return [draw(st.floats(lo, hi)) for _ in range(2)]

    def vec(lo, hi):
        return " ".join(map(repr, pair(lo, hi)))

    mode = draw(st.sampled_from(OBSERVER_MODES))
    gain = "constant" if mode == "full" else draw(st.sampled_from(GAIN_MODES))
    law = draw(st.sampled_from([f"type = constant\ntau = {vec(-5.0, 5.0)}",
                                "type = pd\nkp = 40 20\nkd = 60 30\n"
                                f"setpoint = {vec(-1.0, 1.0)}"]))
    r_min = draw(st.integers(0, 1))
    q0, dq0 = vec(-3.0, 3.0), pair(-2.0, 2.0)
    if mode == "reduced":
        dq0_hat = pair(-6.0, 6.0)
    else:
        bound = FULL_ESTIMATE_ERROR
        dq0_hat = [v + e for v, e in zip(dq0, pair(-bound, bound))]
    return (f"[initial]\nq0 = {q0}\ndq0 = {' '.join(map(repr, dq0))}\n"
            f"dq0_hat = {' '.join(map(repr, dq0_hat))}\n[controller]\n{law}\n"
            f"[observer]\nmode = {mode}\ngain = {gain}\nv_max = {draw(st.floats(0.5, 3.0))!r}\n"
            f"[hybrid]\nv_bar = {draw(st.floats(0.5, 2.0))!r}\nr_min = {r_min}\n"
            f"r_guess = {draw(st.integers(r_min, 4))}\n"
            f"semantics = {draw(st.sampled_from(['paper', 'hysteresis']))}\n"
            f"[simulation]\ndt = {draw(st.sampled_from(['1e-3', '2e-3']))}\n"
            f"t_final = {draw(st.floats(0.01, 0.2))!r}\n")


@settings(max_examples=40)
@given(short_scenario_files())
def test_check_of_an_export_reproduces_its_run_report(text):
    # every line, verdict included, but the full observer's of a `both` run,
    # whose estimate the CSV does not hold; jump_count and chatter_score
    # count the flow jumps, which the CSV holds
    note(text)
    got = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        ini = Path(out) / "prop.ini"
        ini.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(ini), "--report", "--out", out])
        assert code in (EXIT_OK, EXIT_CHECKS)
        report = (Path(out) / "prop_report.txt").read_text().splitlines()
        with contextlib.redirect_stdout(got):
            assert main(["check", str(Path(out) / "prop.csv"), "--scenario", str(ini)]) == code
    both = "mode = both" in text
    assert got.getvalue().splitlines() == [
        ln for ln in report if not (both and ln.startswith("full_"))]


# A file short_scenario_files no longer draws: the full observer's first
# estimate 8.2 rad/s from the speed
FAR_ESTIMATE_INI = """\
[initial]
q0 = 1.4630859186941096 0.7198640541915116
dq0 = 1.0652954972294384 0.7927267239918216
dq0_hat = -5.828723264347715 -3.6981622247026222
[controller]
type = constant
tau = 0.3641122315735199 4.698602036773476
[observer]
mode = full
gain = constant
v_max = 2.386544890456973
[simulation]
dt = 2e-3
t_final = 0.2
"""


def test_a_full_observer_started_far_from_the_speed_blows_up(tmp_path, capsys):
    path = tmp_path / "far.ini"
    path.write_text(FAR_ESTIMATE_INI)
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SIMULATION
    assert capsys.readouterr().err == (
        "simulation failed: state component left |x| <= 1e+06 at t = 0.192\n")
    assert not list(tmp_path.glob("*.csv"))


def test_the_module_runs_its_command(tmp_path):
    # `python -m velobs.cli` is the entry point `velobs`: it runs the command
    # and exits with its code
    src = str(Path(cli.__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "velobs.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = module("list")
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_OK, "".join(f"{name}\n" for name in BUILTIN_NAMES), "")
    path = tmp_path / "far.ini"
    path.write_text(FAR_ESTIMATE_INI)
    done = module("run", str(path), "--out", str(tmp_path))
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_SIMULATION, "", "simulation failed: state component left |x| <= 1e+06 at t = 0.192\n")


# Each usage error, and the one line it prints
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["run"], "the following arguments are required: scenario"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["run", "example1", "--dt", "x"], "argument --dt: invalid float value: 'x'"),
    # a value that starts with - is taken for a flag; --dt=-inf is the value
    (["run", "example1", "--dt", "-inf"], "argument --dt: expected one argument"),
    (["sweep", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
]


def test_argparse_errors_and_help(capsys):
    for argv, message in USAGE_ERRORS:
        assert main(argv) == EXIT_CONFIG, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}"), argv
        assert err.count("\n") == 1, err
    assert main(["--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: velobs") and err == ""


def check_parser_reuse(tmp_path, quick_ini) -> None:
    """main shares one parser between calls, and no call sees another's arguments."""
    assert cli.build_parser() is cli.build_parser()
    out = ["--out", str(tmp_path)]
    assert main(["run", str(quick_ini), *out]) == EXIT_OK
    report = tmp_path / "check_report.txt"
    check = ["check", str(tmp_path / "quick.csv"), "--scenario", str(quick_ini)]
    assert main([*check, "--report-file", str(report)]) == EXIT_OK
    report.unlink()
    assert main(check) == EXIT_OK
    assert not report.exists()
    assert main(["run", "example1", "--t-final", "0.05", *out]) == EXIT_OK
    assert main(["run", str(quick_ini), *out]) == EXIT_OK
    quick = cli.load_scenario_file(quick_ini)
    assert len(Trajectory.from_csv(tmp_path / "quick.csv", quick).t) == 201
    assert main(["run"]) == EXIT_CONFIG
    assert main(["list"]) == EXIT_OK
    # a namespace holds the arguments of its own subcommand only, not the
    # --out of the runs before it
    args = cli.build_parser().parse_args(check)
    assert sorted(vars(args)) == ["command", "csv", "dt", "func", "gain", "jump_semantics",
                                  "observer", "report_file", "scenario", "t_final"]


def test_parser_reuse_carries_no_state(tmp_path, quick_ini, capsys):
    check_parser_reuse(tmp_path, quick_ini)


def test_a_shared_namespace_is_caught(tmp_path, quick_ini, capsys, monkeypatch):
    parser = cli.build_parser.__wrapped__()
    shared = argparse.Namespace()
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: parse_args(argv, shared))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    with pytest.raises(AssertionError):
        check_parser_reuse(tmp_path, quick_ini)


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


@pytest.mark.parametrize("text, message", [
    pytest.param("[model]\nmass2 = 5\n\n[simulation]\nt_finall = 0.5\n",
                 "unknown key 'mass2' in section [model]", id="misspelt_keys"),
    pytest.param("[model]\nm2 = 5\n[sim]\nt_final = 0.5\n",
                 "unknown section [sim]", id="misspelt_section"),
    # a [DEFAULT] key is read in every section
    pytest.param("[DEFAULT]\neta = 2\n[observer]\nmode = reduced\n[model]\nm1 = 3\n",
                 "unknown key 'eta' in section [model]", id="default_key"),
    # with no other section, no section reads it
    pytest.param("[DEFAULT]\nt_final = 0.5\nm2 = 5\n",
                 "unknown key 't_final' in section [DEFAULT]", id="default_key_alone"),
])
def test_an_unknown_key_or_section_is_a_one_line_config_error(tmp_path, capsys, text,
                                                               message):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid scenario file {path}: {message}\n"
    assert not (tmp_path / "typo.csv").exists()


def test_every_documented_key_is_accepted(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(
        "[model]\nm1 = 9\nm2 = 19\nl1 = 1.1\nl2 = 1.4\nf1 = 0.2\nf2 = 0.1\ngravity = 9.8\n"
        "[initial]\nq0 = 0.1 0.2\ndq0 = 0 0\ndq0_hat = 0 0\n"
        "[controller]\ntype = pd\nkp = 40 20\nkd = 60 30\nsetpoint = 0.5 -0.5\ntau = 0 0\n"
        "[observer]\neta = 1.0\nmode = reduced\ngain = scheduled\nv_max = 1.5\n"
        "[hybrid]\nv_bar = 1.5\nr_min = 1\nr_guess = 2\nsemantics = hysteresis\n"
        "[simulation]\ndt = 1e-3\nt_final = 0.5\n")
    sc = load_scenario_file(path)
    assert sc.model.params == TwoLinkParams(9.0, 19.0, 1.1, 1.4, 0.2, 0.1, 9.8)
    assert (sc.r_guess, sc.hybrid.semantics, sc.t_final) == (2, "hysteresis", 0.5)


def test_the_readme_lists_every_scenario_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Scenario files", 1)[1].split("```ini\n", 1)[1].split("```")[0]
    listed = {}
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(header[1], [])
        elif key := re.match(r"(?:# )?(\w+) = ", line):  # a commented key too
            section.append(key[1])
    assert listed == {name: list(keys) for name, keys in cli.SCENARIO_KEYS.items()}


def test_the_readme_library_examples_run(capsys):
    """Each python block of the README runs in a fresh namespace, through the
    submodule imports it shows (the package root exports no name), and gives
    the values its comments state."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    namespaces = []
    for block in readme.split("```python\n")[1:]:
        namespaces.append({})
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), namespaces[-1])
    _, hybrid = namespaces
    assert capsys.readouterr().out.startswith("scenario: example2\n")
    assert hybrid["cfg"].thresholds(2) == (2.0, 2.5)
    assert hybrid["state"].r == 4


# Values a scenario file may hold at any key: numbers at the edges of float
# range, huge integers, a negative number, and text that is no number or name.
NUMBER_EDGES = ["nan", "inf", "-inf", "-0", "1e308", "1e200", "1e-320",
                "123456789012345678901234567890", "1" + "0" * 400, "-3"]
EDGE_VALUES = NUMBER_EDGES + ["x", "", "fuzzy"]
# A byte that is not UTF-8, written through surrogateescape.
NON_UTF8 = "\udcff"
# Valid values by key; a key not named here takes FUZZ_NUMBERS.  The arm is
# the unit arm but for its faults, so that few arms need a gain design.  Each
# accepted (dt, t_final) pair, edge values and overrides included, asks for
# at most 101 samples.
FUZZ_VALID = {**{key: ["1"] for key in cli.SCENARIO_KEYS["model"]},
              "type": list(cli.CONTROLLER_TYPES),
              "mode": ["reduced", "full", "both"], "gain": ["constant", "scheduled"],
              "semantics": ["paper", "hysteresis"], "r_min": ["0", "1", "3"],
              "r_guess": ["1", "4"], "dt": ["1e-3", "0.01"], "t_final": ["0.1", "0.02"]}
FUZZ_NUMBERS = ["1", "0.5", "20"]
# The faults a key may get, most of them edge values, and the share of keys
# that get one, drawn per file so that some files have none.
FAULTS = ("edge",) * 6 + ("length", "drop", "twice", "section", "header", "bytes")
FAULT_RATES = (0.0, 0.05, 0.1, 0.2)
# The overrides a run may get, each drawn with probability OVERRIDE_RATE.
# Half the --dt and --t-final values are valid, half edge values that parse
# as floats.  Written --flag value, as half the runs write them, -inf is
# taken for a flag, and the pools also hold a non-number.
OVERRIDES = {"--gain": GAIN_MODES, "--observer": OBSERVER_MODES,
             "--jump-semantics": ("paper", "hysteresis"),
             "--dt": FUZZ_VALID["dt"] * 5 + NUMBER_EDGES,
             "--t-final": FUZZ_VALID["t_final"] * 5 + NUMBER_EDGES}
OVERRIDE_RATE = 0.3
NON_NUMBER = "x"
# A file is named after a builtin, which the loader refuses whatever the file
# holds, at this rate, else FUZZ_STEM; half the runs ask for the report.
BUILTIN_STEM_RATE = 0.25
FUZZ_STEM = "fuzz"


def scenario_text(rnd: random.Random) -> str:
    """A scenario file that sets every key of SCENARIO_KEYS, each to a valid
    value or with one fault: a value from EDGE_VALUES, a vector of the wrong
    length, the key left out or written twice, a byte that is not UTF-8 in
    its value, or its whole section or the section's header line left out.
    dt and t_final are always set once."""
    rate = rnd.choice(FAULT_RATES)
    lines = []
    for section, keys in cli.SCENARIO_KEYS.items():
        kinds = {key: rnd.choice(FAULTS) if rnd.random() < rate else None for key in keys}
        if section == "simulation":
            kinds = {key: kind and "edge" for key, kind in kinds.items()}
        if "section" in kinds.values():
            continue
        if "header" not in kinds.values():
            lines.append(f"[{section}]")
        for key, kind in kinds.items():
            width = 2 if keys[key][0] is cli._parse_vec else 1
            if kind == "length":
                width = rnd.choice([1, 3]) if width == 2 else 2
            values = [rnd.choice(FUZZ_VALID.get(key, FUZZ_NUMBERS)) for _ in range(width)]
            if kind == "edge":
                values[rnd.randrange(width)] = rnd.choice(EDGE_VALUES)
            if kind == "bytes":
                values[rnd.randrange(width)] += NON_UTF8
            lines += [f"{key} = {' '.join(values)}"] * {"drop": 0, "twice": 2}.get(kind, 1)
    return "\n".join(lines) + "\n"


def override_args(rnd: random.Random) -> list[str]:
    """Command-line overrides for a run, each drawn from OVERRIDES or left
    out; given as --flag=value, or (half the runs) as --flag value."""
    spaced = rnd.random() < 0.5
    args = []
    for flag, values in OVERRIDES.items():
        if rnd.random() < OVERRIDE_RATE:
            if spaced and flag in ("--dt", "--t-final"):
                values = [*values, NON_NUMBER]
            value = rnd.choice(values)
            args += [flag, value] if spaced else [f"{flag}={value}"]
    return args


# Hypothesis draws the seed of each file, its name and its arguments: drawn
# key by key through its strategies, a file costs more than its run.
@settings(max_examples=400)
@given(case=st.integers(0, 2**64))
# a scheduled file whose starting mode no float holds, run with a constant
# gain designed at that mode's band speed
@example(case=(SCHEDULED_INI.replace("r_guess = 1", "r_guess = 1" + "0" * 400),
               ["--gain=constant"], FUZZ_STEM))
# a file named after the builtin whose claims read a PD law and a band
@example(case=(QUICK_INI, ["--report"], "example3"))
# a constant gain over a band whose floor mode no float holds: the run read
# no band, and the check of its export overflowed in the report
@example(case=1_055_033_589_269)
def test_every_scenario_file_runs_or_exits_with_one_line(case):
    if isinstance(case, int):
        rnd = random.Random(case)
        stem = rnd.choice(BUILTIN_NAMES) if rnd.random() < BUILTIN_STEM_RATE else FUZZ_STEM
        report = ["--report"] * (rnd.random() < 0.5)
        case = scenario_text(rnd), override_args(rnd) + report, stem
    text, args, stem = case
    note(f"{stem}.ini:\n{text}\n{args}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        path = Path(out) / f"{stem}.ini"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main(["run", str(path), "--out", out, *args])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION, EXIT_CHECKS)
        assert err.getvalue().count("\n") <= 1
        csv = Path(out) / f"{stem}.csv"
        if not csv.exists():
            return
        # check of the export, under the same overrides: a report run's verdict
        err = io.StringIO()
        overrides = [arg for arg in args if arg != "--report"]
        with contextlib.redirect_stderr(err):
            checked = main(["check", str(csv), "--scenario", str(path), *overrides])
    assert checked in (EXIT_OK, EXIT_CONFIG, EXIT_CHECKS)
    assert err.getvalue().count("\n") <= 1
    if "--report" in args and code in (EXIT_OK, EXIT_CHECKS):
        assert checked == code
