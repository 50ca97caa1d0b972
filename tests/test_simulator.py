"""Scenario validation, integration invariants, and CSV round trips."""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import velobs
from velobs import analysis, dynamics, hybrid_logic, observers, simulator
from velobs.analysis import report_lines
from velobs.cli import main
from velobs.controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                                PdConfig, PdGravity)
from velobs.dynamics import SingleLinkModel, TwoLinkArm
from velobs.hybrid_logic import HybridConfig, compute_kr
from velobs.observers import full_rate, reduced_rate
from velobs.simulator import (
    Scenario,
    ScenarioError,
    SimulationBlowUp,
    Trajectory,
    builtin_scenarios,
    simulate,
)


def make_scenario(arm, **kwargs) -> Scenario:
    base = dict(
        name="unit", model=arm, q0=np.array([0.2, -0.4]),
        v0=np.array([0.1, 0.0]), xhat2_0=np.zeros(2),
        controller=ConstantTorque(np.zeros(2)), observer_mode="reduced",
        gain_mode="constant", eta=1.0, v_max=1.5, dt=1e-3, t_final=0.05)
    base.update(kwargs)
    return Scenario(**base)


def test_validation_rejects_bad_scenarios(arm):
    hybrid = HybridConfig(v_bar=1.5, eta=1.0, r_min=1)
    bad = [
        dict(q0=np.zeros(3)),
        dict(v0=np.array([np.nan, 0.0])),
        dict(observer_mode="kalman"),
        dict(gain_mode="adaptive"),
        dict(dt=0.0),
        dict(dt=np.inf),
        dict(t_final=5e-4),
        dict(t_final=np.inf),
        dict(t_final=np.nan),
        dict(eta=0.0),
        dict(eta=np.nan),
        dict(eta=np.inf),
        dict(v_max=None),
        # a constant gain with no v_max is designed at its starting band,
        # which must be one that a scheduled run could start in
        dict(v_max=None, hybrid=hybrid, r_guess=0),
        dict(v_max=None, hybrid=hybrid, r_guess=10**400),
        dict(v_max=-1.0),
        dict(v_max=np.nan),
        dict(v_max=np.inf),
        # more samples than a run may hold, and a ratio past any int
        dict(dt=1e-9, t_final=1e3),
        dict(dt=1e-300, t_final=1e300),
        dict(gain_mode="scheduled", v_max=None),
        dict(gain_mode="scheduled", v_max=None, hybrid=hybrid,
             observer_mode="full", r_guess=1),
        dict(gain_mode="scheduled", v_max=None, eta=2.0, hybrid=hybrid,
             r_guess=1),
        dict(gain_mode="scheduled", v_max=None, hybrid=hybrid, r_guess=0),
        # a scheduled run would ignore the override
        dict(gain_mode="scheduled", v_max=None, hybrid=hybrid, r_guess=1,
             k0_override=5.0),
        dict(k0_override=0.0),
        dict(k0_override=np.nan),
        # finite, but the full observer's kp = k0 * k0 overflows to inf
        dict(k0_override=1e200),
        dict(controller=ConstantTorque(np.zeros(3))),
        dict(controller=PdGravity(PdConfig(kp=[1.0], kd=[1.0], x_ref=[0.0]))),
        # a torque that is not finite at t = 0
        dict(controller=ConstantTorque([np.nan, 0.0])),
        dict(controller=PdGravity(PdConfig(kp=[1.0, 1.0], kd=[1.0, 1.0],
                                           x_ref=[np.nan, 0.0]))),
    ]
    for overrides in bad:
        with pytest.raises(ScenarioError):
            make_scenario(arm, **overrides).validate()
    for v_bar, eta in ((np.nan, 1.0), (1.5, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError):
            HybridConfig(v_bar=v_bar, eta=eta)
    make_scenario(arm).validate()
    make_scenario(arm, v_max=None, hybrid=hybrid, r_guess=3).validate()
    # with v_max given, the band is not read
    make_scenario(arm, hybrid=hybrid, r_guess=10**400).validate()
    steps = simulator.MAX_SAMPLES - 1
    make_scenario(arm, dt=1.0, t_final=float(steps)).validate()
    with pytest.raises(ScenarioError, match="samples"):
        make_scenario(arm, dt=1.0, t_final=float(steps + 1)).validate()
    # the highest starting mode: past it, a mode the run reaches could leave
    # the whole floats of the r column
    top = 2**53 - hybrid_logic.MAX_INIT_JUMPS - simulator.MAX_SAMPLES
    scheduled = dict(gain_mode="scheduled", v_max=None, hybrid=hybrid)
    make_scenario(arm, r_guess=top, **scheduled).validate()
    for r_guess in (top + 1, 10**400):
        with pytest.raises(ScenarioError, match=f"between r_min and {top}"):
            make_scenario(arm, r_guess=r_guess, **scheduled).validate()


def test_open_loop_law_needs_two_joints(single):
    sc = Scenario(name="one_joint", model=single, q0=np.zeros(1), v0=np.zeros(1),
                  xhat2_0=np.zeros(1), controller=OpenLoopBounded(), v_max=1.0)
    with pytest.raises(ScenarioError, match="the open_loop_1 law has n = 2, the model n = 1"):
        sc.validate()


def test_a_law_of_another_joint_count_does_not_fit(arm):
    # the law refuses the model itself, with more joints or fewer, and
    # validate says so in one line
    one_joint_pd = PdGravity(PdConfig(kp=[1.0], kd=[1.0], x_ref=[0.0]))
    for law, n in ((ConstantTorque([1.0, 2.0, 3.0]), 3), (one_joint_pd, 1)):
        message = f"the {law.name} law has n = {n}, the model n = 2"
        with pytest.raises(ValueError, match=f"^{message}$"):
            law.torque(arm, np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ScenarioError, match=f"^controller does not fit the model: {message}$"):
            make_scenario(arm, controller=law).validate()


def test_design_speed_rule(arm):
    hybrid = HybridConfig(v_bar=1.5, eta=1.0)
    assert make_scenario(arm, v_max=2.5).design_speed() == 2.5
    assert make_scenario(arm, v_max=None, hybrid=hybrid, r_guess=3).design_speed() == 4.5
    assert make_scenario(arm, v_max=None, hybrid=hybrid, r_guess=0).design_speed() == 1.5
    assert make_scenario(arm, v_max=None).design_speed() is None


def test_sample_count_rules(arm):
    assert make_scenario(arm, t_final=10.0).sample_count() == 10001
    assert make_scenario(arm, t_final=1e-3).sample_count() == 2
    assert make_scenario(arm, t_final=0.0015).sample_count() == 2
    # 0.3 / 0.1 is 2.9999... in floats; the count must still include t = 0.3
    assert make_scenario(arm, dt=0.1, t_final=0.3).sample_count() == 4


def test_simulation_is_deterministic(single):
    sc = Scenario(name="det", model=single, q0=np.array([0.3]),
                  v0=np.array([1.2]), xhat2_0=np.array([-0.4]),
                  controller=ConstantTorque([0.7]), observer_mode="both",
                  gain_mode="constant", v_max=2.0, dt=1e-3, t_final=0.2)
    a = simulate(sc)
    b = simulate(sc)
    for field in ("t", "x1", "x2", "eps_norm", "v_lyap", "k_gain",
                  "xhat2_reduced", "xhat2_full", "z"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_rest_equilibrium_is_preserved(arm):
    q0 = np.array([0.4, -1.1])
    sc = make_scenario(arm, q0=q0, v0=np.zeros(2), xhat2_0=np.zeros(2),
                       controller=ConstantTorque(arm.gravity(q0)),
                       t_final=0.5)
    traj = simulate(sc)
    assert np.allclose(traj.x1, q0, atol=1e-10)
    assert np.allclose(traj.x2, 0.0, atol=1e-10)
    assert np.allclose(traj.eps_norm, 0.0, atol=1e-10)


def test_initial_sample_matches_scenario(arm):
    sc = make_scenario(arm, xhat2_0=np.array([0.3, -0.2]))
    traj = simulate(sc)
    assert traj.t[0] == 0.0
    assert np.array_equal(traj.x1[0], sc.q0)
    assert np.array_equal(traj.x2[0], sc.v0)
    assert np.allclose(traj.xhat2_reduced[0], sc.xhat2_0, atol=1e-12)
    assert traj.t.shape[0] == sc.sample_count()
    assert traj.t[-1] == pytest.approx(sc.t_final)


def test_full_order_initialization(example1_traj):
    sc = example1_traj.scenario
    assert np.allclose(example1_traj.xhat2_full[0], sc.xhat2_0)


def test_estimate_is_consistent_with_internal_state(example1_traj):
    traj = example1_traj
    rebuilt = traj.z + traj.k_gain[:, None] * traj.x1
    assert np.array_equal(rebuilt, traj.xhat2_reduced)


def test_scheduled_gain_tracks_logic_state(example2_traj):
    traj = example2_traj
    model, hybrid = traj.scenario.model, traj.scenario.hybrid
    expected = np.array([compute_kr(model, hybrid, int(r)) for r in traj.r])
    assert np.array_equal(traj.k_gain, expected)


def test_scheduled_estimate_stays_consistent_across_jumps(example2_traj):
    traj = example2_traj
    rebuilt = traj.z + traj.k_gain[:, None] * traj.x1
    assert np.allclose(rebuilt, traj.xhat2_reduced, atol=1e-12)


def test_jumps_rebase_internal_state_for_continuity(example2_traj):
    traj = example2_traj
    est = traj.xhat2_reduced
    dt_moves = np.linalg.norm(np.diff(est, axis=0), axis=1)
    assert traj.jump_events, "scenario is expected to switch modes"
    for ev in traj.jump_events:
        if ev.step == 0:
            continue
        k_old = traj.k_gain[ev.step - 1]
        k_new = traj.k_gain[ev.step]
        gap = abs(k_new - k_old) * np.linalg.norm(traj.x1[ev.step])
        assert gap > 0.5          # without re-basing this would be the glitch
        assert dt_moves[ev.step - 1] < 0.2 * gap


def test_initialization_jumps_are_recorded(arm):
    sc = make_scenario(
        arm, xhat2_0=np.array([10.5, 0.0]), gain_mode="scheduled", v_max=None,
        hybrid=HybridConfig(v_bar=3.0, eta=1.0), r_guess=0, t_final=1e-3)
    traj = simulate(sc)
    assert [(ev.old_r, ev.new_r) for ev in traj.jump_events[:4]] == [
        (0, 1), (1, 2), (2, 3), (3, 4)]
    assert all(ev.time == 0.0 and ev.step == 0 for ev in traj.jump_events[:4])
    assert traj.r[0] == 4


def test_blow_up_detection(arm):
    sc = make_scenario(arm, controller=ConstantTorque([1e9, 1e9]), t_final=5.0)
    with pytest.raises(SimulationBlowUp):
        simulate(sc)


def test_a_wrapper_bound_as_step_logic_sees_every_step(arm, monkeypatch):
    # the simulator's module-level step_logic is the one a run calls, as a
    # tracer that rebinds it by name relies on: once per step
    calls = []

    def counted(*args):
        calls.append(args[2])
        return hybrid_logic.step_logic(*args)

    monkeypatch.setattr(simulator, "step_logic", counted)
    sc = make_scenario(arm, gain_mode="scheduled", v_max=None, xhat2_0=np.array([2.0, 0.5]),
                       hybrid=HybridConfig(v_bar=1.5, eta=1.0, r_min=1), r_guess=1)
    traj = simulate(sc)
    assert len(calls) == len(traj.t) - 1 == 50
    assert [ev for ev in traj.jump_events if ev.step > 0]


def test_blow_up_check_catches_a_trailing_nan(arm, monkeypatch):
    # NaN full-observer gains, bound into the compiled RHS through its
    # factory, turn the observer states, last in the packed state, NaN while
    # the plant ahead of them stays finite.
    flat_rhs = simulator.flat_rhs
    monkeypatch.setattr(simulator, "flat_rhs", lambda *shape: lambda *numbers: flat_rhs(
        *shape)(*numbers[:-5], math.nan, math.nan, *numbers[-3:]))
    sc = make_scenario(arm, observer_mode="full", t_final=0.01)
    with pytest.raises(SimulationBlowUp, match=r"at t = 0\.001$"):
        simulate(sc)
    # sabotage control: the same compare negated passes a NaN, so the run
    # would end with a NaN estimate and no error
    monkeypatch.setattr(simulator, "WITHIN_LIMIT", "not abs({x}) > {limit}")
    flat_rhs.cache_clear()
    try:
        traj = simulate(sc)
    finally:
        flat_rhs.cache_clear()
    assert np.isnan(traj.xhat2_full[1:]).all()
    assert np.isfinite(traj.x1).all() and np.isfinite(traj.x2).all()


def test_the_last_sample_evaluates_no_later_stage(arm):
    # from this state the velocity overflows within the step, and a later
    # stage takes the cosine of an infinite angle: a blow-up (no state); the
    # last sample's row needs neither; with no logic state the row is at the
    # factory's kd and mode 0
    _, run = simulator.flat_rhs(TwoLinkArm, ConstantTorque, "reduced")(
        *arm._constants, 0.0, 0.0, 1.0, 1.0, 1e-3, None, None)
    s = (0.0, 1.0, 1e308, 1e308, 0.0, 0.0)
    # one sample, one row of the record: its packed state is q, v, then z
    columns = simulator.record_columns("reduced", 2)

    def state(rows):
        row = dict(zip(columns, rows))
        return tuple(row[c] for c in ("q1", "q2", "dq1", "dq2", "z1", "z2"))

    rows, blown, logic = run(0, 1, s, 1, None)
    assert blown is None and logic is None and state(rows) == s
    assert len(rows) == len(columns) == 17
    rows, same, logic = run(0, 1, s, 0, None)
    row = dict(zip(columns, rows))
    assert state(rows) == s and same == s and logic is None and len(rows) == 17
    assert (row["t"], row["r"], row["k_r"]) == (0.0, 0, 1.0)


def test_a_run_holds_its_sample_array_and_one_block(monkeypatch):
    # a scheduled 3 s run in 4-row blocks: past what a one-step run peaks at,
    # it holds the arrays it returns and at most a few blocks' flat lists (a
    # Python float and its list slot, 32 bytes a value)
    sc = dataclasses.replace(builtin_scenarios()["example2"], t_final=3.0, dt=2e-2)

    def peak(sc):
        tracemalloc.start()
        try:
            traj = simulate(sc)
            return tracemalloc.get_traced_memory()[1], traj
        finally:
            tracemalloc.stop()

    def growth(block_rows):
        monkeypatch.setattr(simulator, "CSV_BLOCK_ROWS", block_rows)
        baseline, _ = peak(dataclasses.replace(sc, t_final=sc.dt))
        top, traj = peak(sc)
        samples = traj.x1.base
        held = sum(a.nbytes for a in (samples, traj.t, traj.r, traj.lower, traj.upper))
        return top - baseline, held + 4 * block_rows * samples.shape[1] * 32

    simulate(sc)    # compiles the loop and builds the design tables
    grew, bound = growth(4)
    assert grew <= bound
    # one whole-run list of Python floats holds four times the sample array
    assert growth(sc.sample_count())[0] > bound


def test_jump_counts_follow_the_step_size_as_the_jump_sets_predict():
    # example2 and example3 over 8 s at dt and dt / 2: under hysteresis each
    # jump is an isolated event, the same modes within one coarse step; under
    # the paper's jump sets (v_bar < 2 eta, no flow above the floor) the mode
    # chatters, one jump about every step, so the count doubles
    for name in ("example2", "example3"):
        sc = builtin_scenarios()[name]
        for semantics in ("hysteresis", "paper_faithful"):
            runs = []
            for dt in (2e-3, 1e-3):
                traj = simulate(dataclasses.replace(
                    sc, t_final=8.0, dt=dt,
                    hybrid=dataclasses.replace(sc.hybrid, semantics=semantics)))
                steps = simulator.jump_steps(traj.r)
                runs.append((traj.r[np.r_[0, steps]].tolist(), traj.t[steps]))
            (coarse_modes, coarse_t), (fine_modes, fine_t) = runs
            if semantics == "hysteresis":
                assert len(coarse_modes) > 2 and fine_modes == coarse_modes
                assert np.all(np.abs(fine_t - coarse_t) <= 2e-3)
            else:
                assert abs(fine_t.size - 2 * coarse_t.size) <= 1


def test_single_link_and_full_only_runs(single, arm, tmp_path):
    sc = Scenario(name="full_only", model=single, q0=np.array([0.3]),
                  v0=np.array([1.2]), xhat2_0=np.array([-0.4]),
                  controller=ConstantTorque([0.7]), observer_mode="full",
                  gain_mode="constant", v_max=2.0, dt=1e-3, t_final=0.3)
    traj = simulate(sc)
    assert traj.active == "full"
    assert traj.xhat2_reduced is None
    assert traj.eps_norm[-1] < traj.eps_norm[0]
    with pytest.raises(ValueError):
        traj.eps_norm_for("reduced")
    with pytest.raises(ScenarioError):
        traj.to_csv("/tmp/should_not_exist.csv")
    # nor does a CSV read back as the record of a one-joint scenario
    path = tmp_path / "arm.csv"
    simulate(make_scenario(arm, t_final=0.01)).to_csv(path)
    with pytest.raises(ScenarioError, match="two-joint models"):
        Trajectory.from_csv(path, sc)


def test_csv_round_trip_is_exact(arm, tmp_path):
    sc = make_scenario(arm, controller=OpenLoopBounded(), t_final=0.25,
                       xhat2_0=np.array([0.2, -0.1]))
    traj = simulate(sc)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path, sc)
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.x1, traj.x1)
    assert np.array_equal(back.x2, traj.x2)
    assert np.array_equal(back.xhat2_reduced, traj.xhat2_reduced)
    assert np.array_equal(back.eps_norm, traj.eps_norm)
    assert np.array_equal(back.v_lyap, traj.v_lyap)
    assert np.array_equal(back.r, traj.r)
    assert np.array_equal(back.k_gain, traj.k_gain)
    assert np.array_equal(back.tau, traj.tau)
    assert np.array_equal(back.lower, traj.lower)
    assert np.array_equal(back.upper, traj.upper)
    assert back.jump_events == []


def test_a_full_observer_export_reads_back_as_its_scenarios_record(arm, tmp_path):
    # the file's estimate is the full observer's, and the design is the run's
    sc = make_scenario(arm, observer_mode="full", t_final=0.25, xhat2_0=np.array([0.2, -0.1]))
    traj = simulate(sc)
    path = tmp_path / "full.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path, sc)
    assert back.scenario is sc and back.active == "full" and back.xhat2_reduced is None
    assert np.array_equal(back.xhat2_full, traj.xhat2_full)
    assert back.design == simulate(sc).design
    assert report_lines(back, back.design) == report_lines(traj, traj.design)
    # the file is read and checked before the scenario is validated
    bad = dataclasses.replace(sc, dt=-1.0)
    with pytest.raises(ScenarioError, match="dt must be positive"):
        Trajectory.from_csv(path, bad)
    with pytest.raises(FileNotFoundError):
        Trajectory.from_csv(tmp_path / "missing.csv", bad)


def reference_csv(traj: Trajectory, fmt: str) -> str:
    """The schema written one value at a time, each float as f"{v:{fmt}}"."""
    est = traj.xhat2
    lines = [",".join(simulator.CSV_COLUMNS)]
    for i in range(traj.t.shape[0]):
        row = [f"{v:{fmt}}" for v in (traj.t[i], *traj.x1[i], *traj.x2[i], *est[i],
                                      traj.eps_norm[i], traj.v_lyap[i])]
        row.append(str(int(traj.r[i])))
        row += [f"{v:{fmt}}" for v in (traj.k_gain[i], *traj.tau[i],
                                       traj.lower[i], traj.upper[i])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_csv_blocks_are_the_per_value_bytes(example2_traj, tmp_path):
    # a scheduled run with jumps, cut across block boundaries
    rows = len(example2_traj.t)
    assert rows > simulator.CSV_BLOCK_ROWS and rows % simulator.CSV_BLOCK_ROWS
    assert len(example2_traj.jump_events) > 0
    path = tmp_path / "e2.csv"
    example2_traj.to_csv(path)
    written = path.read_bytes()
    assert written == reference_csv(example2_traj, ".17g").encode()
    # sabotage control: one digit fewer is caught
    assert written != reference_csv(example2_traj, ".16g").encode()


def test_csv_reload_reconstructs_jump_events(example2_traj, tmp_path):
    path = tmp_path / "e2.csv"
    example2_traj.to_csv(path)
    back = Trajectory.from_csv(path, example2_traj.scenario)
    orig = example2_traj.jump_events
    assert len(back.jump_events) == len(orig) > 0
    assert ([(ev.step, ev.old_r, ev.new_r) for ev in back.jump_events]
            == [(ev.step, ev.old_r, ev.new_r) for ev in orig])
    # event times were accumulated as t + dt, the time column as step * dt
    assert np.allclose([ev.time for ev in back.jump_events],
                       [ev.time for ev in orig], rtol=0.0, atol=1e-12)
    assert np.allclose([ev.est_norm for ev in back.jump_events],
                       [ev.est_norm for ev in orig], rtol=1e-9, atol=0.0)


def test_csv_reload_events_are_the_mode_change_rows(example2_traj, tmp_path):
    path = tmp_path / "e2.csv"
    example2_traj.to_csv(path)
    back = Trajectory.from_csv(path, example2_traj.scenario)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    r = data[:, simulator.CSV_COLUMNS.index("r")]
    changed = [i for i in range(1, len(r)) if r[i] != r[i - 1]]
    col = simulator.CSV_COLUMNS.index("dq1_hat")
    want = [(data[i, 0], int(r[i - 1]), int(r[i]),
             math.hypot(data[i, col], data[i, col + 1]), i) for i in changed]
    assert changed and back.jump_events == want
    assert all(type(v) in (int, float) for ev in back.jump_events for v in ev)
    # sabotage control: the numpy norm of the same columns differs somewhere
    assert [ev.est_norm for ev in back.jump_events] != [
        float(np.linalg.norm(data[i, col:col + 2])) for i in changed]


def test_jump_fields_is_read_once_per_audit_and_once_per_view(tmp_path, monkeypatch, capsys):
    # simulate, to_csv and from_csv derive no jump; report_lines and `velobs
    # check` derive them once each, for the audit, and build no event; a read
    # of jump_events derives them once more and keeps the events
    derive = simulator.jump_fields
    calls = []

    def counted(traj):
        calls.append(traj)
        return derive(traj)

    # wherever it is bound by name, as perfbench's tracer wraps a function
    monkeypatch.setattr(simulator, "jump_fields", counted)
    monkeypatch.setattr(analysis, "jump_fields", counted)
    traj = simulate(builtin_scenarios()["example2"])
    path = tmp_path / "example2.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path, traj.scenario)
    assert calls == []
    report = report_lines(traj, traj.design)
    assert calls == [traj]
    assert main(["check", str(path), "--scenario", "example2"]) == 0
    assert capsys.readouterr().out == "\n".join(report) + "\n"
    assert len(calls) == 2 and "jump_events" not in vars(traj) and "jump_events" not in vars(back)
    # a read gives the time-zero walk, then one event per change of r at its
    # row's time and estimate norm, bit for bit, built once
    rows = [(float(traj.t[j]), int(traj.r[j - 1]), int(traj.r[j]),
             math.hypot(*traj.xhat2_reduced[j]), j)
            for j in range(1, len(traj.t)) if traj.r[j] != traj.r[j - 1]]
    for run in (traj, back):
        events = run.jump_events
        assert events is run.jump_events
        assert [tuple(map(repr, ev)) for ev in events] == [tuple(map(repr, ev)) for ev in rows]
    assert calls[2:] == [traj, back]
    # example2 starts in its r_guess, so its walk is empty
    assert len(rows) == 19957 and traj.r[0] == traj.scenario.r_guess


def test_csv_header_is_checked(arm, tmp_path):
    sc = make_scenario(arm, t_final=0.01)
    path = tmp_path / "run.csv"
    simulate(sc).to_csv(path)
    text = path.read_text().splitlines()
    text[0] = text[0].replace("t,", "time,", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="header"):
        Trajectory.from_csv(bad, sc)
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")

    def first_with(column, value):
        col = simulator.CSV_COLUMNS.index(column)
        return ",".join(fields[:col] + [value] + fields[col + 1:])

    cases = [("no data row", [header]),
             ("non-finite", [header, first_with("q1", "inf")] + rest),
             ("non-finite", [header, ",".join(["nan"] * len(fields))] + rest),
             ("mode index", [header, first_with("r", "1.5")] + rest),
             ("mode index", [header, first_with("r", "1e300")] + rest)]
    cases += [("no data row", [header, "", " "]), ("no data row", [header, "", "# a note"])]
    for message, lines in cases:
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            Trajectory.from_csv(bad, sc)
    # blank lines and comments are skipped wherever they are, right after the
    # header too; a line of whitespace is blank, and whitespace then "#" a comment
    for blank in ("", "  ", "\t \r", "  # a note", "\t# a note"):
        bad.write_text("\n".join([header, blank, first, blank, *rest, blank]) + "\n")
        assert np.array_equal(Trajectory.from_csv(bad, sc).x1, Trajectory.from_csv(path, sc).x1)


def test_builtin_scenario_parameters():
    scs = builtin_scenarios()
    assert sorted(scs) == ["example1", "example2", "example3"]
    q0 = np.array([-2.0 * np.pi / 3.0, np.pi / 10.0])
    v0 = np.array([-0.5, 1.0])
    for sc in scs.values():
        assert isinstance(sc.model, TwoLinkArm)
        assert np.array_equal(sc.q0, q0)
        assert np.array_equal(sc.v0, v0)
        assert np.array_equal(sc.xhat2_0, np.zeros(2))
        assert sc.dt == 1e-3
        assert sc.t_final == 20.0
        assert sc.eta == 1.0
        sc.validate()

    e1, e2, e3 = scs["example1"], scs["example2"], scs["example3"]
    assert (e1.observer_mode, e1.gain_mode, e1.v_max) == ("both", "constant", 1.5)
    assert e1.controller.name == "open_loop_1"
    assert (e2.observer_mode, e2.gain_mode) == ("reduced", "scheduled")
    assert e2.controller.name == "open_loop_2"
    assert e2.hybrid == HybridConfig(v_bar=1.5, eta=1.0,
                                     semantics="paper_faithful", r_min=1)
    assert e2.r_guess == 1
    assert isinstance(e3.controller, PdGravity)
    assert np.allclose(np.diagonal(e3.controller.config.kp), [40.0, 20.0])
    assert np.allclose(np.diagonal(e3.controller.config.kd), [60.0, 30.0])
    assert np.allclose(e3.controller.config.x_ref, [np.pi / 4.0, -np.pi / 3.0])


def test_floor_mode_start_has_no_init_jumps(example2_traj):
    assert example2_traj.r[0] == 1
    assert all(ev.time > 0.0 for ev in example2_traj.jump_events)


def test_importing_the_package_compiles_nothing():
    # a fresh interpreter, since this session has compiled equations already;
    # vars() reads a `compiled` attribute without building it
    probe = (
        "import velobs, velobs.cli\n"
        "from velobs import controllers, dynamics, observers, simulator\n"
        "caches = [simulator.flat_rhs, observers._rates,\n"
        "          *(vars(dynamics.RobotModel)[a].build for a in ('kernel', 'accel', 'energy')),\n"
        "          vars(controllers.TorqueLaw)['float_torque'].build]\n"
        "print(*(cache.cache_info().currsize for cache in caches))\n")
    src = str(Path(velobs.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0"] * 6


# The classes that stay dataclasses: cli, the tests and perfbench call
# dataclasses.replace or fields on the first three, and design_tables'
# lru_cache keys on the value equality and hash of the two frozen models.
KEPT_DATACLASSES = {"simulator.Scenario", "hybrid_logic.HybridConfig", "dynamics.TwoLinkParams",
                    "dynamics.TwoLinkArm", "dynamics.SingleLinkModel"}


def velobs_dataclasses() -> set[str]:
    """module.Class of each dataclass that a loaded velobs module defines."""
    return {f"{name.removeprefix('velobs.')}.{attr}"
            for name, module in list(sys.modules.items()) if name.startswith("velobs.")
            for attr, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == name
            and dataclasses.is_dataclass(value)}


def test_start_up_builds_and_imports_only_what_it_uses(monkeypatch):
    # @dataclass writes and compiles its methods on every fresh import
    assert velobs_dataclasses() == KEPT_DATACLASSES
    # control: a record decorated again is caught
    redone = dataclasses.make_dataclass("GainDesign", observers.GainDesign._fields, frozen=True,
                                        namespace={"__module__": "velobs.observers"})
    monkeypatch.setattr(observers, "GainDesign", redone)
    assert velobs_dataclasses() == KEPT_DATACLASSES | {"observers.GainDesign"}
    # only a parallel sweep imports the process pool
    src = str(Path(velobs.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, velobs.cli\nprint('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False"]


def test_one_table_build_per_scheduled_simulate(monkeypatch):
    builds = []
    build = dynamics.grid_tables
    monkeypatch.setattr(dynamics, "grid_tables",
                        lambda model: builds.append(model) or build(model))
    dynamics.design_tables.cache_clear()
    sc = make_scenario(TwoLinkArm(), gain_mode="scheduled", v_max=None,
                       hybrid=HybridConfig(v_bar=1.5, eta=1.0, r_min=1),
                       r_guess=1, t_final=0.01)
    simulate(sc)
    assert len(builds) == 1
    simulate(sc)              # the same model keeps its tables
    assert len(builds) == 1
    # an arm with equal parameters shares them; another parameter does not
    simulate(dataclasses.replace(sc, model=TwoLinkArm(dynamics.TwoLinkParams())))
    assert len(builds) == 1
    simulate(dataclasses.replace(sc, model=TwoLinkArm(dynamics.TwoLinkParams(f1=0.2))))
    assert len(builds) == 2


KERNEL_CASES = (
    pytest.param("arm", OpenLoopBounded(), id="open_loop_1"),
    pytest.param("arm", OpenLoopUnbounded(), id="open_loop_2"),
    pytest.param("arm", PdGravity(PdConfig(kp=[40.0, 20.0], kd=[60.0, 30.0],
                                           x_ref=[0.7, -1.0])), id="pd"),
    pytest.param("arm", ConstantTorque([3.0, -1.5]), id="constant"),
    pytest.param("single", ConstantTorque([0.8]), id="single_constant"),
    pytest.param("single", PdGravity(PdConfig(kp=[5.0], kd=[3.0], x_ref=[0.4])),
                 id="single_pd"),
)


def hand_rk4_step(model, controller, gain, dt, q, v, xhat2):
    """One RK4 step of plant, reduced and full observers on arrays, assembled
    from the array torque law and the per-equation functions."""

    def deriv(t, x):
        q, v, z, h1, h2 = x
        est = z + gain * q
        terms = model.kernel(q.tolist())
        tau = controller.torque(model, q, est, t).tolist()
        dv = model.accel(terms, tau, v.tolist())
        dz = reduced_rate(model, terms, tau, est.tolist(), gain)
        dh1, dh2 = full_rate(model, terms, tau, q.tolist(), h1.tolist(), h2.tolist(),
                             gain, gain * gain)
        return [v, *map(np.array, (dv, dz, dh1, dh2))]

    x = [q, v, xhat2 - gain * q, q, xhat2]
    d1 = deriv(0.0, x)
    d2 = deriv(0.5 * dt, [a + 0.5 * dt * b for a, b in zip(x, d1)])
    d3 = deriv(0.5 * dt, [a + 0.5 * dt * b for a, b in zip(x, d2)])
    d4 = deriv(dt, [a + dt * b for a, b in zip(x, d3)])
    return [a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, d1, d2, d3, d4)]


def relative_gap(got, want) -> float:
    """Largest gap between paired arrays, relative to max(|want|, 1)."""
    return max(float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))
               for a, b in zip(got, want))


def step_mismatch(traj, step) -> float:
    """Largest relative gap between the second sample and a hand-made step."""
    q, v, z, _, h2 = step
    return relative_gap((traj.x1[1], traj.x2[1], traj.z[1], traj.xhat2_full[1]),
                        (q, v, z, h2))


@pytest.mark.parametrize("model_name, controller", KERNEL_CASES)
def test_simulate_step_is_the_array_equations(request, model_name, controller):
    model = request.getfixturevalue(model_name)
    n = model.n
    rng = np.random.default_rng(2027)
    dt = 5e-3
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, size=n)
        v = rng.normal(size=n) * 2.0
        xhat2 = v + rng.normal(size=n) * 0.3
        gain = rng.uniform(3.0, 30.0)
        sc = Scenario(name="kernel", model=model, q0=q, v0=v, xhat2_0=xhat2,
                      controller=controller, observer_mode="both",
                      gain_mode="constant", v_max=1.5, k0_override=gain,
                      dt=dt, t_final=dt)
        traj = simulate(sc)
        assert traj.t.shape == (2,)
        step = hand_rk4_step(model, controller, gain, dt, q, v, xhat2)
        assert step_mismatch(traj, step) <= 1e-12
        # sabotage control: a perturbed gain in the hand-made step is caught
        bad = hand_rk4_step(model, controller, gain * (1.0 + 1e-6), dt, q, v, xhat2)
        assert step_mismatch(traj, bad) > 1e-12


def test_simulate_jump_step_rebases_z(arm):
    # the estimate norm starts just under the up threshold 0.5 of the floor
    # mode 1 and rises past it during the first step, so the logic jumps at
    # the end of the step and z is re-based to the new gain
    hybrid = HybridConfig(v_bar=1.5, eta=1.0, r_min=1)
    controller = ConstantTorque([3.0, -1.5])
    q, v, xhat2 = np.array([0.3, -0.8]), np.array([2.0, 0.5]), np.array([0.45, 0.1])
    dt = 5e-3
    sc = Scenario(name="jump", model=arm, q0=q, v0=v, xhat2_0=xhat2,
                  controller=controller, observer_mode="reduced",
                  gain_mode="scheduled", hybrid=hybrid, r_guess=1, dt=dt, t_final=dt)
    traj = simulate(sc)
    k_old, k_new = compute_kr(arm, hybrid, 1), compute_kr(arm, hybrid, 2)
    assert list(traj.r) == [1, 2] and list(traj.k_gain) == [k_old, k_new]
    assert [(ev.old_r, ev.new_r, ev.step) for ev in traj.jump_events] == [(1, 2, 1)]
    # the step is taken with the old gain; the jump leaves xhat2 where the
    # old gain put it, and z = xhat2 - k_new q
    q1, v1, z1, _, _ = hand_rk4_step(arm, controller, k_old, dt, q, v, xhat2)
    est = z1 + k_old * q1
    got = (traj.x1[1], traj.x2[1], traj.xhat2_reduced[1], traj.z[1])
    assert relative_gap(got, (q1, v1, est, est - k_new * q1)) <= 1e-12
    assert traj.jump_events[0].est_norm == pytest.approx(np.linalg.norm(est), rel=1e-12)
    # sabotage controls: z left at the old gain's value, or a perturbed gain
    # in the hand-made step, is caught
    assert relative_gap(got, (q1, v1, est, z1)) > 1e-12
    k_bad = k_old * (1.0 + 1e-6)
    q_bad, v_bad, z_bad, _, _ = hand_rk4_step(arm, controller, k_bad, dt, q, v, xhat2)
    assert relative_gap(got[:3], (q_bad, v_bad, z_bad + k_bad * q_bad)) > 1e-12
