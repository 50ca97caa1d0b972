"""Diagnostics tests: Lyapunov scan, settling, jump audits, reports."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from velobs.analysis import (
    chatter_score,
    check_lyapunov_decrease,
    first_entry_index,
    illegal_jumps,
    observed_decay_rate,
    report_lines,
    sandwich_violations,
    scenario_checks,
    settling_time,
    ultimate_r_constant,
)
from velobs.hybrid_logic import JumpEvent
from velobs.simulator import Trajectory, builtin_scenarios, simulate


# The scenario of a synthetic trajectory that names none: a reduced
# observer with a constant gain on the two-link arm.
SYNTHETIC = dataclasses.replace(builtin_scenarios()["example1"], name="synthetic",
                                observer_mode="reduced")


def synthetic(eps, dt=0.1, speed=0.0, v_lyap=None, r=0, scenario=SYNTHETIC,
              est=None, lower=None, upper=None):
    """A trajectory of given error norms; r is a mode or a mode column, and
    est the estimate rows where they are given."""
    eps = np.asarray(eps, dtype=float)
    n = eps.shape[0]
    x2 = np.zeros((n, 2))
    x2[:, 0] = speed
    return Trajectory(
        t=np.arange(n) * dt,
        x1=np.zeros((n, 2)),
        x2=x2,
        eps_norm=eps,
        v_lyap=np.zeros(n) if v_lyap is None else np.asarray(v_lyap, float),
        r=np.broadcast_to(r, n).astype(int),
        k_gain=np.ones(n),
        tau=np.zeros((n, 2)),
        lower=np.zeros(n) if lower is None else np.asarray(lower, float),
        upper=np.full(n, 1e9) if upper is None else np.asarray(upper, float),
        xhat2_reduced=(x2 - eps[:, None] * np.array([0.0, 1.0]) if est is None
                       else np.asarray(est, float)),
        scenario=scenario,
        design=scenario.design(),
    )


def test_lyapunov_value_is_the_inertia_quadratic(arm, oracle):
    rng = np.random.default_rng(71)
    for _ in range(20):
        y = rng.uniform(-np.pi, np.pi, size=2)
        eps = rng.normal(size=2)
        expected = 0.5 * eps @ oracle.inertia(y) @ eps
        assert math.isclose(arm.energy(arm.kernel(y.tolist()), eps.tolist()), expected,
                            rel_tol=1e-12)
    assert arm.energy(arm.kernel(y.tolist()), [0.0, 0.0]) == 0.0


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_v_column_is_lyapunov_value(name):
    sc = dataclasses.replace(builtin_scenarios()[name], t_final=1.0)
    traj = simulate(sc)
    expected = [sc.model.energy(sc.model.kernel(y), eps)
                for eps, y in zip((traj.x2 - traj.xhat2).tolist(), traj.x1.tolist())]
    assert np.array_equal(traj.v_lyap, expected)


def test_checker_passes_on_the_constant_gain_run(example1_traj):
    chk = check_lyapunov_decrease(example1_traj, example1_traj.design)
    assert chk.ok
    assert chk.checked_pairs > 1000
    assert chk.max_increase <= 1e-8 * (1.0 + float(np.max(example1_traj.v_lyap)))


def test_checker_flags_the_undersized_gain_run(negative_control_traj):
    chk = check_lyapunov_decrease(negative_control_traj,
                                  negative_control_traj.design)
    assert not chk.ok
    assert len(chk.violations) >= 10
    assert chk.max_increase > 1e-5
    i, t, v_now, v_next = chk.violations[0]
    assert v_next > v_now > 0.0
    assert t == pytest.approx(i * negative_control_traj.scenario.dt)


def pairwise_scan(traj, design, tol_scale=1e-8):
    """The decrease scan one pair of consecutive samples at a time."""
    speed = np.linalg.norm(traj.x2, axis=1)
    bound = (traj.r * traj.scenario.hybrid.v_bar
             if traj.scenario.gain_mode == "scheduled"
             else np.full(traj.t.shape, design.v_max))
    ok = (traj.eps_norm < design.region_radius) & (speed <= bound)
    v = traj.v_lyap
    pairs = [i for i in range(len(v) - 1) if ok[i] and ok[i + 1]]
    violations = [(i, float(traj.t[i]), float(v[i]), float(v[i + 1])) for i in pairs
                  if v[i + 1] - v[i] > tol_scale * (1.0 + v[i])]
    max_inc = max((v[i + 1] - v[i] for i in pairs), default=0.0)
    return violations, len(pairs), max_inc


def test_checker_is_the_pairwise_scan(negative_control_traj, example1_traj,
                                      example2_traj):
    for traj in (negative_control_traj, example1_traj, example2_traj):
        chk = check_lyapunov_decrease(traj, traj.design)
        assert (chk.violations, chk.checked_pairs, chk.max_increase) == \
            pairwise_scan(traj, traj.design)
    # not vacuous: the undersized-gain run has violations to compare
    assert pairwise_scan(negative_control_traj, negative_control_traj.design)[0]


def test_checker_skips_inadmissible_samples(design15):
    # growing V, but the error is outside the guaranteed region throughout
    v = np.linspace(1.0, 2.0, 10)
    traj = synthetic(np.full(10, 1.0), v_lyap=v)
    chk = check_lyapunov_decrease(traj, design15)
    assert chk.ok
    assert chk.checked_pairs == 0
    assert chk.max_increase == 0.0
    # the region is open: an error on its edge is outside it, one ulp in is inside
    radius = design15.region_radius
    on_edge = synthetic(np.full(10, radius), v_lyap=v)
    assert check_lyapunov_decrease(on_edge, design15).checked_pairs == 0
    inside = synthetic(np.full(10, math.nextafter(radius, 0.0)), v_lyap=v)
    assert len(check_lyapunov_decrease(inside, design15).violations) == 9


def test_checker_speed_gate_uses_the_scheduled_band(design15):
    sc = builtin_scenarios()["example2"]
    eps = np.full(10, 0.1)                      # inside the region
    v = np.linspace(1.0, 2.0, 10)               # strictly increasing
    # constant-mode gate: speed 2.5 > v_max = 1.5, nothing is checked
    flat = synthetic(eps, speed=2.5, v_lyap=v)
    assert check_lyapunov_decrease(flat, design15).checked_pairs == 0
    # scheduled gate: bound is r * v_bar = 3.0, so the growth is flagged
    sched = synthetic(eps, speed=2.5, v_lyap=v, r=2, scenario=sc)
    chk = check_lyapunov_decrease(sched, design15)
    assert chk.checked_pairs == 9
    assert len(chk.violations) == 9


def test_settling_time_sentinels():
    always_low = synthetic(np.full(5, 0.001))
    assert settling_time(always_low) == 0.0
    never = synthetic(np.array([0.5, 0.4, 0.3, 0.2, 0.1]))
    assert settling_time(never) is None
    mixed = synthetic(np.array([0.5, 0.5, 0.001, 0.002]))
    assert settling_time(mixed) == pytest.approx(0.2)
    # a late excursion resets the settling instant
    bump = synthetic(np.array([0.5, 0.001, 0.5, 0.001]))
    assert settling_time(bump) == pytest.approx(0.3)


def test_first_entry_index():
    assert first_entry_index(synthetic([2.0, 0.9, 0.5]), 1.0) == 1
    assert first_entry_index(synthetic([2.0, 3.0]), 1.0) is None
    # the eta ball is closed
    assert first_entry_index(synthetic([2.0, 1.0, 0.5]), 1.0) == 1


def test_the_decay_fit_takes_at_least_three_samples():
    # below the threshold from the start: the fit is over samples 0 to 2,
    # which decay at rate 2 exactly, and not over the jump at sample 3
    eps = [1e-3, 1e-3 * math.exp(-0.2), 1e-3 * math.exp(-0.4), 0.5]
    assert observed_decay_rate(synthetic(eps, dt=0.1)) == pytest.approx(2.0, rel=1e-9)


def test_sandwich_violation_count():
    eps = np.array([2.0, 0.5, 0.5, 0.5])
    traj = synthetic(eps, speed=1.0,
                     lower=np.array([0.0, 0.0, 1.5, 0.0]),
                     upper=np.array([9.0, 9.0, 9.0, 0.5]))
    # entry at index 1; index 2 breaks the lower bound, 3 the upper
    assert sandwich_violations(traj, 1.0) == 2
    assert sandwich_violations(synthetic([5.0, 5.0]), 1.0) == 0
    # the slack is 1e-12: speed 1 against bounds 1e-11 past it (a violation)
    # and 5e-13 past it (none)
    lower = [0.0, 1.0 + 1e-11, 0.0, 1.0 + 5e-13]
    upper = [1.0 - 1e-11, 9.0, 1.0 - 5e-13, 9.0]
    assert sandwich_violations(synthetic(np.zeros(4), speed=1.0, lower=lower, upper=upper),
                               1.0) == 2


def test_illegal_jump_audit(example2_traj):
    assert illegal_jumps(example2_traj) == []
    sc = builtin_scenarios()["example2"]
    up = 1 * sc.hybrid.v_bar - sc.hybrid.eta     # the up threshold of mode 1
    # each change of the mode column is a jump, at its row's estimate norm
    r = [1, 2, 2, 1, 2, 1, 3, 1, 0, 1]
    nrm = [0.0, up + 0.1, 0.0, 0.0, up - 0.1, 0.0, 99.0, 0.0, 0.0, 99.0]
    est = np.column_stack([nrm, np.zeros(len(r))])
    # the time-zero walk from r_guess = 3 to r[0] = 1 at the initial norm 3:
    # 3 -> 2 inside its down-jump set (3 <= 2 v_bar + eta), 2 -> 1 outside
    # its own (3 > v_bar + eta)
    walked = dataclasses.replace(sc, r_guess=3, xhat2_0=np.array([3.0, 0.0]))
    traj = synthetic(np.zeros(len(r)), dt=0.1, r=r, est=est, scenario=walked)
    t = traj.t.tolist()
    assert traj.jump_events[:2] == [(0.0, 3, 2, 3.0, 0), (0.0, 2, 1, 3.0, 0)]
    assert illegal_jumps(traj) == [
        JumpEvent(0.0, 2, 1, 3.0, 0),        # a down-jump over its threshold
        JumpEvent(t[4], 1, 2, up - 0.1, 4),  # an up-jump under its threshold
        JumpEvent(t[6], 1, 3, 99.0, 6),      # two modes up
        JumpEvent(t[7], 3, 1, 0.0, 7),       # two modes down
        JumpEvent(t[8], 1, 0, 0.0, 8),       # below the floor
        JumpEvent(t[9], 0, 1, 99.0, 9)]      # out of a mode below r_min
    assert all(type(v) in (int, float) for ev in illegal_jumps(traj) for v in ev)
    assert illegal_jumps(synthetic(np.zeros(2))) == []
    assert illegal_jumps(synthetic(np.zeros(2), r=1, scenario=sc)) == []


def test_chatter_score_counts_close_pairs():
    # flow jumps at steps 10, 15, 100 and 105; the time-zero walk is no flow jump
    r = np.ones(110, dtype=int)
    r[10:], r[15:], r[100:], r[105:] = 2, 3, 2, 3
    walked = dataclasses.replace(builtin_scenarios()["example2"], r_guess=4)
    traj = synthetic(np.zeros(110), r=r, scenario=walked)
    assert [ev.step for ev in traj.jump_events] == [0, 0, 0, 10, 15, 100, 105]
    assert chatter_score(traj) == 2
    assert chatter_score(synthetic(np.zeros(3))) == 0


def test_ultimate_r_constant_tail():
    steady = synthetic(np.zeros(10))
    assert ultimate_r_constant(steady)
    drift = synthetic(np.zeros(10))
    drift.r[-1] = 3
    assert not ultimate_r_constant(drift)
    # the tail is the final fifth: samples ceil(0.8 * 9) = 8 and 9
    late_settle = synthetic(np.zeros(10))
    late_settle.r[:9] = 5
    assert not ultimate_r_constant(late_settle)
    late_settle.r[8] = 0
    assert ultimate_r_constant(late_settle)
    # of 101 samples, the tail is samples ceil(0.8 * 100) = 80 to 100
    long_run = synthetic(np.zeros(101))
    long_run.r[:80] = 5
    assert ultimate_r_constant(long_run)
    long_run.r[80] = 5
    assert not ultimate_r_constant(long_run)


def test_compare_observers_shapes(example1_traj, example2_traj):
    lines1 = report_lines(example1_traj, example1_traj.design)
    keys1 = [ln.split(":")[0] for ln in lines1]
    assert {"reduced_settling_time", "full_settling_time"} <= set(keys1)
    # only the active observer carries the Lyapunov scan
    assert "reduced_lyapunov_violations: 0" in lines1
    assert not any(k.startswith("full_lyapunov_") for k in keys1)
    lines2 = report_lines(example2_traj, example2_traj.design)
    assert not any(ln.startswith("full_") for ln in lines2)
    assert f"jump_count: {len(example2_traj.jump_events)}" in lines2


def test_scenario_checks_all_pass_on_builtin_runs(example1_traj, example2_traj,
                                                  example3_traj):
    for traj in (example1_traj, example2_traj, example3_traj):
        checks = scenario_checks(traj, traj.design)
        assert checks, "expected at least one check"
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, f"{traj.scenario.name}: {failed}"


def test_example3_position_tolerance_is_a_hundredth(design15):
    sc = builtin_scenarios()["example3"]
    traj = synthetic(np.zeros(5), r=1, scenario=sc)
    for miss, converges in ((0.015, False), (0.005, True)):
        traj.x1[-1] = sc.controller.config.x_ref + [miss, 0.0]
        assert scenario_checks(traj, design15)["position_converges"] is converges


def test_scenario_check_keys_match_the_scenario(example1_traj, example2_traj,
                                                example3_traj):
    c1 = scenario_checks(example1_traj, example1_traj.design)
    assert {"lyapunov_decrease", "velocity_within_bound", "reduced_settles",
            "full_settles", "reduced_faster_than_full"} <= set(c1)
    c2 = scenario_checks(example2_traj, example2_traj.design)
    assert {"velocity_exceeds_design_bound", "observer_settles", "r_increases",
            "jumps_legal"} <= set(c2)
    c3 = scenario_checks(example3_traj, example3_traj.design)
    assert {"position_converges", "observer_settles",
            "r_settles_at_floor"} <= set(c3)


def test_scenario_checks_degrade_for_csv_reload(example1_traj, tmp_path):
    # the CSV keeps only the active estimate; re-checking a reload must
    # evaluate the claims the data supports and omit the rest
    path = tmp_path / "e1.csv"
    example1_traj.to_csv(path)
    back = Trajectory.from_csv(path, example1_traj.scenario)
    checks = scenario_checks(back, example1_traj.design)
    assert {"lyapunov_decrease", "velocity_within_bound",
            "reduced_settles"} <= set(checks)
    assert "full_settles" not in checks
    assert "reduced_faster_than_full" not in checks
    assert all(checks.values())


def test_build_report_fields(example2_traj):
    st = settling_time(example2_traj, "reduced")
    assert st is not None and st > 0.0
    rate = observed_decay_rate(example2_traj, "reduced")
    assert rate is None or rate > 0.0
    lines = report_lines(example2_traj, example2_traj.design)
    assert f"reduced_settling_time: {st:.6g}" in lines
    rate_lines = [ln for ln in lines if ln.startswith("reduced_observed_rate:")]
    assert rate_lines == ([] if rate is None else [f"reduced_observed_rate: {rate:.6g}"])
    assert f"final_r: {int(example2_traj.r[-1])}" in lines
    assert f"jump_count: {len(example2_traj.jump_events)}" in lines


def test_report_lines_content(example2_traj, example1_traj):
    lines = report_lines(example2_traj, example2_traj.design)
    text = "\n".join(lines)
    keys = {ln.split(":")[0] for ln in lines}
    assert {"scenario", "observer_mode", "gain_mode", "jump_semantics",
            "empty_flow_annulus", "samples", "k0_design", "region_radius",
            "max_speed", "reduced_settling_time", "sandwich_violations",
            "jump_count", "chatter_score", "final_r", "overall"} <= keys
    # the scan's pair count, then a hybrid run's closed-form flow test, follow
    # ultimate_r_constant
    for traj, tail in ((example2_traj, ["flow_empty_above_floor: true"]), (example1_traj, [])):
        run_lines = report_lines(traj, traj.design)
        keys = [ln.split(":")[0] for ln in run_lines]
        at = keys.index("ultimate_r_constant") + 1
        end = next(i for i, key in enumerate(keys) if key.startswith("check_"))
        pairs = check_lyapunov_decrease(traj, traj.design).checked_pairs
        assert run_lines[at:end] == [f"lyapunov_checked_pairs: {pairs}", *tail]
    assert "scenario: example2" in text
    assert "overall: pass" in text
    assert "check_r_increases: pass" in text
    # narrow-band default config has an empty annulus above the floor
    assert "empty_flow_annulus: true" in text
    # the per-observer block: reduced first, Lyapunov lines for the active one
    block = [ln.split(":")[0] for ln in report_lines(example1_traj, example1_traj.design)
             if ln.startswith(("reduced_", "full_"))]
    assert block == ["reduced_settling_time", "reduced_max_lyapunov_increase",
                     "reduced_lyapunov_violations", "reduced_observed_rate",
                     "full_settling_time", "full_observed_rate"]


def test_report_lines_flag_failures(negative_control_traj):
    lines = report_lines(negative_control_traj, negative_control_traj.design)
    text = "\n".join(lines)
    assert "reduced_lyapunov_violations: 0" not in text
    assert "scenario: negative_control" in text
