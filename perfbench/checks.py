"""Correctness checks on one simulated scenario, made apart from velobs.

Each check takes the spec the scenario was made from and the outputs velobs
produced, and returns a list of failure messages (empty when it passes).  The
references come from reference.py or from properties the method must have;
none is a stored copy of an earlier output.  selftest.py shows that each
check rejects a sabotaged input.
"""
from __future__ import annotations

import math
import re

import numpy as np

from reference import arm_of, plant_reference

# RK4 at dt = 1e-3 against DOP853 at 1e-12: observed gaps are below 3e-10 on
# 40 s open-loop runs; a 1e-6 change of the initial state is caught.
PLANT_TOL = 1e-8
GAIN_RTOL = 1e-9
SETTLE_THRESHOLD = 0.01
SETTLE_TAIL = 0.1         # final share of the run that must stay settled
SETPOINT_TOL = 0.01
SLACK = 1e-12

CSV_HEADER = ("t,q1,q2,dq1,dq2,dq1_hat,dq2_hat,eps_norm,V,r,k_r,"
              "tau1,tau2,lower_bound,upper_bound")


def _design_speed(spec) -> float:
    obs, hyb = spec["observer"], spec["hybrid"]
    if obs["gain"] == "constant":
        return obs["v_max"]
    return hyb["v_bar"] * max(hyb["r_guess"], 1)


def check_plant(spec, t, x1, x2, cache=None) -> list[str]:
    """Open-loop plant states agree with the thin-rod reference integration."""
    key = spec["name"], spec["t_final"]
    if cache is not None and key in cache:
        ref = cache[key]
    else:
        ref = plant_reference(spec, t)
        if cache is not None:
            cache[key] = ref
    if ref is None:
        return []
    got = np.hstack([x1, x2])
    if got.shape != ref.shape:
        return [f"plant: {got.shape[0]} samples, reference has {ref.shape[0]}"]
    err = np.abs(got - ref).max(axis=0)
    tol = PLANT_TOL * (1.0 + np.abs(ref).max(axis=0))
    if np.all(err <= tol):
        return []
    return [f"plant: state differs from the reference by {err.max():.3g}"]


def check_gains(spec, k0, lambda1, lambda2, r, k_gain) -> list[str]:
    """k0 and every k_r in use match the grid formula."""
    arm = arm_of(spec)
    eta = spec["observer"]["eta"]
    out = []
    k_ref, l1_ref, l2_ref = arm.design(eta, _design_speed(spec))
    for name, got, ref in (("k0", k0, k_ref), ("lambda1", lambda1, l1_ref),
                           ("lambda2", lambda2, l2_ref)):
        if not abs(got - ref) <= GAIN_RTOL * abs(ref):
            out.append(f"gain: {name} = {got!r}, formula gives {ref!r}")
    if spec["hybrid"] is None:
        expected = {0: k_ref}
    else:
        v_bar = spec["hybrid"]["v_bar"]
        expected = {int(m): arm.design(eta, int(m) * v_bar)[0] for m in np.unique(r)}
    ref = np.array([expected.get(int(m), math.nan) for m in r])
    bad = ~(np.abs(k_gain - ref) <= GAIN_RTOL * np.abs(ref))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        out.append(f"gain: k_r at row {i} (r = {int(r[i])}) is {float(k_gain[i])!r}, "
                   f"formula gives {float(ref[i])!r}")
    return out


def check_jumps(spec, est, r, events) -> list[str]:
    """Every jump lies in its jump set, and no step missed one."""
    hyb = spec["hybrid"]
    if hyb is None:
        return [] if np.all(r == 0) and not events else ["jumps: constant gain run jumped"]
    eta = spec["observer"]["eta"]
    v_bar, r_min = hyb["v_bar"], hyb["r_min"]
    hyst = hyb["semantics"] == "hysteresis"

    def up_thr(m):
        return m * v_bar - eta

    def down_thr(m):
        return (m - 1) * v_bar + (-eta if hyst else eta)

    out = []
    norm = np.linalg.norm(est, axis=1)
    prev = r[:-1].astype(float)
    n1 = norm[1:]
    up = n1 >= up_thr(prev)
    down = (prev > r_min) & (n1 <= down_thr(prev))
    want = np.where(up, prev + 1, np.where(down, prev - 1, prev))
    # a norm within rounding of a threshold may fall either way
    near = ((np.abs(n1 - up_thr(prev)) <= 1e-9 * (1.0 + n1))
            | (np.abs(n1 - down_thr(prev)) <= 1e-9 * (1.0 + n1)))
    bad = (want != r[1:]) & ~near
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0]) + 1
        out.append(f"jumps: step {i} went {int(r[i - 1])} -> {int(r[i])} "
                   f"at |xhat2| = {float(norm[i])!r}, the jump sets give {int(want[i - 1])}")
    if np.any(r < r_min):
        out.append("jumps: mode below r_min")
    flow_events = [ev for ev in events if ev.step > 0]
    if len(flow_events) != int(np.count_nonzero(np.diff(r))):
        out.append(f"jumps: {len(flow_events)} events for "
                   f"{int(np.count_nonzero(np.diff(r)))} mode changes")
    # initialisation jumps walk from r_guess to r[0] at the initial norm
    m = hyb["r_guess"]
    for ev in (ev for ev in events if ev.step == 0):
        if ev.old_r != m:
            out.append("jumps: initialisation events are not consecutive")
            break
        m = ev.new_r
    if m != int(r[0]):
        out.append(f"jumps: initialisation ends in {m}, first row has {int(r[0])}")
    for ev in events:
        step_norm = float(norm[ev.step])
        if abs(ev.est_norm - step_norm) > 1e-9 * (1.0 + step_norm):
            out.append(f"jumps: event at step {ev.step} records |xhat2| = "
                       f"{ev.est_norm!r}, the estimate has {step_norm!r}")
        if ev.new_r == ev.old_r + 1:
            legal = ev.est_norm >= up_thr(ev.old_r) - SLACK
        elif ev.new_r == ev.old_r - 1:
            legal = ev.old_r > r_min and ev.est_norm <= down_thr(ev.old_r) + SLACK
        else:
            legal = False
        if not legal:
            out.append(f"jumps: {ev.old_r} -> {ev.new_r} at |xhat2| = "
                       f"{ev.est_norm!r} is outside the jump set")
        if ev.step > 0 and not (r[ev.step - 1] == ev.old_r and r[ev.step] == ev.new_r):
            out.append(f"jumps: event at step {ev.step} disagrees with the mode column")
    return out[:5]


def check_sandwich(eta, x2, est, lower, upper) -> list[str]:
    """After the error first enters the eta ball, |dq| is within |xhat2| +- eta."""
    out = []
    est_n = np.linalg.norm(est, axis=1)
    lo_ref = np.maximum(0.0, est_n - eta)
    hi_ref = est_n + eta
    tol = 1e-12 * (1.0 + hi_ref)
    if np.any(np.abs(lower - lo_ref) > tol) or np.any(np.abs(upper - hi_ref) > tol):
        out.append("sandwich: bound columns are not max(0, |xhat2| - eta), |xhat2| + eta")
    inside = np.flatnonzero(np.linalg.norm(x2 - est, axis=1) <= eta)
    if inside.size:
        s = int(inside[0])
        speed = np.linalg.norm(x2[s:], axis=1)
        gap = np.abs(speed - est_n[s:]) - eta
        if np.any(gap > SLACK * (1.0 + speed)):
            i = s + int(np.argmax(gap))
            out.append(f"sandwich: speed leaves |xhat2| +- eta at row {i} "
                       f"by {float(gap.max()):.3g}")
    return out


def check_columns(spec, x1, x2, est, eps_norm, v_lyap) -> list[str]:
    """eps_norm and V are the error norm and 0.5 eps^T M(q) eps."""
    e = x2 - est
    n = np.hypot(e[:, 0], e[:, 1])
    v = arm_of(spec).energy(x1[:, 1], e[:, 0], e[:, 1])
    out = []
    if np.any(np.abs(eps_norm - n) > 1e-12 * (1.0 + n)):
        out.append("columns: eps_norm is not |dq - xhat2|")
    if np.any(np.abs(v_lyap - v) > 1e-9 * (1.0 + v)):
        out.append("columns: V is not 0.5 eps^T M(q) eps")
    return out


def csv_columns(traj) -> list[np.ndarray]:
    """The 15 exported columns of a trajectory, in file order."""
    est = traj.xhat2
    return [traj.t, traj.x1[:, 0], traj.x1[:, 1], traj.x2[:, 0], traj.x2[:, 1],
            est[:, 0], est[:, 1], traj.eps_norm, traj.v_lyap, traj.r, traj.k_gain,
            traj.tau[:, 0], traj.tau[:, 1], traj.lower, traj.upper]


def check_csv(path, columns) -> list[str]:
    """The file holds every column bit for bit."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != CSV_HEADER:
        return [f"csv: header is {header!r}"]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"csv: unreadable: {exc}"]
    if data.shape != (columns[0].shape[0], len(columns)):
        return [f"csv: shape {data.shape}, expected {(columns[0].shape[0], len(columns))}"]
    out = []
    for j, col in enumerate(columns):
        want = np.asarray(col, dtype=float)
        if not np.array_equal(data[:, j].view(np.int64), want.view(np.int64)):
            row = int(np.flatnonzero(data[:, j].view(np.int64) != want.view(np.int64))[0])
            out.append(f"csv: column {j} differs at row {row}: "
                       f"{float(data[row, j])!r} != {float(want[row])!r}")
    return out


def check_settles(spec, t, eps_by_observer, x1) -> list[str]:
    """Observer errors settle; a PD arm reaches its setpoint."""
    out = []
    tail = t >= t[-1] * (1.0 - SETTLE_TAIL)
    for which, eps in eps_by_observer.items():
        if not np.all(eps[tail] < SETTLE_THRESHOLD):
            out.append(f"settle: {which} error is {float(eps[tail].max()):.3g} "
                       f"late in the run")
    ctl = spec["controller"]
    if ctl["type"] == "pd":
        miss = float(np.linalg.norm(x1[-1] - np.asarray(ctl["setpoint"])))
        if not miss < SETPOINT_TOL:
            out.append(f"settle: arm ends {miss:.3g} rad from the setpoint")
    return out


def check_report(spec, text) -> list[str]:
    """`velobs check` passed and re-designed the same k0."""
    out = []
    if "overall: pass" not in text:
        out.append("report: overall is not pass")
    m = re.search(r"^k0_design: (\S+)$", text, re.M)
    k_ref = arm_of(spec).design(spec["observer"]["eta"], _design_speed(spec))[0]
    if m is None or abs(float(m.group(1)) - k_ref) > 1e-5 * k_ref:
        out.append(f"report: k0_design {m.group(1) if m else 'missing'}, "
                   f"formula gives {k_ref:.6g}")
    return out


def verify(spec, traj, csv_path, report_text, plant_cache, settle: bool) -> list[str]:
    """All checks for one simulated, exported and checked scenario."""
    est = traj.xhat2
    eta = spec["observer"]["eta"]
    errors = []
    errors += check_plant(spec, traj.t, traj.x1, traj.x2, plant_cache)
    errors += check_gains(spec, traj.design.k0, traj.design.lambda1,
                          traj.design.lambda2, traj.r, traj.k_gain)
    errors += check_jumps(spec, est, traj.r, traj.jump_events)
    errors += check_sandwich(eta, traj.x2, est, traj.lower, traj.upper)
    errors += check_columns(spec, traj.x1, traj.x2, est, traj.eps_norm, traj.v_lyap)
    errors += check_csv(csv_path, csv_columns(traj))
    if report_text is not None:  # None when `velobs check` itself failed
        errors += check_report(spec, report_text)
    if settle:
        eps = {which: np.linalg.norm(traj.x2 - e, axis=1)
               for which, e in (("reduced", traj.xhat2_reduced),
                                ("full", traj.xhat2_full)) if e is not None}
        errors += check_settles(spec, traj.t, eps, traj.x1)
    return [f"{spec['name']}: {e}" for e in errors]
