"""Post-hoc stability diagnostics for simulated trajectories."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hybrid_logic import JumpEvent, flow_empty_above_floor, flow_interval
from .observers import GainDesign
from .simulator import Trajectory, jump_fields, jump_steps

# Velocity-error settling threshold, rad/s.
SETTLING_THRESHOLD = 0.01

# Two jumps at most this many integrator steps apart count as chatter.
CHATTER_WINDOW = 10

# A sample pair breaks the Lyapunov decrease when V grows by more than
# LYAPUNOV_TOL * (1 + V).
LYAPUNOV_TOL = 1e-8


class LyapunovCheck(NamedTuple):
    """Outcome of the monotone-decrease scan."""

    violations: list[tuple[int, float, float, float]]
    checked_pairs: int
    max_increase: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_lyapunov_decrease(traj: Trajectory, design: GainDesign) -> LyapunovCheck:
    """Scan consecutive samples where the decay hypotheses hold at both ends.

    Hypotheses per sample: the error norm is inside the guaranteed region and
    the true speed is within the design bound (v_max with a constant gain,
    r * v_bar with a scheduled one).  For each admissible pair, V must not
    grow by more than LYAPUNOV_TOL * (1 + V).
    """
    radius = design.region_radius
    speed = traj.speed
    if traj.scenario.gain_mode == "scheduled":
        bound = traj.scenario.hybrid.band_speed(traj.r)
    else:
        bound = np.full(traj.t.shape, design.v_max)
    admissible = (traj.eps_norm < radius) & (speed <= bound)
    v = traj.v_lyap
    pairs = np.flatnonzero(admissible[:-1] & admissible[1:])
    inc = np.diff(v)[pairs]                      # v[i + 1] - v[i]
    bad = pairs[inc > LYAPUNOV_TOL * (1.0 + v[pairs])]
    violations = [(int(i), float(traj.t[i]), float(v[i]), float(v[i + 1]))
                  for i in bad]
    return LyapunovCheck(violations=violations, checked_pairs=int(pairs.size),
                         max_increase=inc.max() if pairs.size else 0.0)


def settling_time(traj: Trajectory, which: str = "active", *,
                  threshold: float = SETTLING_THRESHOLD) -> float | None:
    """First time after which the velocity-error norm stays below threshold.

    Returns 0.0 when the error is below threshold for the whole run and None
    when it is not below threshold at the end.
    """
    eps = traj.eps_norm_for(which)
    above = np.nonzero(eps >= threshold)[0]
    if above.size == 0:
        return 0.0
    last = int(above[-1])
    if last == len(eps) - 1:
        return None
    return float(traj.t[last + 1])


def observed_decay_rate(traj: Trajectory, which: str = "active") -> float | None:
    """Least-squares exponential rate of the error decay (informational).

    Fitted on log ||eps|| from the start of the run until the error first
    drops below the settling threshold, in closed form over the centred times
    and log-norms; None when it is not finite (times whose squares underflow).
    """
    eps = traj.eps_norm_for(which)
    below = np.nonzero(eps < SETTLING_THRESHOLD)[0]
    end = int(below[0]) + 1 if below.size else len(eps)
    window = slice(0, max(end, 3))
    vals = eps[window]
    if np.any(vals <= 0.0):
        return None
    t, y = (col - col.mean() for col in (traj.t[window], np.log(vals)))
    spread = float(t @ t)
    rate = float(-t @ y) / spread if spread > 0.0 else math.nan  # a zero slope is 0, not -0
    return rate if math.isfinite(rate) else None


def first_entry_index(traj: Trajectory, eta: float) -> int | None:
    """Index of the first sample with the active error inside the eta ball."""
    inside = np.nonzero(traj.eps_norm <= eta)[0]
    return int(inside[0]) if inside.size else None


def sandwich_violations(traj: Trajectory, eta: float) -> int:
    """Count samples violating the speed bracket after the error enters the eta ball."""
    start = first_entry_index(traj, eta)
    if start is None:
        return 0
    speed = traj.speed[start:]
    slack = 1e-12
    bad = (speed < traj.lower[start:] - slack) | (speed > traj.upper[start:] + slack)
    return int(np.count_nonzero(bad))


def illegal_jumps(traj: Trajectory) -> list[JumpEvent]:
    """The jumps outside their jump set, as events: the time-zero walk's, then the rows'.

    A jump of more than one mode, or out of a mode below r_min, is illegal.
    The thresholds of the jumps' source modes are taken in one array pass and
    compared with their norms: an up-jump needs nrm >= up, a down-jump nrm <= down.
    """
    sc = traj.scenario
    if sc.hybrid is None:
        return []
    jumps = jump_fields(traj)
    _, old_r, new_r, nrm, _ = jumps
    above = old_r >= sc.hybrid.r_min    # no jump out of a mode below r_min is legal
    up, down = sc.hybrid.thresholds(np.where(above, old_r, sc.hybrid.r_min))
    ok = above & (((new_r == old_r + 1) & (nrm >= up)) | ((new_r == old_r - 1) & (nrm <= down)))
    return list(map(JumpEvent._make, zip(*(f[~ok].tolist() for f in jumps))))


def chatter_score(traj: Trajectory) -> int:
    """Number of flow jumps landing within CHATTER_WINDOW steps of the previous one."""
    return int(np.count_nonzero(np.diff(jump_steps(traj.r)) <= CHATTER_WINDOW))


def ultimate_r_constant(traj: Trajectory) -> bool:
    """True iff the logic index is constant over the final fifth of the run."""
    tail = traj.r[int(math.ceil(0.8 * (len(traj.r) - 1))):]
    return bool(np.all(tail == tail[-1]))


def report_values(traj: Trajectory, design: GainDesign) -> dict[str, object]:
    """Every value of the report, unformatted and in report order, each
    computed once: the active observer's Lyapunov scan among them."""
    sc = traj.scenario
    values: dict[str, object] = {}
    values["scenario"] = sc.name
    values["observer_mode"] = sc.observer_mode
    values["gain_mode"] = sc.gain_mode
    if sc.hybrid is not None:
        values["jump_semantics"] = sc.hybrid.semantics
        values["v_bar"] = float(sc.hybrid.v_bar)
        values["r_min"] = sc.hybrid.r_min
        values["empty_flow_annulus"] = flow_interval(sc.hybrid, sc.hybrid.r_min + 1) is None
    values["dt"] = float(sc.dt)
    values["t_final"] = float(sc.t_final)
    values["samples"] = len(traj.t)
    values["eta"] = float(design.eta)
    values["k0_design"] = design.k0
    values["lambda1"] = design.lambda1
    values["lambda2"] = design.lambda2
    values["region_radius"] = design.region_radius
    values["max_speed"] = float(np.max(traj.speed))
    for which, est in (("reduced", traj.xhat2_reduced), ("full", traj.xhat2_full)):
        if est is None:
            continue
        values[f"{which}_settling_time"] = settling_time(traj, which)
        if which == traj.active:
            lyapunov = check_lyapunov_decrease(traj, design)
            values[f"{which}_max_lyapunov_increase"] = lyapunov.max_increase
            values[f"{which}_lyapunov_violations"] = len(lyapunov.violations)
        rate = observed_decay_rate(traj, which)
        if rate is not None:
            values[f"{which}_observed_rate"] = rate
    values["sandwich_violations"] = sandwich_violations(traj, design.eta)
    values["jump_count"] = jump_steps(traj.r).size
    values["chatter_score"] = chatter_score(traj)
    values["final_r"] = int(traj.r[-1])
    values["ultimate_r_constant"] = ultimate_r_constant(traj)
    values["lyapunov_checked_pairs"] = lyapunov.checked_pairs
    if sc.hybrid is not None:
        values["flow_empty_above_floor"] = flow_empty_above_floor(sc.hybrid)
    return values


def scenario_checks(traj: Trajectory, design: GainDesign,
                    values: dict[str, object] | None = None) -> dict[str, bool]:
    """Pass/fail gates; builtin scenario names add their specific claims.

    `values` is the report_values of traj when the caller has them already
    (report_lines does); they are computed when missing.
    """
    values = report_values(traj, design) if values is None else values
    checks: dict[str, bool] = {}
    sc = traj.scenario
    checks["sandwich_holds_after_entry"] = values["sandwich_violations"] == 0
    if sc.gain_mode == "scheduled":
        checks["jumps_legal"] = not illegal_jumps(traj)
    settles = values[f"{traj.active}_settling_time"] is not None
    if sc.name == "example1":
        checks["lyapunov_decrease"] = values[f"{traj.active}_lyapunov_violations"] == 0
        checks["velocity_within_bound"] = bool(values["max_speed"] <= design.v_max)
        # observer-comparison claims need per-observer histories; a CSV
        # reload carries only the active estimate, so omit what is absent
        if traj.xhat2_reduced is not None:
            st_red = values["reduced_settling_time"]
            checks["reduced_settles"] = st_red is not None
            if traj.xhat2_full is not None:
                st_full = values["full_settling_time"]
                checks["full_settles"] = st_full is not None
                checks["reduced_faster_than_full"] = (
                    st_red is not None and st_full is not None
                    and st_red < st_full)
    elif sc.name == "example2":
        checks["velocity_exceeds_design_bound"] = bool(values["max_speed"] > design.v_max)
        checks["observer_settles"] = settles
        checks["r_increases"] = bool(np.max(traj.r) > traj.r[0])
    elif sc.name == "example3":
        ref = sc.controller.config.x_ref
        checks["position_converges"] = bool(
            np.linalg.norm(traj.x1[-1] - ref) < 0.01)
        checks["observer_settles"] = settles
        checks["r_settles_at_floor"] = (
            values["ultimate_r_constant"] and values["final_r"] == sc.hybrid.r_min)
    else:
        checks["observer_settles"] = settles
    return checks


def report_lines(traj: Trajectory, design: GainDesign) -> list[str]:
    """Render the full diagnostic report as key: value lines.

    The report_values are computed once, for their lines and for
    scenario_checks.  The last line, "overall: pass" or "overall: fail", is
    the verdict of every check.
    """
    values = report_values(traj, design)
    checks = scenario_checks(traj, design, values)
    lines = []
    for key, value in values.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif value is None or isinstance(value, bool):
            value = str(value).lower()      # none, true, false
        lines.append(f"{key}: {value}")
    for key, ok in checks.items():
        lines.append(f"check_{key}: {'pass' if ok else 'fail'}")
    lines.append(f"overall: {'pass' if all(checks.values()) else 'fail'}")
    return lines
