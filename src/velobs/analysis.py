"""Post-hoc stability diagnostics for simulated trajectories."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hybrid_logic import flow_interval, jump_down_set, jump_up_set
from .observers import GainDesign
from .simulator import Trajectory

# Velocity-error settling threshold, rad/s.
SETTLING_THRESHOLD = 0.01

# Two jumps at most this many integrator steps apart count as chatter.
CHATTER_WINDOW = 10

# A sample pair breaks the Lyapunov decrease when V grows by more than
# LYAPUNOV_TOL * (1 + V).
LYAPUNOV_TOL = 1e-8


@dataclass
class LyapunovCheck:
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
    speed = np.linalg.norm(traj.x2, axis=1)
    if traj.scenario is not None and traj.scenario.gain_mode == "scheduled":
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
    eps = traj.eps_norm if which == "active" else traj.eps_norm_for(which)
    above = np.nonzero(eps >= threshold)[0]
    if above.size == 0:
        return 0.0
    last = int(above[-1])
    if last == len(eps) - 1:
        return None
    return float(traj.t[last + 1])


def observed_decay_rate(traj: Trajectory, which: str = "active", *,
                        threshold: float = SETTLING_THRESHOLD) -> float | None:
    """Least-squares exponential rate of the error decay (informational).

    Fitted on log ||eps|| from the start of the run until the error first
    drops below the settling threshold.
    """
    eps = traj.eps_norm if which == "active" else traj.eps_norm_for(which)
    below = np.nonzero(eps < threshold)[0]
    end = int(below[0]) + 1 if below.size else len(eps)
    window = slice(0, max(end, 3))
    vals = eps[window]
    if np.any(vals <= 0.0):
        return None
    slope = np.polyfit(traj.t[window], np.log(vals), 1)[0]
    return -float(slope)


def first_entry_index(traj: Trajectory, eta: float) -> int | None:
    """Index of the first sample with the active error inside the eta ball."""
    inside = np.nonzero(traj.eps_norm <= eta)[0]
    return int(inside[0]) if inside.size else None


def sandwich_violations(traj: Trajectory, eta: float) -> int:
    """Count samples violating the speed bracket after the error enters the eta ball."""
    start = first_entry_index(traj, eta)
    if start is None:
        return 0
    speed = np.linalg.norm(traj.x2[start:], axis=1)
    slack = 1e-12
    bad = (speed < traj.lower[start:] - slack) | (speed > traj.upper[start:] + slack)
    return int(np.count_nonzero(bad))


def illegal_jumps(traj: Trajectory) -> list:
    """Jump events whose recorded estimate norm is outside the matching jump set.

    A jump of more than one mode, or out of a mode below r_min, is illegal.
    """
    sc = traj.scenario
    if sc is None or sc.hybrid is None:
        return []
    jump_sets = {1: jump_up_set, -1: jump_down_set}
    bad = []
    for ev in traj.jump_events:
        in_set = jump_sets.get(ev.new_r - ev.old_r)
        try:
            ok = in_set is not None and in_set(sc.hybrid, ev.old_r, ev.est_norm)
        except ValueError:      # a mode below r_min has no jump sets
            ok = False
        if not ok:
            bad.append(ev)
    return bad


def chatter_score(traj: Trajectory) -> int:
    """Number of jumps landing within CHATTER_WINDOW steps of the previous jump."""
    steps = [ev.step for ev in traj.jump_events]
    return sum(1 for a, b in zip(steps, steps[1:]) if b - a <= CHATTER_WINDOW)


def ultimate_r_constant(traj: Trajectory, *, fraction: float = 0.2) -> bool:
    """True iff the logic index is constant over the final fraction of the run."""
    tail = traj.r[int(math.ceil((1.0 - fraction) * (len(traj.r) - 1))):]
    return bool(np.all(tail == tail[-1]))


def scenario_checks(traj: Trajectory, design: GainDesign,
                    lyapunov: LyapunovCheck | None = None) -> dict[str, bool]:
    """Pass/fail gates; builtin scenario names add their specific claims.

    `lyapunov` as in report_lines.
    """
    checks: dict[str, bool] = {}
    sc = traj.scenario
    name = sc.name if sc is not None else ""
    eta = design.eta
    checks["sandwich_holds_after_entry"] = sandwich_violations(traj, eta) == 0
    if sc is not None and sc.gain_mode == "scheduled":
        checks["jumps_legal"] = not illegal_jumps(traj)
    speed = np.linalg.norm(traj.x2, axis=1)
    st_active = settling_time(traj)
    if name == "example1":
        chk = check_lyapunov_decrease(traj, design) if lyapunov is None else lyapunov
        checks["lyapunov_decrease"] = chk.ok
        checks["velocity_within_bound"] = bool(np.max(speed) <= design.v_max)
        # observer-comparison claims need per-observer histories; a CSV
        # reload carries only the active estimate, so omit what is absent
        if traj.xhat2_reduced is not None:
            st_red = settling_time(traj, "reduced")
            checks["reduced_settles"] = st_red is not None
            if traj.xhat2_full is not None:
                st_full = settling_time(traj, "full")
                checks["full_settles"] = st_full is not None
                checks["reduced_faster_than_full"] = (
                    st_red is not None and st_full is not None
                    and st_red < st_full)
    elif name == "example2":
        checks["velocity_exceeds_design_bound"] = bool(np.max(speed) > 1.5)
        checks["observer_settles"] = st_active is not None
        checks["r_increases"] = bool(np.max(traj.r) > traj.r[0])
    elif name == "example3":
        ref = sc.controller.config.x_ref
        checks["position_converges"] = bool(
            np.linalg.norm(traj.x1[-1] - ref) < 0.01)
        checks["observer_settles"] = st_active is not None
        checks["r_settles_at_floor"] = (
            ultimate_r_constant(traj) and int(traj.r[-1]) == sc.hybrid.r_min)
    else:
        checks["observer_settles"] = st_active is not None
    return checks


def report_lines(traj: Trajectory, design: GainDesign,
                 checks: dict[str, bool] | None = None,
                 lyapunov: LyapunovCheck | None = None) -> list[str]:
    """Render the full diagnostic report as key: value lines.

    `checks` is scenario_checks(traj, design) and `lyapunov` the active
    observer's check_lyapunov_decrease, when the caller has them already
    (see diagnose); each is computed when missing.
    """
    if lyapunov is None:
        lyapunov = check_lyapunov_decrease(traj, design)
    if checks is None:
        checks = scenario_checks(traj, design, lyapunov)
    sc = traj.scenario
    lines = []
    if sc is not None:
        lines.append(f"scenario: {sc.name}")
        lines.append(f"observer_mode: {sc.observer_mode}")
        lines.append(f"gain_mode: {sc.gain_mode}")
        if sc.hybrid is not None:
            lines.append(f"jump_semantics: {sc.hybrid.semantics}")
            lines.append(f"v_bar: {sc.hybrid.v_bar:g}")
            lines.append(f"r_min: {sc.hybrid.r_min}")
            empty = flow_interval(sc.hybrid, sc.hybrid.r_min + 1) is None
            lines.append(f"empty_flow_annulus: {str(empty).lower()}")
        lines.append(f"dt: {sc.dt:g}")
        lines.append(f"t_final: {sc.t_final:g}")
    lines.append(f"samples: {len(traj.t)}")
    lines.append(f"eta: {design.eta:g}")
    lines.append(f"k0_design: {design.k0:.6g}")
    lines.append(f"lambda1: {design.lambda1:.6g}")
    lines.append(f"lambda2: {design.lambda2:.6g}")
    lines.append(f"region_radius: {design.region_radius:.6g}")
    lines.append(f"max_speed: {float(np.max(np.linalg.norm(traj.x2, axis=1))):.6g}")
    for which, est in (("reduced", traj.xhat2_reduced), ("full", traj.xhat2_full)):
        if est is None:
            continue
        p = f"{which}_"
        st = settling_time(traj, which)
        lines.append(f"{p}settling_time: {'none' if st is None else f'{st:.6g}'}")
        if which == traj.active:
            lines.append(f"{p}max_lyapunov_increase: {lyapunov.max_increase:.6g}")
            lines.append(f"{p}lyapunov_violations: {len(lyapunov.violations)}")
        rate = observed_decay_rate(traj, which)
        if rate is not None:
            lines.append(f"{p}observed_rate: {rate:.6g}")
    lines.append(f"sandwich_violations: {sandwich_violations(traj, design.eta)}")
    lines.append(f"jump_count: {len(traj.jump_events)}")
    lines.append(f"chatter_score: {chatter_score(traj)}")
    lines.append(f"final_r: {int(traj.r[-1])}")
    lines.append(f"ultimate_r_constant: {str(ultimate_r_constant(traj)).lower()}")
    for key, ok in checks.items():
        lines.append(f"check_{key}: {'pass' if ok else 'fail'}")
    lines.append(f"overall: {'pass' if all(checks.values()) else 'fail'}")
    return lines


def diagnose(traj: Trajectory, design: GainDesign) -> tuple[list[str], bool]:
    """The report lines and whether every check passed, from one Lyapunov scan."""
    lyapunov = check_lyapunov_decrease(traj, design)
    checks = scenario_checks(traj, design, lyapunov)
    return report_lines(traj, design, checks, lyapunov), all(checks.values())
