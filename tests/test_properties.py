"""Property tests of the jump rule, the logic step and the scheduled gain over
random configurations, and of whole runs over random short scenarios.

Each property is written out here from the band formula alone, so that it is
independent of the library's thresholds and compares; the sabotage controls
show that a strict inequality at a threshold would be caught.
"""
from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import dataclasses
import functools
import importlib.util
import math
import random
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

from velobs import simulator
from velobs.analysis import (CHATTER_WINDOW, chatter_score, check_lyapunov_decrease,
                             illegal_jumps)
from velobs.controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                                PdConfig, PdGravity)
from velobs.dynamics import SingleLinkModel, TwoLinkArm, TwoLinkParams
from velobs.hybrid_logic import (SEMANTICS, GainSchedule, HybridConfig, JumpEvent,
                                 compute_kr, flow_empty_above_floor, flow_interval,
                                 initialize_logic, step_logic, velocity_sandwich)
from velobs.observers import compute_k0, full_rate, reduced_rate
from velobs.simulator import (OBSERVER_MODES, Scenario, SimulationBlowUp, Trajectory,
                              jump_fields, simulate)

ARM = TwoLinkArm()
PROPERTY = settings(max_examples=200)

configs = st.builds(HybridConfig, v_bar=st.floats(1e-3, 10.0), eta=st.floats(1e-3, 5.0),
                    semantics=st.sampled_from(SEMANTICS), r_min=st.integers(0, 5))


def up_thr(cfg, r) -> float:
    """The up threshold of mode r: the top of its band, r v_bar, less eta."""
    return r * cfg.v_bar - cfg.eta


def down_thr(cfg, r) -> float:
    """The down threshold of mode r above the floor: the top of the band
    below, (r - 1) v_bar, plus eta, or less eta under hysteresis."""
    return (r - 1) * cfg.v_bar + (-cfg.eta if cfg.semantics == "hysteresis" else cfg.eta)


@st.composite
def norms(draw, cfg, r):
    """An estimate norm: anywhere, or exactly on a threshold of mode r."""
    free = draw(st.floats(0.0, 600.0))
    on = draw(st.sampled_from([up_thr(cfg, r), down_thr(cfg, r), free]))
    return on if on >= 0.0 else free


@st.composite
def mode_and_norm(draw):
    cfg = draw(configs)
    r = draw(st.integers(cfg.r_min, cfg.r_min + 50))
    return cfg, r, draw(norms(cfg, r))


@st.composite
def mode_rows(draw):
    """A starting mode r_guess, an initial estimate norm and a run's rows: a
    mode column r of up to a few hundred jumps, about CHATTER_WINDOW steps
    apart, each one or two modes up or down or to any of a handful of modes
    (some below r_min), and estimate rows of one or two joints.  A jump row's
    norm is free or on a threshold of the mode it leaves; r_guess is one of
    the modes, and the initial norm is free or on a threshold of r_guess or
    of a mode next to r[0], so the walk from r_guess to r[0] is legal or not."""
    cfg = draw(configs)
    modes = draw(st.lists(st.integers(max(cfg.r_min - 2, 0), cfg.r_min + 50),
                          min_size=1, max_size=6, unique=True))
    # the rows come from one seeded generator: drawn row by row, a few
    # hundred jumps cost hypothesis seconds per property
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = rnd.choice([1, 2])

    def norm(r):
        on = rnd.choice([up_thr(cfg, r), down_thr(cfg, r), rnd.uniform(0.0, 600.0)])
        return on if on >= 0.0 else rnd.uniform(0.0, 600.0)

    def step(r):
        return max(rnd.choice([r - 2, r - 1, r + 1, r + 1, r + 2, rnd.choice(modes)]), 0)

    r_guess = rnd.choice(modes)
    r = [rnd.choice(modes)]
    nrm0 = norm(rnd.choice([r_guess, max(r[0] - 1, 0), r[0] + 1]))
    est = [[rnd.uniform(-9.0, 9.0) for _ in range(n)]]
    for _ in range(draw(st.integers(0, 300))):
        for _ in range(rnd.randint(0, 2 * CHATTER_WINDOW)):    # rows that do not jump
            r.append(r[-1])
            est.append([rnd.uniform(-9.0, 9.0) for _ in range(n)])
        new_r = step(r[-1])
        if new_r != r[-1]:
            # a norm on a threshold is the row's exactly: math.hypot(x, 0) is |x|
            est.append([norm(r[-1]), 0.0][:n] if rnd.random() < 0.5 else
                       [rnd.uniform(-9.0, 9.0) for _ in range(n)])
            r.append(new_r)
    return cfg, r_guess, nrm0, 1e-3 * np.arange(len(r)), np.array(r), np.array(est)


def in_annulus(cfg, r, nrm) -> bool:
    """The closed annulus: at most the up threshold, at least the down one above the floor."""
    return nrm <= up_thr(cfg, r) and (r == cfg.r_min or nrm >= down_thr(cfg, r))


def legal(cfg, ev) -> bool:
    """A jump of one mode, out of an admissible mode, from inside its jump set."""
    if ev.old_r < cfg.r_min:
        return False
    if ev.new_r == ev.old_r + 1:
        return ev.est_norm >= up_thr(cfg, ev.old_r)
    if ev.new_r == ev.old_r - 1:
        return ev.old_r > cfg.r_min and ev.est_norm <= down_thr(cfg, ev.old_r)
    return False


def next_mode(cfg, r, nrm) -> int:
    """The mode after one logic step: up wins, no down-jump out of the floor."""
    if nrm >= up_thr(cfg, r):
        return r + 1
    if r > cfg.r_min and nrm <= down_thr(cfg, r):
        return r - 1
    return r


def check_step(step, cfg, r, nrm) -> None:
    schedule = GainSchedule(ARM, cfg)
    state = schedule[r]
    new = step(schedule, state, nrm)
    want = next_mode(cfg, r, nrm)
    assert new.r == want
    if want == r:
        assert new is state
    down = down_thr(cfg, want) if want > cfg.r_min else -math.inf
    assert new == (want, compute_kr(ARM, cfg, want), up_thr(cfg, want), down)


def check_flow_set(interval, cfg, r, nrm) -> None:
    """The flow set of mode r, the closed interval(cfg, r) (None when it is
    empty), holds nrm exactly when the closed annulus does."""
    span = interval(cfg, r)
    assert (span is not None and span[0] <= nrm <= span[1]) == in_annulus(cfg, r, nrm)


def chatter(events) -> int:
    """Jumps at most CHATTER_WINDOW steps after the previous one, counted one by one."""
    steps = [ev.step for ev in events]
    return sum(1 for a, b in zip(steps, steps[1:]) if b - a <= CHATTER_WINDOW)


def row_events(t, r, est) -> list:
    """The flow jumps, derived row by row: one event per row whose mode is
    not the row before's, at the row's time and estimate norm."""
    return [JumpEvent(float(t[j]), int(r[j - 1]), int(r[j]), math.hypot(*est[j].tolist()), j)
            for j in range(1, len(r)) if r[j] != r[j - 1]]


def settle_walk(cfg, r_guess, nrm) -> list:
    """The time-zero walk, jump by jump as the band formula gives it: from
    r_guess, a jump while nrm is in a jump set of the mode, but never back
    toward the mode just left."""
    walk, r, last = [], r_guess, 0
    while True:
        if last != -1 and nrm >= up_thr(cfg, r):
            step = 1
        elif last != 1 and r > cfg.r_min and nrm <= down_thr(cfg, r):
            step = -1
        else:
            return walk
        walk.append(JumpEvent(0.0, r, r + step, nrm, 0))
        r, last = r + step, step


def check_audit(cfg, r_guess, nrm0, t, r, est) -> None:
    n = est.shape[1]
    traj = SimpleNamespace(t=t, r=r, xhat2=est, scenario=SimpleNamespace(
        hybrid=cfg, gain_mode="scheduled", r_guess=r_guess, xhat2_0=np.array([nrm0, 0.0][:n])))
    way = 1 if r[0] >= r_guess else -1
    walk = [JumpEvent(0.0, m, m + way, nrm0, 0) for m in range(r_guess, r[0], way)]
    flow = row_events(t, r, est)
    assert illegal_jumps(traj) == [ev for ev in walk + flow if not legal(cfg, ev)]
    assert chatter_score(traj) == chatter(flow)


@PROPERTY
@given(mode_and_norm())
def test_flow_set_is_the_closed_annulus(case):
    check_flow_set(flow_interval, *case)


@settings(max_examples=100)
@given(mode_and_norm())
def test_step_logic_is_the_jump_rule(case):
    check_step(step_logic, *case)


@st.composite
def settle_cases(draw):
    """A band of either semantics with r_min 0 to 3, a starting mode and an
    initial norm: free, or on a threshold of a mode near r_guess, or one ulp
    to either side of that threshold."""
    cfg = draw(st.builds(HybridConfig, v_bar=st.floats(0.05, 10.0), eta=st.floats(1e-3, 5.0),
                         semantics=st.sampled_from(SEMANTICS), r_min=st.integers(0, 3)))
    r_guess = draw(st.integers(cfg.r_min, cfg.r_min + 60))
    m = draw(st.integers(cfg.r_min, cfg.r_min + 120))
    on = draw(st.sampled_from([up_thr(cfg, m), down_thr(cfg, m), draw(st.floats(0.0, 50.0))]))
    nrm = draw(st.sampled_from([on, math.nextafter(on, -math.inf), math.nextafter(on, math.inf)]))
    return cfg, r_guess, max(nrm, 0.0)


@PROPERTY
@given(settle_cases())
def test_initialize_logic_settles_where_the_walk_ends(case):
    # the bisection settles where the walk of single jumps ends, and the
    # record of a run from there derives that walk
    cfg, r_guess, nrm = case
    walk = settle_walk(cfg, r_guess, nrm)
    state = initialize_logic(GainSchedule(ARM, cfg), nrm, r_guess)
    assert state.r == (walk[-1].new_r if walk else r_guess)
    est = np.array([[nrm, 0.0]])
    traj = SimpleNamespace(t=np.zeros(1), r=np.array([state.r]), xhat2=est, scenario=(
        SimpleNamespace(gain_mode="scheduled", r_guess=r_guess, xhat2_0=est[0])))
    assert list(zip(*(f.tolist() for f in jump_fields(traj)))) == walk


@PROPERTY
@given(mode_rows())
def test_illegal_jumps_flags_exactly_the_events_outside_their_jump_set(case):
    check_audit(*case)


@PROPERTY
@given(configs, st.one_of(st.integers(0, 8), st.integers(0, 10**9)))
def test_the_thresholds_are_the_band_formula(cfg, r):
    if r < cfg.r_min:
        with pytest.raises(ValueError, match="lowest admissible mode"):
            cfg.thresholds(r)
        return
    up, down = up_thr(cfg, r), down_thr(cfg, r) if r > cfg.r_min else -math.inf
    assert cfg.thresholds(r) == (up, down)
    state = GainSchedule(ARM, cfg)[r]
    assert (state.r, state.up, state.down) == (r, up, down)
    lo = max(down, 0.0)
    assert flow_interval(cfg, r) == ((lo, up) if lo <= up else None)


@PROPERTY
@given(configs, st.lists(st.one_of(st.integers(0, 8), st.integers(0, 10**9)), max_size=20))
def test_the_array_thresholds_are_the_scalar_ones_bit_for_bit(cfg, modes):
    array = np.array(modes, dtype=np.int64)
    if any(r < cfg.r_min for r in modes):
        with pytest.raises(ValueError, match="lowest admissible mode"):
            cfg.thresholds(array)
        return
    up, down = cfg.thresholds(array)
    scalar = [cfg.thresholds(r) for r in modes]
    assert all(type(x) is float for pair in scalar for x in pair)
    assert up.dtype == down.dtype == np.float64
    assert up.tobytes() + down.tobytes() == np.array(scalar).reshape(-1, 2).T.tobytes()


@PROPERTY
@given(configs, st.one_of(st.integers(1, 50), st.integers(1, 10**6)))
def test_flow_empty_above_floor_is_every_annulus_above_the_floor(cfg, above):
    empty = flow_empty_above_floor(cfg)
    if cfg.semantics == "hysteresis":
        # a mode whose up threshold r v_bar - eta is at least v_bar flows
        assert not empty
        assert flow_interval(cfg, cfg.r_min + 1 + math.ceil(cfg.eta / cfg.v_bar)) is not None
        return
    r = cfg.r_min + above
    # the annulus is [down, up], of width v_bar - 2 eta; each threshold is
    # rounded, so within a few ulps of the edge flow_interval may go either way
    if abs(cfg.v_bar - 2.0 * cfg.eta) <= 8.0 * math.ulp(r * cfg.v_bar + cfg.eta):
        event("v_bar within rounding of 2 eta")
        return
    assert (flow_interval(cfg, r) is None) == empty


@settings(max_examples=50)
@given(configs, st.integers(0, 10**6))
def test_scheduled_gain_is_the_grid_gain_at_the_band_speed(cfg, r):
    assert compute_kr(ARM, cfg, r) == compute_k0(ARM, cfg.eta, r * cfg.v_bar).k0


class StrictUp(HybridConfig):
    """A band whose up threshold is one ulp higher: an up-jump set nrm > up."""

    def thresholds(self, r):
        up, down = super().thresholds(r)
        return np.nextafter(up, math.inf), down


def test_a_strict_threshold_is_caught():
    cfg = HybridConfig(v_bar=3.0, eta=1.0)

    def open_interval(cfg, r):
        """The flow interval with each end moved one ulp inward."""
        lo, hi = flow_interval(cfg, r)
        return math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)

    for nrm in (down_thr(cfg, 2), up_thr(cfg, 2)):
        check_flow_set(flow_interval, cfg, 2, nrm)
        with pytest.raises(AssertionError):
            check_flow_set(open_interval, cfg, 2, nrm)

    # an up-jump on the threshold: of the rows, at row 100, or of the walk
    t, est = 1e-3 * np.arange(101), np.zeros((101, 2))
    est[100, 0] = up_thr(cfg, 2)
    on_threshold = [(2, 0.0, t, np.array([2] * 100 + [3]), est),
                    (2, up_thr(cfg, 2), t, np.full(101, 3), est)]
    for case in on_threshold:
        check_audit(cfg, *case)
        # the audit reads the band's thresholds, so the strict band flags the
        # jump that up_thr, the band formula, holds legal
        with pytest.raises(AssertionError):
            check_audit(StrictUp(v_bar=3.0, eta=1.0), *case)

    def strict_step(schedule, state, nrm):
        if nrm > state.up:
            return schedule[state.r + 1]
        if nrm <= state.down:
            return schedule[state.r - 1]
        return state

    check_step(step_logic, cfg, 2, up_thr(cfg, 2))
    with pytest.raises(AssertionError):
        check_step(strict_step, cfg, 2, up_thr(cfg, 2))


def axpy(a, x, y):
    return tuple([a * xi + yi for xi, yi in zip(x, y)])


def sub(x, y):
    return tuple([xi - yi for xi, yi in zip(x, y)])


def composed_rhs(model, law, mode, kd, kp, t, s, k):
    """The packed derivative, torque, fed-back estimate and kernel terms,
    composed from the per-equation functions (never the compiled RHS)."""
    n = model.n
    use_red = mode in ("reduced", "both")
    h1 = 3 * n if use_red else 2 * n
    h2 = h1 + n
    q = s[:n]
    terms = model.kernel(q)
    est = axpy(k, q, s[2 * n:3 * n]) if use_red else s[h2:h2 + n]
    tau = law.float_torque(terms, q, est, t)
    v = s[n:2 * n]
    d = v + model.accel(terms, tau, v)
    if use_red:
        d += reduced_rate(model, terms, tau, est, k)
    if mode in ("full", "both"):
        d1, d2 = full_rate(model, terms, tau, q, s[h1:h2], s[h2:h2 + n], kd, kp)
        d += d1 + d2
    return d, tau, est, terms


def zip_final(s, sixth, d1, d2, d3, d4):
    return tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(s, d1, d2, d3, d4)])


def zip_step(rhs, t, s, dt, d1, final=zip_final):
    """The RK4 step of dt from s, whose rate d1 is given, with zip-form
    stages; rhs(t, s) returns the rate first."""
    half = 0.5 * dt
    d2 = rhs(t + half, tuple([a + half * b for a, b in zip(s, d1)]))[0]
    d3 = rhs(t + half, tuple([a + half * b for a, b in zip(s, d2)]))[0]
    d4 = rhs(t + dt, tuple([a + dt * b for a, b in zip(s, d3)]))[0]
    return final(s, dt / 6.0, d1, d2, d3, d4)


def reference_run(sc: Scenario, final=zip_final):
    """The run by a plain RK4 loop: zip-form stages, each sample recorded as a
    row in place with its speed bracket, and each jump's mode and gain taken
    afresh from the thresholds and compute_kr.

    Returns the state rows, the per-sample rows (eps_norm, V, r, k_r, lower,
    upper, tau), the jump events (the time-zero walk's, then one per change of
    the recorded mode, at its row's time and estimate norm) and the blow-up
    message, None when the run held; after a blow-up the rows end with the
    sample of the step that left the limit or raised a math error.
    """
    model, n = sc.model, sc.model.n
    use_red = sc.observer_mode in ("reduced", "both")
    use_full = sc.observer_mode in ("full", "both")
    cfg, dt, eta = sc.hybrid, sc.dt, sc.eta
    design = compute_k0(model, eta, sc.design_speed())
    events = []
    scheduled = sc.gain_mode == "scheduled"
    if scheduled:
        events = settle_walk(cfg, sc.r_guess, math.hypot(*sc.xhat2_0.tolist()))
        r = events[-1].new_r if events else sc.r_guess
        k = compute_kr(model, cfg, r)
        kd = design.k0
    else:
        r = 0
        k = kd = sc.k0_override if sc.k0_override is not None else design.k0
    kp = kd * kd

    n2, n3 = 2 * n, 3 * n
    s = sc.q0.tolist() + sc.v0.tolist()
    if use_red:
        s += (sc.xhat2_0 - k * sc.q0).tolist()
    if use_full:
        s += sc.q0.tolist() + sc.xhat2_0.tolist()
    s = tuple(s)

    def rhs(t, s):
        return composed_rhs(model, sc.controller, sc.observer_mode, kd, kp, t, s, k)

    states, extra, norms = [], [], []
    failure = None
    n_samples = sc.sample_count()
    for i in range(n_samples):
        t = i * dt
        d1, tau, est, terms = rhs(t, s)
        eps = sub(s[n:n2], est)
        nrm = math.hypot(*est)
        states.append(s)
        norms.append(nrm)
        extra.append((math.hypot(*eps), model.energy(terms, eps), r, k,
                      max(0.0, nrm - eta), nrm + eta, *tau))
        if i == n_samples - 1:
            break
        try:
            s = zip_step(rhs, t, s, dt, d1, final)
        except (ValueError, ArithmeticError):     # cos of an overflowed angle
            s = None
        # a NaN fails both compares
        if s is None or not all(-1e6 <= x <= 1e6 for x in s):
            failure = f"state component left |x| <= 1e+06 at t = {t + dt:.6g}"
            break
        if scheduled:
            y = s[:n]
            est_new = axpy(k, y, s[n2:n3])
            r_new = next_mode(cfg, r, math.hypot(*est_new))
            if r_new != r:
                k = compute_kr(model, cfg, r_new)
                s = s[:n2] + axpy(-k, y, est_new) + s[n3:]
                r = r_new
    # the flow jumps, read off the rows: one per change of the recorded mode
    modes = [row[2] for row in extra]
    events += [JumpEvent(j * dt, modes[j - 1], modes[j], norms[j], j)
               for j in range(1, len(modes)) if modes[j] != modes[j - 1]]
    return np.array(states), np.array(extra), events, failure


LAWS = ("open_loop_1", "open_loop_2", "constant", "pd")


@st.composite
def laws(draw, n, names=LAWS):
    """One of the named laws for n joints, with its torque or gains drawn."""
    def vec(lo, hi):
        return np.array([draw(st.floats(lo, hi)) for _ in range(n)])

    return {"open_loop_1": OpenLoopBounded, "open_loop_2": OpenLoopUnbounded,
            "constant": lambda: ConstantTorque(vec(-10.0, 10.0)),
            "pd": lambda: PdGravity(PdConfig(kp=vec(1.0, 40.0), kd=vec(1.0, 30.0),
                                             x_ref=vec(-1.0, 1.0)))}[draw(st.sampled_from(names))]()


@st.composite
def short_scenarios(draw):
    """A random run of at most 0.2 s: one or two joints, any observer mode,
    constant or scheduled gain under either semantics."""
    def vec(lo, hi):
        return np.array([draw(st.floats(lo, hi)) for _ in range(n)])

    if draw(st.booleans()):
        model = TwoLinkArm(TwoLinkParams(
            m1=draw(st.floats(5.0, 20.0)), m2=draw(st.floats(5.0, 25.0)),
            l1=draw(st.floats(0.8, 1.6)), l2=draw(st.floats(0.8, 1.6)),
            f1=draw(st.floats(0.0, 1.0)), f2=draw(st.floats(0.0, 1.0))))
        n = 2
        controller = draw(laws(n))
    else:
        model = SingleLinkModel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 2.0)))
        n = 1
        controller = draw(laws(n, ("constant", "pd")))
    v0 = vec(-3.0, 3.0)
    mode = draw(st.sampled_from(OBSERVER_MODES))
    dt = draw(st.sampled_from([1e-3, 2e-3]))
    base = dict(name="prop", model=model, q0=vec(-math.pi, math.pi), v0=v0,
                xhat2_0=v0 + vec(-1.0, 1.0), controller=controller, observer_mode=mode,
                dt=dt, t_final=draw(st.floats(dt, 0.2)))
    if mode == "full" or draw(st.booleans()):
        return Scenario(gain_mode="constant", eta=draw(st.floats(0.2, 2.0)),
                        v_max=draw(st.floats(0.5, 5.0)), **base)
    hybrid = HybridConfig(v_bar=draw(st.floats(0.2, 3.0)), eta=draw(st.floats(0.2, 2.0)),
                          semantics=draw(st.sampled_from(SEMANTICS)),
                          r_min=draw(st.integers(0, 2)))
    return Scenario(gain_mode="scheduled", eta=hybrid.eta, hybrid=hybrid,
                    r_guess=draw(st.integers(hybrid.r_min, hybrid.r_min + 4)), **base)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and (np.ascontiguousarray(got).tobytes()
                                        == np.ascontiguousarray(want).tobytes())


def check_run(sc: Scenario, want) -> None:
    """simulate(sc) equals want, a reference_run of sc, bit for bit, and its
    jumps are legal; or both blow up with the same message."""
    states, extra, events, failure = want
    if failure is not None:
        with pytest.raises(SimulationBlowUp, match=re.escape(failure)):
            simulate(sc)
        return
    traj = simulate(sc)
    n = sc.model.n
    pairs = [(traj.x1, states[:, :n]), (traj.x2, states[:, n:2 * n]),
             (traj.eps_norm, extra[:, 0]), (traj.v_lyap, extra[:, 1]),
             (traj.r, extra[:, 2]), (traj.k_gain, extra[:, 3]),
             (traj.lower, extra[:, 4]), (traj.upper, extra[:, 5]), (traj.tau, extra[:, 6:])]
    if traj.z is not None:
        z = states[:, 2 * n:3 * n]
        pairs += [(traj.z, z), (traj.xhat2_reduced, z + extra[:, 3:4] * states[:, :n])]
    if traj.xhat2_full is not None:
        pairs.append((traj.xhat2_full, states[:, -n:]))
    assert all(same_bits(got, want) for got, want in pairs)
    assert traj.jump_events == events
    assert illegal_jumps(traj) == []


def edge_blocks(want) -> set[int]:
    """Row-block sizes that put a block edge at an event of the reference run
    want: the step that blew up last in its block; the first flow jump's
    step first in its block, and last."""
    states, _, events, failure = want
    if failure is not None:
        return {len(states)}
    steps = [ev.step for ev in events if ev.step > 1]
    return {steps[0] - 1, steps[0]} if steps else set()


def check_blocks(sc: Scenario, block_rows: int, final=zip_final) -> set[int]:
    """check_run of sc against reference_run(sc, final) with block_rows rows
    per block and with each of its edge_blocks; returns the edge blocks."""
    want = reference_run(sc, final)
    edges = edge_blocks(want)
    for rows in {block_rows, *edges}:
        with mock.patch.object(simulator, "CSV_BLOCK_ROWS", rows):
            check_run(sc, want)
    return edges


@settings(max_examples=80)
@given(short_scenarios(), st.integers(1, 64), st.sampled_from([False, False, True]))
def test_a_run_is_the_reference_rk4_loop(sc, block_rows, blow_up):
    if blow_up:
        # a torque that drives the arm past the blow-up limit within the run
        sc = dataclasses.replace(sc, controller=ConstantTorque([1e7] * sc.model.n),
                                 t_final=0.2)
    # small row blocks put block edges inside the run, and a partial last block
    check_blocks(sc, block_rows)


@settings(max_examples=60)
@given(short_scenarios().filter(lambda sc: sc.observer_mode == "reduced"), st.data())
def test_a_block_restarts_from_any_recorded_row(sc, data):
    # a row's packed state and the logic state of its mode are all a block
    # needs: from row i, run gives rows i and i + 1 and the jump between them
    traj = simulate(sc)
    i = data.draw(st.integers(0, len(traj.t) - 2))
    model, law = sc.model, sc.controller
    schedule = GainSchedule(model, sc.hybrid) if sc.gain_mode == "scheduled" else None
    _, run = simulator.flat_rhs(type(model), type(law), "reduced")(
        *model._constants, *law._constants, traj.design.k0, traj.design.k0 ** 2, sc.dt,
        schedule, step_logic)
    rows = slice(i, i + 2)
    s = tuple(np.concatenate([traj.x1[i], traj.x2[i], traj.z[i]]).tolist())
    logic = None if schedule is None else schedule[int(traj.r[i])]
    flat, _, handed = run(i, i + 2, s, i + 1, logic)
    # two samples, two rows of the record: each as simulate stored it, but
    # for the bound columns, which hold the estimate norm
    got = Trajectory(np.array(flat).reshape(2, -1), sc, traj.design)
    assert got.table.shape == (2, traj.table.shape[1])
    lower, upper = velocity_sandwich(sc.eta, got.lower)
    pairs = [(getattr(got, f), getattr(traj, f)[rows]) for f in (
        "t", "x1", "x2", "z", "xhat2", "eps_norm", "v_lyap", "r", "k_gain", "tau")]
    pairs += [(got.upper, got.lower), (got.lower, [math.hypot(*e) for e in got.xhat2.tolist()]),
              (lower, traj.lower[rows]), (upper, traj.upper[rows])]
    assert all(same_bits(got, want) for got, want in pairs)
    # the block hands on row i + 1's logic state, and the run's jump between
    # the rows, if any, is their change of mode at row i + 1's estimate norm
    assert handed is (None if schedule is None else schedule[int(traj.r[i + 1])])
    r0, r1 = got.r.tolist()
    jumped = [(traj.t[i + 1], r0, r1, math.hypot(*got.xhat2[1]), i + 1)] * (r1 != r0)
    assert [ev for ev in traj.jump_events if ev.step == i + 1] == jumped


@settings(max_examples=60)
@given(short_scenarios())
def test_the_speed_bracket_holds_wherever_the_error_is_inside_eta(sc):
    traj = simulate(sc)
    inside = traj.eps_norm <= sc.eta
    speed = np.linalg.norm(traj.x2, axis=1)[inside]
    assert np.all(traj.lower[inside] <= speed + 1e-12)
    assert np.all(speed <= traj.upper[inside] + 1e-12)


@settings(max_examples=40)
@given(short_scenarios().filter(lambda sc: sc.model.n == 2))
def test_a_two_joint_run_reads_back_from_its_csv_bit_for_bit(sc):
    traj = simulate(sc)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "run.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path, sc)
    # the file's record is the CSV's columns of the simulated one
    assert same_bits(back.table, traj.table[:, :15])
    for column in ("t", "x1", "x2", "xhat2", "eps_norm", "v_lyap", "r", "k_gain", "tau",
                   "lower", "upper"):
        got, want = getattr(back, column), getattr(traj, column)
        assert got.dtype == want.dtype and same_bits(got, want), column
    # the flow jumps, each read from its mode change between two rows: the
    # row's time and estimate norm, bit for bit
    flow = [ev for ev in traj.jump_events if ev.step > 0]
    assert [ev for ev in back.jump_events if ev.step > 0] == [
        (traj.t[ev.step], ev.old_r, ev.new_r, math.hypot(*traj.xhat2[ev.step]), ev.step)
        for ev in flow]
    # run --report and check audit the same jumps: simulate's own events,
    # the time-zero walk's among them
    assert back.jump_events == traj.jump_events


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def bench_checks():
    """perfbench/checks.py, the benchmark's correctness gate, loaded with
    perfbench/ on sys.path for the sibling reference.py that it imports."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
        spec.loader.exec_module(module)
    return module


def bench_spec(sc: Scenario) -> dict:
    """The benchmark's spec dict of a scheduled scenario: the keys that
    check_jumps reads, and for a two-link arm the `arm` that check_columns reads."""
    hyb = sc.hybrid
    spec = {"observer": {"eta": sc.eta},
            "hybrid": {"v_bar": hyb.v_bar, "r_min": hyb.r_min, "r_guess": sc.r_guess,
                       "semantics": "paper" if hyb.semantics == "paper_faithful" else "hysteresis"}}
    if sc.model.n == 2:
        p = sc.model.params
        spec["arm"] = {"m1": p.m1, "m2": p.m2, "l1": p.l1, "l2": p.l2, "f1": p.f1, "f2": p.f2,
                       "gravity": p.gravity_accel}
    return spec


@pytest.mark.parametrize("semantics", SEMANTICS)
@settings(max_examples=30)
@given(sc=short_scenarios().filter(lambda sc: sc.gain_mode == "scheduled"))
def test_a_scheduled_run_passes_the_benchmark_checks(semantics, sc):
    # the record that simulate keeps passes the checks that make the
    # benchmark report `correct`: jumps, speed bracket and error columns
    sc = dataclasses.replace(sc, hybrid=dataclasses.replace(sc.hybrid, semantics=semantics))
    traj = simulate(sc)
    checks, spec, est = bench_checks(), bench_spec(sc), traj.xhat2
    errors = checks.check_jumps(spec, est, traj.r, traj.jump_events)
    errors += checks.check_sandwich(sc.eta, traj.x2, est, traj.lower, traj.upper)
    if sc.model.n == 2:
        errors += checks.check_columns(spec, traj.x1, traj.x2, est, traj.eps_norm, traj.v_lyap)
    assert errors == []


def test_a_reordered_final_stage_is_caught():
    hybrid = HybridConfig(v_bar=0.5, eta=1.0, r_min=1)
    sc = Scenario(name="prop", model=ARM, q0=np.array([0.3, -0.8]),
                  v0=np.array([2.0, 0.5]), xhat2_0=np.array([1.5, 0.1]),
                  controller=OpenLoopUnbounded(), observer_mode="both",
                  gain_mode="scheduled", eta=1.0, hybrid=hybrid, r_guess=2,
                  dt=1e-3, t_final=0.1)
    # the run jumps, so its edge blocks put a jump on a block's first step
    assert len(check_blocks(sc, 1024)) == 2
    # and this one blows up on a block's last step
    assert check_blocks(dataclasses.replace(sc, controller=ConstantTorque([1e7, 1e7])),
                        1024) == {16}

    def reordered(s, sixth, d1, d2, d3, d4):
        return tuple([a + sixth * (b1 + b4 + 2.0 * (b2 + b3))
                      for a, b1, b2, b3, b4 in zip(s, d1, d2, d3, d4)])

    with pytest.raises(AssertionError):
        check_blocks(sc, 1024, reordered)


def compiled_matches_composition(model_cls, model, law, mode, i, s, k, kd, kp, r, k_new, dt):
    """flat_rhs of this shape, bound to these numbers, equals the composition
    of the per-equation functions bit for bit: one run step from sample i
    (stop = i + 1) with its sample row, at the gain k and mode r of a logic
    state that does not jump, the last sample's row alone, and with no logic
    state, the last row at kd and mode 0; and when the logic jumps, the
    estimate norm handed to step_logic, the re-based z, and the next block's
    row at the new gain and mode."""
    def bind(step_logic):
        return simulator.flat_rhs(model_cls, type(law), mode)(
            *model._constants, *law._constants, kd, kp, dt, "schedule", step_logic)

    def rhs(t, s, k=k):
        return composed_rhs(model, law, mode, kd, kp, t, s, k)

    def row_at(k, r):
        """The sample's row at gain k and mode r: t, q, v, the fed estimate,
        eps_norm, V, r, k_r, tau, the estimate norm in both bound columns,
        then the packed state past q and v."""
        _, tau, est, terms = rhs(t, s, k)
        eps = sub(v, est)
        nrm = math.hypot(*est)
        return (t, *q, *v, *est, math.hypot(*eps), model.energy(terms, eps), r, k, *tau,
                nrm, nrm, *s[2 * n:])

    pack, run = bind(lambda schedule, logic, nrm: logic)
    t = i * dt
    d1, _, est, _ = rhs(t, s)
    n = model.n
    q, v = s[:n], s[n:2 * n]
    row = row_at(k, r)
    # the initial state: z from the estimate as simulate packed it before
    z0 = tuple((np.array(est) - k * np.array(q)).tolist())
    packed = q + v + z0 * (mode != "full") + (q + est) * (mode != "reduced")
    s1 = zip_step(rhs, t, s, dt, d1)
    # a step that leaves the blow-up limit ends the block with no next state
    blown = not all(-simulator.BLOWUP_LIMIT <= x <= simulator.BLOWUP_LIMIT for x in s1)
    logic = SimpleNamespace(r=r, k_r=k)
    # each block is one sample: one row
    rows, got_s1, *ends = run(i, i + 1, s, i + 1, logic)
    last_rows, same, *last_ends = run(i, i + 1, s, i, logic)
    kd_rows, _, none = run(i, i + 1, s, i, None)
    got = [pack(q, v, est, k), rows, last_rows, same, kd_rows]
    want = [packed, row, row, s, row_at(kd, 0)]
    exact = ends == last_ends == [logic] and none is None
    if blown:
        exact = exact and got_s1 is None
    else:
        got.append(got_s1)
        want.append(s1)
    if mode != "full" and not blown:    # a blow-up ends the block before the logic step
        # a logic step that jumps to a mode with gain k_new
        seen = []
        stepped = SimpleNamespace(r=r + 1, k_r=k_new)

        def jump(schedule, logic, nrm):
            seen.append((schedule, logic, nrm))
            return stepped

        *_, s2, logic2 = bind(jump)[1](i, i + 1, s, i + 1, logic)
        # the next block starts at the new gain and mode
        next_rows, *_ = run(i + 1, i + 2, s2, i + 1, logic2)
        next_row = dict(zip(simulator.record_columns(mode, n), next_rows))
        q1 = s1[:n]
        est1 = axpy(k, q1, s1[2 * n:3 * n])
        nrm1 = math.hypot(*est1)
        got.append(s2)
        want.append(s1[:2 * n] + axpy(-k_new, q1, est1) + s1[3 * n:])
        exact = exact and seen == [("schedule", logic, nrm1)] and logic2 is stepped and (
            (next_row["r"], next_row["k_r"]) == (r + 1, k_new))
    return exact and all(same_bits(g, w) for g, w in zip(got, want))


@st.composite
def shapes(draw):
    """A model, a law that fits it, an observer mode and a packed state."""
    if draw(st.booleans()):
        model = TwoLinkArm(TwoLinkParams(
            m1=draw(st.floats(0.5, 30.0)), m2=draw(st.floats(0.5, 30.0)),
            l1=draw(st.floats(0.3, 2.0)), l2=draw(st.floats(0.3, 2.0)),
            f1=draw(st.floats(0.0, 1.0)), f2=draw(st.floats(0.0, 1.0))))
        law = draw(laws(2))
    else:
        model = SingleLinkModel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 2.0)))
        law = draw(laws(1, ("constant", "pd")))
    mode = draw(st.sampled_from(OBSERVER_MODES))
    width = {"reduced": 3, "full": 4, "both": 5}[mode] * model.n
    return model, law, mode, tuple(draw(st.floats(-5.0, 5.0)) for _ in range(width))


@settings(max_examples=150)
@given(shapes(), st.integers(0, 50_000), st.floats(0.01, 100.0), st.floats(0.01, 100.0),
       st.floats(0.01, 100.0), st.integers(0, 50), st.floats(0.01, 100.0),
       st.floats(1e-4, 1e-2))
def test_the_compiled_rhs_is_the_composition(shape, i, k, kd, kp, r, k_new, dt):
    # every packed width: one or two joints, with one to three observer blocks
    model, law, mode, s = shape
    assert compiled_matches_composition(type(model), model, law, mode, i, s, k, kd, kp, r,
                                        k_new, dt)


class OneUlpArm(TwoLinkArm):
    """The two-link arm with one kernel constant moved by one ulp."""

    KERNEL = TwoLinkArm.KERNEL.replace("alpha + 2.0 *", f"alpha + {math.nextafter(2.0, 3.0)!r} *")


def test_a_one_ulp_template_change_is_caught():
    assert OneUlpArm.KERNEL != TwoLinkArm.KERNEL
    s = (0.3, -0.8, 1.2, -0.4, 0.1, 0.2, 0.3, -0.7, 0.9, 0.5)
    args = (ARM, OpenLoopUnbounded(), "both", 700, s, 5.0, 10.0, 100.0, 2, 7.5, 1e-3)
    assert compiled_matches_composition(TwoLinkArm, *args)
    assert not compiled_matches_composition(OneUlpArm, *args)


@st.composite
def decay_scenarios(draw, near_v_max=None):
    """A 3 s run of a random two-link arm (masses 1-20 kg, lengths 0.3-2 m,
    friction 0-1) under one of the four laws, with eta in 0.3-2 and its
    designed gain: constant, or scheduled under either semantics.  A draw near
    v_max designs a constant gain for 3-8 rad/s and starts with joint speeds
    within 3 rad/s and an error of norm at most 0.1, so that many pairs pass
    the scan's speed bound; otherwise the start is slow and the error up to 1."""
    def vec(lo, hi):
        return np.array([draw(st.floats(lo, hi)) for _ in range(2)])

    model = TwoLinkArm(TwoLinkParams(
        m1=draw(st.floats(1.0, 20.0)), m2=draw(st.floats(1.0, 20.0)),
        l1=draw(st.floats(0.3, 2.0)), l2=draw(st.floats(0.3, 2.0)),
        f1=draw(st.floats(0.0, 1.0)), f2=draw(st.floats(0.0, 1.0))))
    controller = draw(laws(2))
    eta = draw(st.floats(0.3, 2.0))
    near = draw(st.booleans()) if near_v_max is None else near_v_max
    v0 = vec(-3.0, 3.0) if near else vec(-1.0, 1.0)
    phi, size = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 0.1 if near else 1.0))
    base = dict(name="decay", model=model, q0=vec(-math.pi, math.pi), v0=v0,
                xhat2_0=v0 + size * np.array([math.cos(phi), math.sin(phi)]),
                controller=controller, eta=eta, dt=draw(st.sampled_from([1e-3, 2e-3, 5e-3])),
                t_final=3.0)
    if near or draw(st.booleans()):
        v_max = draw(st.floats(3.0, 8.0) if near else st.floats(0.5, 5.0))
        return Scenario(gain_mode="constant", v_max=v_max, **base)
    hybrid = HybridConfig(v_bar=draw(st.floats(0.5, 3.0)), eta=eta,
                          semantics=draw(st.sampled_from(SEMANTICS)),
                          r_min=draw(st.integers(0, 2)))
    return Scenario(gain_mode="scheduled", hybrid=hybrid,
                    r_guess=draw(st.integers(hybrid.r_min, hybrid.r_min + 3)), **base)


def lyapunov_scan(sc: Scenario):
    traj = simulate(sc)
    return check_lyapunov_decrease(traj, traj.design)


# The least number of pairs the decay property's draws must check between
# them: 40 draws checked 40,000-77,000 in probes, so the scan is not vacuous.
DECAY_PAIRS_FLOOR = 10_000


def test_the_designed_gain_decays_v_over_random_arms():
    # the paper's claim: with the designed gain, V does not grow between two
    # samples where the error is inside the region and the speed within the
    # design bound
    checked = []

    @settings(max_examples=40)
    @given(decay_scenarios())
    def decays(sc):
        scan = lyapunov_scan(sc)
        assert scan.violations == []
        checked.append(scan.checked_pairs)

    decays()
    assert sum(checked) >= DECAY_PAIRS_FLOOR


def test_an_undersized_gain_breaks_the_decay_near_v_max():
    # the control: the same scan finds violations in a draw near v_max once
    # the gain is 0.2 (about three draws in ten); the first such draw is kept
    found = find(decay_scenarios(near_v_max=True),
                 lambda sc: lyapunov_scan(dataclasses.replace(sc, k0_override=0.2)).violations,
                 settings=settings(max_examples=30, derandomize=True,
                                   phases=[Phase.generate]))
    assert lyapunov_scan(found).violations == []
