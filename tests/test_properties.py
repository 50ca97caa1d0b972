"""Property tests of the jump rule, the logic step and the scheduled gain over
random configurations, and of whole runs over random short scenarios.

Each property is written out here from the thresholds alone, so that it is
independent of the library's jump-set functions; the sabotage controls show
that a strict inequality at a threshold would be caught.
"""
from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velobs import analysis, simulator
from velobs.analysis import illegal_jumps
from velobs.controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                                PdConfig, PdGravity)
from velobs.dynamics import SingleLinkModel, TwoLinkArm, TwoLinkParams
from velobs.hybrid_logic import (SEMANTICS, GainSchedule, HybridConfig, JumpEvent,
                                 compute_kr, enter_mode, flow_interval, flow_set,
                                 initialize_logic, jump_down_set, jump_up_set, step_logic)
from velobs.observers import compute_k0, full_rate, reduced_rate
from velobs.simulator import OBSERVER_MODES, Scenario, SimulationBlowUp, simulate

ARM = TwoLinkArm()
PROPERTY = settings(database=None, deadline=None, max_examples=200)

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
def jump_events(draw):
    cfg = draw(configs)
    events = []
    for step in range(draw(st.integers(1, 8))):
        old_r = draw(st.integers(max(cfg.r_min - 2, 0), cfg.r_min + 50))
        new_r = max(old_r + draw(st.sampled_from([-2, -1, 0, 1, 1, 2])), 0)
        events.append(JumpEvent(0.001 * step, old_r, new_r, draw(norms(cfg, old_r)), step))
    return cfg, events


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
    state = enter_mode(schedule, r)
    new = step(schedule, state, nrm)
    want = next_mode(cfg, r, nrm)
    assert new.r == want
    if want == r:
        assert new is state
    down = down_thr(cfg, want) if want > cfg.r_min else -math.inf
    assert new == (want, compute_kr(ARM, cfg, want), up_thr(cfg, want), down)


def check_flow_set(flow, cfg, r, nrm) -> None:
    assert flow(cfg, r, nrm) == in_annulus(cfg, r, nrm)


def check_audit(cfg, events) -> None:
    traj = SimpleNamespace(scenario=SimpleNamespace(hybrid=cfg), jump_events=events)
    assert illegal_jumps(traj) == [ev for ev in events if not legal(cfg, ev)]


@PROPERTY
@given(mode_and_norm())
def test_flow_set_is_the_closed_annulus(case):
    check_flow_set(flow_set, *case)


@settings(database=None, deadline=None, max_examples=100)
@given(mode_and_norm())
def test_step_logic_is_the_jump_rule(case):
    check_step(step_logic, *case)


@PROPERTY
@given(jump_events())
def test_illegal_jumps_flags_exactly_the_events_outside_their_jump_set(case):
    check_audit(*case)


@PROPERTY
@given(configs, st.one_of(st.integers(0, 8), st.integers(0, 10**9)), st.floats(0.0, 600.0))
def test_the_thresholds_are_the_band_formula(cfg, r, free):
    if r < cfg.r_min:
        with pytest.raises(ValueError, match="lowest admissible mode"):
            cfg.thresholds(r)
        return
    up, down = up_thr(cfg, r), down_thr(cfg, r) if r > cfg.r_min else -math.inf
    assert cfg.thresholds(r) == (up, down)
    state = enter_mode(GainSchedule(ARM, cfg), r)
    assert (state.r, state.up, state.down) == (r, up, down)
    for nrm in (up, down, free):
        assert jump_up_set(cfg, r, nrm) is (nrm >= up)
        assert jump_down_set(cfg, r, nrm) is (nrm <= down)
    lo = max(down, 0.0)
    assert flow_interval(cfg, r) == ((lo, up) if lo <= up else None)


@settings(database=None, deadline=None, max_examples=50)
@given(configs, st.integers(0, 10**6))
def test_scheduled_gain_is_the_grid_gain_at_the_band_speed(cfg, r):
    assert compute_kr(ARM, cfg, r) == compute_k0(ARM, cfg.eta, r * cfg.v_bar).k0


def test_a_strict_threshold_is_caught(monkeypatch):
    cfg = HybridConfig(v_bar=3.0, eta=1.0)

    def strict_flow_set(cfg, r, nrm):
        interval = flow_interval(cfg, r)
        return interval is not None and interval[0] < nrm < interval[1]

    for nrm in (down_thr(cfg, 2), up_thr(cfg, 2)):
        check_flow_set(flow_set, cfg, 2, nrm)
        with pytest.raises(AssertionError):
            check_flow_set(strict_flow_set, cfg, 2, nrm)

    on_threshold = [JumpEvent(0.1, 2, 3, up_thr(cfg, 2), 100)]
    check_audit(cfg, on_threshold)
    monkeypatch.setattr(analysis, "jump_up_set", lambda cfg, r, nrm: nrm > up_thr(cfg, r))
    with pytest.raises(AssertionError):
        check_audit(cfg, on_threshold)

    def strict_step(schedule, state, nrm):
        if nrm > state.up:
            return enter_mode(schedule, state.r + 1)
        if nrm <= state.down:
            return enter_mode(schedule, state.r - 1)
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
    upper, tau), the jump events and the blow-up message, None when the run
    held; after a blow-up the rows end with the sample of the step that left
    the limit or raised a math error.
    """
    model, n = sc.model, sc.model.n
    use_red = sc.observer_mode in ("reduced", "both")
    use_full = sc.observer_mode in ("full", "both")
    cfg, dt, eta = sc.hybrid, sc.dt, sc.eta
    design = compute_k0(model, eta, sc.design_speed())
    events = []
    scheduled = sc.gain_mode == "scheduled"
    if scheduled:
        r = initialize_logic(GainSchedule(model, cfg), math.hypot(*sc.xhat2_0.tolist()),
                             sc.r_guess, events).r
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

    states, extra = [], []
    n_samples = sc.sample_count()
    for i in range(n_samples):
        t = i * dt
        d1, tau, est, terms = rhs(t, s)
        eps = sub(s[n:n2], est)
        nrm = math.hypot(*est)
        states.append(s)
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
            return (np.array(states), np.array(extra), events,
                    f"state component left |x| <= 1e+06 at t = {t + dt:.6g}")
        if scheduled:
            y = s[:n]
            est_new = axpy(k, y, s[n2:n3])
            nrm = math.hypot(*est_new)
            r_new = next_mode(cfg, r, nrm)
            if r_new != r:
                events.append(JumpEvent(t + dt, r, r_new, nrm, i + 1))
                k = compute_kr(model, cfg, r_new)
                s = s[:n2] + axpy(-k, y, est_new) + s[n3:]
                r = r_new
    return np.array(states), np.array(extra), events, None


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
            f1=draw(st.floats(0.0, 1.0)), f2=draw(st.floats(0.0, 1.0))), grid_points=64)
        n = 2
        controller = draw(st.sampled_from(["open_loop_1", "open_loop_2", "constant", "pd"]))
    else:
        model = SingleLinkModel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 2.0)))
        n = 1
        controller = draw(st.sampled_from(["constant", "pd"]))
    if controller == "open_loop_1":
        controller = OpenLoopBounded()
    elif controller == "open_loop_2":
        controller = OpenLoopUnbounded()
    elif controller == "constant":
        controller = ConstantTorque(vec(-10.0, 10.0))
    else:
        controller = PdGravity(PdConfig(kp=vec(1.0, 40.0), kd=vec(1.0, 30.0),
                                        x_ref=vec(-1.0, 1.0)))
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


@settings(database=None, deadline=None, max_examples=80)
@given(short_scenarios(), st.integers(1, 64), st.sampled_from([False, False, True]))
def test_a_run_is_the_reference_rk4_loop(sc, block_rows, blow_up):
    if blow_up:
        # a torque that drives the arm past the blow-up limit within the run
        sc = dataclasses.replace(sc, controller=ConstantTorque([1e7] * sc.model.n),
                                 t_final=0.2)
    # small row blocks put block edges inside the run, and a partial last block
    check_blocks(sc, block_rows)


def test_a_reordered_final_stage_is_caught():
    hybrid = HybridConfig(v_bar=0.5, eta=1.0, r_min=1)
    sc = Scenario(name="prop", model=TwoLinkArm(grid_points=64), q0=np.array([0.3, -0.8]),
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
    (stop = i + 1) with its sample row, the last sample's row alone, and with
    a logic state, the estimate norm handed to step_logic and the jump's
    event and re-based z."""
    pack, run = simulator.flat_rhs(model_cls, type(law), mode)(
        *model._constants, *law._constants, kd, kp, dt)

    def rhs(t, s):
        return composed_rhs(model, law, mode, kd, kp, t, s, k)

    t = i * dt
    d1, tau, est, terms = rhs(t, s)
    n = model.n
    q, v = s[:n], s[n:2 * n]
    eps = sub(v, est)
    nrm = math.hypot(*est)
    row = (math.hypot(*eps), model.energy(terms, eps), r, k, nrm, nrm, *tau,
           *est * (mode != "full"))
    # the initial state: z from the estimate as simulate packed it before
    z0 = tuple((np.array(est) - k * np.array(q)).tolist())
    packed = q + v + z0 * (mode != "full") + (q + est) * (mode != "reduced")
    s1 = zip_step(rhs, t, s, dt, d1)
    srows, (got_row,), got_s1, *ends = run(i, i + 1, s, k, r, i + 1, None, None, None, None)
    _, (last_row,), same, *last_ends = run(i, i + 1, s, k, r, i, None, None, None, None)
    got = [pack(q, v, est, k), *srows, got_row, got_s1, last_row, same]
    want = [packed, s, row, s1, row, s]
    exact = ends == last_ends == [k, r, None] and len(srows) == 1
    if mode != "full":
        # a logic step that jumps to a mode with gain k_new
        seen, events = [], []
        logic, stepped = SimpleNamespace(r=r), SimpleNamespace(r=r + 1, k_r=k_new)

        def jump(schedule, logic, nrm):
            seen.append((schedule, logic, nrm))
            return stepped

        *_, s2, k2, r2, logic2 = run(i, i + 1, s, k, r, i + 1, logic, "schedule", jump, events)
        q1 = s1[:n]
        est1 = axpy(k, q1, s1[2 * n:3 * n])
        nrm1 = math.hypot(*est1)
        got.append(s2)
        want.append(s1[:2 * n] + axpy(-k_new, q1, est1) + s1[3 * n:])
        exact = exact and seen == [("schedule", logic, nrm1)] and (k2, r2, logic2) == (
            k_new, r + 1, stepped) and events == [JumpEvent(t + dt, r, r + 1, nrm1, i + 1)]
    return exact and all(same_bits(g, w) for g, w in zip(got, want))


@st.composite
def shapes(draw):
    """A model, a law that fits it, an observer mode and a packed state."""
    if draw(st.booleans()):
        model = TwoLinkArm(TwoLinkParams(
            m1=draw(st.floats(0.5, 30.0)), m2=draw(st.floats(0.5, 30.0)),
            l1=draw(st.floats(0.3, 2.0)), l2=draw(st.floats(0.3, 2.0)),
            f1=draw(st.floats(0.0, 1.0)), f2=draw(st.floats(0.0, 1.0))), grid_points=64)
        laws = ["open_loop_1", "open_loop_2", "constant", "pd"]
    else:
        model = SingleLinkModel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 2.0)))
        laws = ["constant", "pd"]
    n = model.n

    def vec(lo, hi, size=n):
        return [draw(st.floats(lo, hi)) for _ in range(size)]

    law = {"open_loop_1": OpenLoopBounded, "open_loop_2": OpenLoopUnbounded,
           "constant": lambda: ConstantTorque(vec(-10.0, 10.0)),
           "pd": lambda: PdGravity(PdConfig(kp=vec(1.0, 40.0), kd=vec(1.0, 30.0),
                                            x_ref=vec(-1.0, 1.0)))}[draw(st.sampled_from(laws))]()
    mode = draw(st.sampled_from(OBSERVER_MODES))
    width = {"reduced": 3, "full": 4, "both": 5}[mode] * n
    return model, law, mode, tuple(vec(-5.0, 5.0, width))


@settings(database=None, deadline=None, max_examples=150)
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
