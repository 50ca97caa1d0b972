"""Property tests of the jump rule, the logic step and the scheduled gain over
random configurations.

Each property is written out here from the thresholds alone, so that it is
independent of the library's jump-set functions; the sabotage controls show
that a strict inequality at a threshold would be caught.
"""
from __future__ import annotations

from types import SimpleNamespace

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velobs import analysis
from velobs.analysis import illegal_jumps
from velobs.dynamics import TwoLinkArm
from velobs.hybrid_logic import (SEMANTICS, GainSchedule, HybridConfig,
                                 compute_kr, enter_mode, flow_interval, flow_set,
                                 step_logic)
from velobs.observers import compute_k0
from velobs.simulator import JumpEvent

ARM = TwoLinkArm()
PROPERTY = settings(database=None, deadline=None, max_examples=200)

configs = st.builds(HybridConfig, v_bar=st.floats(1e-3, 10.0), eta=st.floats(1e-3, 5.0),
                    semantics=st.sampled_from(SEMANTICS), r_min=st.integers(0, 5))


@st.composite
def norms(draw, cfg, r):
    """An estimate norm: anywhere, or exactly on a threshold of mode r."""
    free = draw(st.floats(0.0, 600.0))
    on = draw(st.sampled_from([cfg.up_threshold(r), cfg.down_threshold(r), free]))
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
    return nrm <= cfg.up_threshold(r) and (r == cfg.r_min or nrm >= cfg.down_threshold(r))


def legal(cfg, ev) -> bool:
    """A jump of one mode, out of an admissible mode, from inside its jump set."""
    if ev.old_r < cfg.r_min:
        return False
    if ev.new_r == ev.old_r + 1:
        return ev.est_norm >= cfg.up_threshold(ev.old_r)
    if ev.new_r == ev.old_r - 1:
        return ev.old_r > cfg.r_min and ev.est_norm <= cfg.down_threshold(ev.old_r)
    return False


def next_mode(cfg, r, nrm) -> int:
    """The mode after one logic step: up wins, no down-jump out of the floor."""
    if nrm >= cfg.up_threshold(r):
        return r + 1
    if r > cfg.r_min and nrm <= cfg.down_threshold(r):
        return r - 1
    return r


def check_step(step, cfg, r, nrm) -> None:
    schedule = GainSchedule(ARM, cfg)
    state = enter_mode(cfg, schedule, r)
    new = step(cfg, schedule, state, nrm)
    want = next_mode(cfg, r, nrm)
    assert new.r == want
    if want == r:
        assert new is state
    down = cfg.down_threshold(want) if want > cfg.r_min else -math.inf
    assert new == (want, schedule.gain(want), cfg.up_threshold(want), down)


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


@settings(database=None, deadline=None, max_examples=50)
@given(configs, st.integers(0, 10**6))
def test_scheduled_gain_is_the_grid_gain_at_the_band_speed(cfg, r):
    assert compute_kr(ARM, cfg, r) == compute_k0(ARM, cfg.eta, r * cfg.v_bar).k0


def test_a_strict_threshold_is_caught(monkeypatch):
    cfg = HybridConfig(v_bar=3.0, eta=1.0)

    def strict_flow_set(cfg, r, nrm):
        interval = flow_interval(cfg, r)
        return interval is not None and interval[0] < nrm < interval[1]

    for nrm in (cfg.down_threshold(2), cfg.up_threshold(2)):
        check_flow_set(flow_set, cfg, 2, nrm)
        with pytest.raises(AssertionError):
            check_flow_set(strict_flow_set, cfg, 2, nrm)

    on_threshold = [JumpEvent(0.1, 2, 3, cfg.up_threshold(2), 100)]
    check_audit(cfg, on_threshold)
    monkeypatch.setattr(analysis, "jump_up_set",
                        lambda cfg, r, nrm: nrm > cfg.up_threshold(r))
    with pytest.raises(AssertionError):
        check_audit(cfg, on_threshold)

    def strict_step(cfg, schedule, state, nrm):
        if nrm > state.up:
            return enter_mode(cfg, schedule, state.r + 1)
        if nrm <= state.down:
            return enter_mode(cfg, schedule, state.r - 1)
        return state

    check_step(step_logic, cfg, 2, cfg.up_threshold(2))
    with pytest.raises(AssertionError):
        check_step(strict_step, cfg, 2, cfg.up_threshold(2))
