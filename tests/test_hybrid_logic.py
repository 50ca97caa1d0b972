"""Switching-logic tests: jump sets, gain schedule, initialization."""
from __future__ import annotations

import math

import numpy as np
import pytest

from velobs import hybrid_logic
from velobs.hybrid_logic import (
    GainSchedule,
    HybridConfig,
    JumpEvent,
    compute_kr,
    flow_interval,
    initialize_logic,
    step_logic,
    velocity_sandwich,
)
from velobs.observers import compute_k0

# Frozen scheduled gains for the two-link arm, v_bar = 1.5, eta = 1, r = 0..4.
KR_TABLE = [5.3214604790460145, 13.35798304843369, 21.394505617821366,
            29.43102818720904, 37.46755075659672]


def make_config(**kwargs) -> HybridConfig:
    base = dict(v_bar=3.0, eta=1.0)
    base.update(kwargs)
    return HybridConfig(**base)


def test_threshold_formulas():
    cfg = make_config()
    assert cfg.band_speed(2) == 6.0
    assert cfg.thresholds(2) == (5.0, 4.0)
    hyst = make_config(semantics="hysteresis")
    assert hyst.thresholds(2) == (5.0, 2.0)
    # the floor mode has no down-jump set
    assert cfg.thresholds(0) == (-1.0, -math.inf)
    assert make_config(r_min=2).thresholds(2) == (5.0, -math.inf)
    with pytest.raises(ValueError, match="lowest admissible mode"):
        make_config(r_min=2).thresholds(1)


def test_band_speed_is_elementwise():
    cfg = make_config()
    assert cfg.band_speed(np.array([0, 1, 4])).tolist() == [0.0, 3.0, 12.0]


def test_jump_set_membership():
    # the up-jump set of mode r is nrm >= up, its down-jump set nrm <= down
    up, down = make_config().thresholds(2)
    assert 5.2 >= up
    assert 5.0 >= up                     # boundary included
    assert not 4.5 >= up
    assert 3.9 <= down
    hyst = make_config(semantics="hysteresis")
    assert not 3.9 <= hyst.thresholds(2)[1]


def test_down_jump_disabled_at_floor():
    cfg = make_config(r_min=1)
    down = cfg.thresholds(1)[1]
    for nrm in (0.0, 1e300, math.inf, math.nan):
        assert not nrm <= down
    with pytest.raises(ValueError):
        cfg.thresholds(0)


def test_flow_set_is_closed_annulus():
    cfg = make_config()
    lo, hi = flow_interval(cfg, 2)
    assert (lo, hi) == (4.0, 5.0)
    for nrm, inside in [(4.0, True), (4.5, True), (5.0, True),
                        (3.9, False), (5.2, False)]:
        assert (lo <= nrm <= hi) is inside
    # boundary points are shared with the adjacent jump sets: the ends of
    # the interval are the thresholds
    up, down = cfg.thresholds(2)
    assert (lo, hi) == (down, up)


def test_floor_mode_flow_interval_can_be_empty():
    # mode 0 has up threshold -eta < 0, so every norm is in its up set
    cfg = make_config()
    assert flow_interval(cfg, 0) is None


def test_narrow_bands_make_empty_flow_sets():
    # v_bar < 2 eta: above the floor the two jump sets overlap and the
    # annulus vanishes, but only under the overlapping semantics
    cfg = HybridConfig(v_bar=1.5, eta=1.0)
    assert flow_interval(cfg, 1) is None
    assert flow_interval(cfg, 2) is None
    hyst = HybridConfig(v_bar=1.5, eta=1.0, semantics="hysteresis")
    assert flow_interval(hyst, 1) == (0.0, 0.5)
    assert flow_interval(hyst, 2) == (0.5, 2.0)
    # at the floor mode the down set is disabled, so the band is never empty
    floored = HybridConfig(v_bar=1.5, eta=1.0, r_min=1)
    assert flow_interval(floored, 1) == (0.0, 0.5)


def test_hysteresis_separates_thresholds():
    # after an up-jump out of mode r the new down threshold must not sit
    # above the old up threshold, or the jump undoes itself immediately
    for v_bar, eta in [(3.0, 1.0), (1.5, 1.0), (2.0, 0.5)]:
        paper = HybridConfig(v_bar=v_bar, eta=eta)
        hyst = HybridConfig(v_bar=v_bar, eta=eta, semantics="hysteresis")
        for r in range(0, 5):
            assert hyst.thresholds(r + 1)[1] <= paper.thresholds(r)[0]
            assert paper.thresholds(r + 1)[1] > paper.thresholds(r)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(v_bar=0.0, eta=1.0)
    with pytest.raises(ValueError):
        HybridConfig(v_bar=1.0, eta=0.0)
    with pytest.raises(ValueError):
        HybridConfig(v_bar=1.0, eta=1.0, semantics="sticky")
    with pytest.raises(ValueError):
        HybridConfig(v_bar=1.0, eta=1.0, r_min=-1)


def test_scheduled_gains_frozen_table(arm):
    cfg = HybridConfig(v_bar=1.5, eta=1.0, r_min=1)
    for r, expected in enumerate(KR_TABLE):
        assert math.isclose(compute_kr(arm, cfg, r), expected, rel_tol=1e-12)


def test_scheduled_gain_reduces_to_constant_design(arm):
    cfg = HybridConfig(v_bar=1.5, eta=1.0)
    assert compute_kr(arm, cfg, 0) == compute_k0(arm, 1.0, 0.0).k0
    assert compute_kr(arm, cfg, 1) == compute_k0(arm, 1.0, 1.5).k0
    assert compute_kr(arm, cfg, 4) == compute_k0(arm, 1.0, 6.0).k0


def test_compute_kr_rejects_negative_mode(arm):
    with pytest.raises(ValueError):
        compute_kr(arm, make_config(), -1)


def test_gain_schedule_consistency(arm):
    cfg = HybridConfig(v_bar=1.5, eta=1.0, r_min=0)
    schedule = GainSchedule(arm, cfg)
    for r in [0, 1, 4, 8, 9, 70]:
        assert schedule[r].k_r == compute_kr(arm, cfg, r)
        assert schedule[r] is schedule.get(r)
    gains = [schedule[r].k_r for r in range(10)]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    with pytest.raises(ValueError):
        schedule[-2]
    assert -2 not in schedule and sorted(schedule) == [*range(10), 70]


def test_gain_schedule_designs_only_the_modes_asked_for(arm, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return compute_k0(*args)

    monkeypatch.setattr(hybrid_logic, "compute_k0", counted)
    cfg = HybridConfig(v_bar=1e-5, eta=1.0, semantics="hysteresis")
    r_guess = 1_099_990
    schedule = GainSchedule(arm, cfg)
    # midway through the flow annulus of mode r_guess + 3, between the down
    # threshold (r_guess + 2) v_bar - eta and the up one (r_guess + 3) v_bar - eta
    nrm = (r_guess + 2.5) * cfg.v_bar - cfg.eta
    events = []
    state = initialize_logic(schedule, nrm, r_guess, events)
    assert state.r == r_guess + 3 and len(events) == 3
    assert schedule[state.r] is state
    assert len(calls) == 1
    assert schedule[r_guess].k_r == compute_k0(arm, 1.0, r_guess * 1e-5).k0
    assert len(calls) == 2


def test_step_logic_flows_inside_band(arm):
    cfg = make_config()
    schedule = GainSchedule(arm, cfg)
    state = schedule[2]
    assert step_logic(schedule, state, 4.5) is state


def test_step_logic_single_up_and_down_jumps(arm):
    cfg = make_config()
    schedule = GainSchedule(arm, cfg)
    state = schedule[2]
    up = step_logic(schedule, state, 5.1)
    assert up.r == 3
    assert up.k_r == compute_kr(arm, cfg, 3)
    down = step_logic(schedule, state, 3.9)
    assert down.r == 1
    assert down.k_r == compute_kr(arm, cfg, 1)


def test_step_logic_up_wins_when_sets_overlap(arm):
    # narrow band: norm 0.7 is in both jump sets of mode 1
    cfg = HybridConfig(v_bar=1.5, eta=1.0)
    schedule = GainSchedule(arm, cfg)
    up, down = cfg.thresholds(1)
    assert up <= 0.7 <= down
    state = schedule[1]
    assert step_logic(schedule, state, 0.7).r == 2


def test_initialize_settles_zero_estimate_to_floor(arm):
    cfg = make_config()
    schedule = GainSchedule(arm, cfg)
    events = []
    state = initialize_logic(schedule, 0.0, 1, events)
    assert state.r == cfg.r_min == 0
    assert events == [JumpEvent(0.0, 1, 0, 0.0, 0)]


def test_initialize_climbs_to_matching_band(arm):
    # up thresholds -1, 2, 5, 8, 11: norm 10 belongs in mode 4
    cfg = make_config()
    schedule = GainSchedule(arm, cfg)
    events = []
    state = initialize_logic(schedule, 10.0, 0, events)
    assert state.r == 4
    assert events == [JumpEvent(0.0, r, r + 1, 10.0, 0) for r in range(4)]
    assert state.k_r == compute_kr(arm, cfg, 4)


def test_initialize_respects_floor_and_guess_validation(arm):
    cfg = make_config(r_min=1)
    schedule = GainSchedule(arm, cfg)
    with pytest.raises(ValueError):
        initialize_logic(schedule, 0.0, 0, [])
    events = []
    state = initialize_logic(schedule, 0.0, 3, events)
    assert state.r == 1
    assert events == [JumpEvent(0.0, 3, 2, 0.0, 0), JumpEvent(0.0, 2, 1, 0.0, 0)]


def test_initialize_raises_when_it_cannot_settle(arm):
    # microscopic bands: a norm-10 estimate needs >1000 up-jumps
    cfg = HybridConfig(v_bar=1e-3, eta=1.0)
    schedule = GainSchedule(arm, cfg)
    with pytest.raises(ValueError, match="settle"):
        initialize_logic(schedule, 10.0, 0, [])


def test_velocity_sandwich_bracket():
    lo, hi = velocity_sandwich(1.0, 5.0)
    assert (lo, hi) == (4.0, 6.0)
    assert velocity_sandwich(2.0, 0.5) == (0.0, 2.5)
    with pytest.raises(ValueError):
        velocity_sandwich(0.0, 1.0)
