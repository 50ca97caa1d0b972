"""Velocity-band switching logic that schedules the observer gain.

The estimate norm is partitioned into bands of width v_bar indexed by a logic
state r.  Mode r uses the gain sized for speeds up to r * v_bar; the logic
jumps up when the estimate approaches the top of its band and down when it
falls below the band, with a margin eta on both thresholds.

Two jump-set semantics are supported.  In 'paper_faithful' mode the down
threshold is (r-1) v_bar + eta, which overlaps the up threshold of the mode
below whenever v_bar < 2 eta and then chatters under deterministic stepping.
In 'hysteresis' mode the down threshold is lowered to (r-1) v_bar - eta so a
fresh up-jump is never undone without the estimate first returning to the
entry level.

The functions below take the estimate norm ||xhat2|| as a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import RobotModel
from .observers import compute_k0

SEMANTICS = ("paper_faithful", "hysteresis")

# Most jumps initialize_logic applies before it gives up on settling.
MAX_INIT_JUMPS = 1000


@dataclass(frozen=True)
class HybridConfig:
    """Band width v_bar, margin eta, jump semantics and the lowest mode index."""

    v_bar: float
    eta: float
    semantics: str = "paper_faithful"
    r_min: int = 0

    def __post_init__(self):
        if not (self.v_bar > 0.0 and math.isfinite(self.v_bar)):
            raise ValueError("v_bar must be positive and finite")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        if self.semantics not in SEMANTICS:
            raise ValueError(f"semantics must be one of {SEMANTICS}")
        if self.r_min < 0:
            raise ValueError("r_min must be nonnegative")

    def band_speed(self, r):
        """Top speed of the band of mode r, r * v_bar, which its gain is
        designed for; elementwise for an array of modes."""
        return r * self.v_bar

    def thresholds(self, r: int) -> tuple[float, float]:
        """(up, down) of mode r: its up-jump set is nrm >= up, its down-jump
        set nrm <= down.  down is -inf at the floor mode r_min, which has no
        mode below to jump to; a mode below r_min raises ValueError."""
        if r < self.r_min:
            raise ValueError("r below the lowest admissible mode")
        if r == self.r_min:
            down = -math.inf
        elif self.semantics == "hysteresis":
            down = self.band_speed(r - 1) - self.eta
        else:
            down = self.band_speed(r - 1) + self.eta
        return self.band_speed(r) - self.eta, down


class JumpEvent(NamedTuple):
    """One logic jump: when, from which mode to which, at what estimate norm,
    and at which sample (0 for the jumps that settle the mode at time zero)."""

    time: float
    old_r: int
    new_r: int
    est_norm: float
    step: int


def jump_up_set(config: HybridConfig, r: int, nrm: float) -> bool:
    """True iff the estimate norm lies in the up-jump set of mode r."""
    return nrm >= config.thresholds(r)[0]


def jump_down_set(config: HybridConfig, r: int, nrm: float) -> bool:
    """True iff the estimate norm lies in the down-jump set of mode r;
    always false at the floor mode."""
    return nrm <= config.thresholds(r)[1]


def flow_set(config: HybridConfig, r: int, nrm: float) -> bool:
    """True iff the estimate norm lies in the flow set of mode r.

    The flow set is the closure of the complement of the jump sets, the
    closed annulus flow_interval(config, r) in estimate norm.  Boundary
    points belong to both the flow set and the adjacent jump set.
    """
    interval = flow_interval(config, r)
    if interval is None:
        return False
    lo, hi = interval
    return lo <= nrm <= hi


def flow_interval(config: HybridConfig, r: int) -> tuple[float, float] | None:
    """Norm interval of the flow annulus of mode r, or None when it is empty.

    An empty interval means the jump sets cover the whole space in mode r,
    which happens with v_bar < 2 eta in paper_faithful semantics.
    """
    up, down = config.thresholds(r)
    lo = max(down, 0.0)
    if up < lo:
        return None
    return lo, up


def compute_kr(model: RobotModel, config: HybridConfig, r: int) -> float:
    """Scheduled gain of mode r: the constant design for speeds up to r * v_bar."""
    return compute_k0(model, config.eta, config.band_speed(r)).k0


class GainSchedule:
    """The LogicState of each mode, with its designed gain, made when first entered."""

    def __init__(self, model: RobotModel, config: HybridConfig):
        self.model = model
        self.config = config
        self.states: dict[int, LogicState] = {}


class LogicState(NamedTuple):
    """Current mode r, its gain and the thresholds of its jump sets."""

    r: int
    k_r: float
    up: float       # jump_up_set is nrm >= up
    down: float     # jump_down_set is nrm <= down; -inf at the floor mode


def enter_mode(schedule: GainSchedule, r: int) -> LogicState:
    """The logic state of mode r, with its gain (compute_kr) and jump
    thresholds, built on the first entry and kept by the schedule."""
    state = schedule.states.get(r)
    if state is None:
        config = schedule.config
        up, down = config.thresholds(r)
        state = schedule.states[r] = LogicState(r, compute_kr(schedule.model, config, r),
                                                up, down)
    return state


def step_logic(schedule: GainSchedule, state: LogicState, nrm: float) -> LogicState:
    """Apply at most one jump; an up-jump wins when both sets are hit.

    Two compares against the thresholds that enter_mode took from the
    schedule's config.
    """
    if nrm >= state.up:
        return enter_mode(schedule, state.r + 1)
    if nrm <= state.down:
        return enter_mode(schedule, state.r - 1)
    return state


def initialize_logic(schedule: GainSchedule, nrm: float, r_guess: int,
                     events: list[JumpEvent]) -> LogicState:
    """Settle the logic index at time zero by iterating jumps.

    Jumps are applied repeatedly until the initial estimate norm is outside the
    active jump sets, or only inside the one that points back to the mode
    just exited (crossing back would cycle forever).  Each applied jump is
    appended to `events` as JumpEvent(0.0, old_r, new_r, nrm, 0).  Raises
    ValueError when r_guess is below r_min (its thresholds refuse that mode)
    or MAX_INIT_JUMPS jumps have not settled it.
    """
    config = schedule.config
    r = r_guess
    last = 0                    # direction of the previous jump
    for _ in range(MAX_INIT_JUMPS):
        up, down = config.thresholds(r)
        if last != -1 and nrm >= up:
            step = 1
        elif last != 1 and nrm <= down:
            step = -1
        else:
            return enter_mode(schedule, r)
        events.append(JumpEvent(0.0, r, r + step, nrm, 0))
        r += step
        last = step
    raise ValueError("logic index did not settle; inconsistent hybrid configuration")


def velocity_sandwich(eta: float, nrm):
    """Certified bracket for the true speed from the estimate norm nrm = ||xhat2||:
    (max(0, nrm - eta), nrm + eta), elementwise for an array of norms."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return np.maximum(0.0, nrm - eta), nrm + eta
