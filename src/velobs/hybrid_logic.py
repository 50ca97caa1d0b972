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

    def up_threshold(self, r: int) -> float:
        return r * self.v_bar - self.eta

    def down_threshold(self, r: int) -> float:
        if self.semantics == "hysteresis":
            return (r - 1) * self.v_bar - self.eta
        return (r - 1) * self.v_bar + self.eta


def _check_mode(config: HybridConfig, r: int) -> None:
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")


def jump_up_set(config: HybridConfig, r: int, nrm: float) -> bool:
    """True iff the estimate norm lies in the up-jump set of mode r."""
    _check_mode(config, r)
    return nrm >= config.up_threshold(r)


def jump_down_set(config: HybridConfig, r: int, nrm: float) -> bool:
    """True iff the estimate norm lies in the down-jump set of mode r.

    Always false at the floor mode, there is no mode below to jump to.
    """
    _check_mode(config, r)
    if r <= config.r_min:
        return False
    return nrm <= config.down_threshold(r)


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
    _check_mode(config, r)
    hi = config.up_threshold(r)
    lo = max(config.down_threshold(r), 0.0) if r > config.r_min else 0.0
    if hi < lo:
        return None
    return lo, hi


def compute_kr(model: RobotModel, config: HybridConfig, r: int) -> float:
    """Scheduled gain of mode r: the constant design for speeds up to r * v_bar."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return compute_k0(model, config.eta, r * config.v_bar).k0


class GainSchedule:
    """Gain k_r of each mode, computed by compute_kr when first asked for."""

    def __init__(self, model: RobotModel, config: HybridConfig):
        self.model = model
        self.config = config
        self._gains: dict[int, float] = {}

    def gain(self, r: int) -> float:
        k = self._gains.get(r)
        if k is None:
            k = self._gains[r] = compute_kr(self.model, self.config, r)
        return k


class LogicState(NamedTuple):
    """Current mode r, its gain and the thresholds of its jump sets."""

    r: int
    k_r: float
    up: float       # jump_up_set is nrm >= up
    down: float     # jump_down_set is nrm <= down; -inf at the floor mode


def enter_mode(config: HybridConfig, schedule: GainSchedule, r: int) -> LogicState:
    """The logic state of mode r, with its gain and jump thresholds."""
    _check_mode(config, r)
    down = config.down_threshold(r) if r > config.r_min else -math.inf
    return LogicState(r, schedule.gain(r), config.up_threshold(r), down)


def step_logic(config: HybridConfig, schedule: GainSchedule, state: LogicState,
               nrm: float) -> LogicState:
    """Apply at most one jump; an up-jump wins when both sets are hit.

    Two compares against the thresholds that enter_mode took from config.
    """
    if nrm >= state.up:
        return enter_mode(config, schedule, state.r + 1)
    if nrm <= state.down:
        return enter_mode(config, schedule, state.r - 1)
    return state


def initialize_logic(config: HybridConfig, schedule: GainSchedule, nrm: float,
                     r_guess: int, *, events: list | None = None) -> LogicState:
    """Settle the logic index at time zero by iterating jumps.

    Jumps are applied repeatedly until the initial estimate norm is outside the
    active jump sets, or only inside the one that points back to the mode
    just exited (crossing back would cycle forever).  Each applied jump is
    appended to `events` as (old_r, new_r, estimate_norm) when a list is
    given.  Raises ValueError when MAX_INIT_JUMPS jumps have not settled it.
    """
    if r_guess < config.r_min:
        raise ValueError("r_guess must not be below r_min")
    r = r_guess
    last = 0                    # direction of the previous jump
    for _ in range(MAX_INIT_JUMPS):
        if last != -1 and jump_up_set(config, r, nrm):
            step = 1
        elif last != 1 and jump_down_set(config, r, nrm):
            step = -1
        else:
            return enter_mode(config, schedule, r)
        if events is not None:
            events.append((r, r + step, nrm))
        r += step
        last = step
    raise ValueError("logic index did not settle; inconsistent hybrid configuration")


def velocity_sandwich(eta: float, nrm: float) -> tuple[float, float]:
    """Certified bracket for the true speed from the estimate norm nrm = ||xhat2||:
    (max(0, nrm - eta), nrm + eta)."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return max(0.0, nrm - eta), nrm + eta
