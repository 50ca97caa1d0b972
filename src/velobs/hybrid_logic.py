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

Every function below that takes an estimate xhat2 also accepts its norm as
a float, which is what the simulator passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    def up_threshold(self, r: int) -> float:
        return r * self.v_bar - self.eta

    def down_threshold(self, r: int) -> float:
        if self.semantics == "hysteresis":
            return (r - 1) * self.v_bar - self.eta
        return (r - 1) * self.v_bar + self.eta


def _estimate_norm(xhat2) -> float:
    """||xhat2||, or xhat2 itself when it is already the norm (a float)."""
    if isinstance(xhat2, float):
        return xhat2
    return float(np.linalg.norm(xhat2))


def _check_mode(config: HybridConfig, r: int) -> None:
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")


def jump_up_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the up-jump set of mode r."""
    _check_mode(config, r)
    return _estimate_norm(xhat2) >= config.up_threshold(r)


def jump_down_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the down-jump set of mode r.

    Always false at the floor mode, there is no mode below to jump to.
    """
    _check_mode(config, r)
    if r <= config.r_min:
        return False
    return _estimate_norm(xhat2) <= config.down_threshold(r)


def flow_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the flow set of mode r.

    The flow set is the closure of the complement of the jump sets, the
    closed annulus flow_interval(config, r) in estimate norm.  Boundary
    points belong to both the flow set and the adjacent jump set.
    """
    interval = flow_interval(config, r)
    if interval is None:
        return False
    lo, hi = interval
    return lo <= _estimate_norm(xhat2) <= hi


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


@dataclass(frozen=True)
class LogicState:
    """Current mode r and its gain."""

    r: int
    k_r: float


def step_logic(config: HybridConfig, schedule: GainSchedule, state: LogicState,
               xhat2) -> LogicState:
    """Apply at most one jump; an up-jump wins when both sets are hit."""
    if jump_up_set(config, state.r, xhat2):
        new_r = state.r + 1
    elif jump_down_set(config, state.r, xhat2):
        new_r = state.r - 1
    else:
        return state
    return LogicState(r=new_r, k_r=schedule.gain(new_r))


def initialize_logic(config: HybridConfig, schedule: GainSchedule, xhat2_0,
                     r_guess: int, *, events: list | None = None) -> LogicState:
    """Settle the logic index at time zero by iterating jumps.

    Jumps are applied repeatedly until the initial estimate is outside the
    active jump sets, or only inside the one that points back to the mode
    just exited (crossing back would cycle forever).  Each applied jump is
    appended to `events` as (old_r, new_r, estimate_norm) when a list is
    given.  Raises ValueError when MAX_INIT_JUMPS jumps have not settled it.
    """
    if r_guess < config.r_min:
        raise ValueError("r_guess must not be below r_min")
    nrm = _estimate_norm(xhat2_0)
    r = r_guess
    last = 0                    # direction of the previous jump
    for _ in range(MAX_INIT_JUMPS):
        if last != -1 and jump_up_set(config, r, nrm):
            step = 1
        elif last != 1 and jump_down_set(config, r, nrm):
            step = -1
        else:
            return LogicState(r=r, k_r=schedule.gain(r))
        if events is not None:
            events.append((r, r + step, nrm))
        r += step
        last = step
    raise ValueError("logic index did not settle; inconsistent hybrid configuration")


def velocity_sandwich(eta: float, xhat2) -> tuple[float, float]:
    """Certified bracket for the true speed: (max(0, ||xhat2|| - eta), ||xhat2|| + eta)."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    nrm = _estimate_norm(xhat2)
    return max(0.0, nrm - eta), nrm + eta
