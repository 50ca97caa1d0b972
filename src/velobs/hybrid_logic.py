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

The functions below take the estimate norm ||xhat2|| (some also an array).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import RobotModel
from .observers import compute_k0

SEMANTICS = ("paper_faithful", "hysteresis")

# Most bands between r_guess and the settled time-zero mode: the simulator's
# MAX_SAMPLES, so the time-zero walk has no more jumps than a run's flow may.
MAX_INIT_JUMPS = 2_000_000


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


def flow_interval(config: HybridConfig, r: int) -> tuple[float, float] | None:
    """Norm interval of the flow set of mode r, or None when it is empty.

    The flow set is the closure of the complement of the jump sets of
    thresholds(r): the closed annulus max(down, 0) <= nrm <= up, whose
    boundary points belong also to the adjacent jump set.  An empty interval
    means the jump sets cover the whole space in mode r, which happens with
    v_bar < 2 eta in paper_faithful semantics.
    """
    up, down = config.thresholds(r)
    lo = max(down, 0.0)
    if up < lo:
        return None
    return lo, up


def flow_empty_above_floor(config: HybridConfig) -> bool:
    """True when the flow annulus of every mode above r_min is empty: the
    paper_faithful jump sets with v_bar < 2 eta, where each such mode's down
    threshold (r - 1) v_bar + eta lies above its up threshold r v_bar - eta.
    The comparison is exact; flow_interval, which rounds both thresholds,
    may differ from it only when v_bar is within a few ulps of 2 eta."""
    return config.semantics == "paper_faithful" and config.v_bar < 2.0 * config.eta


def compute_kr(model: RobotModel, config: HybridConfig, r: int) -> float:
    """Scheduled gain of mode r: the constant design for speeds up to r * v_bar."""
    return compute_k0(model, config.eta, config.band_speed(r)).k0


class LogicState(NamedTuple):
    """Current mode r, its gain and the thresholds of its jump sets."""

    r: int
    k_r: float
    up: float       # the up-jump set is nrm >= up
    down: float     # the down-jump set is nrm <= down; -inf at the floor mode


class GainSchedule(dict):
    """The LogicState of each mode, schedule[r]: its gain (compute_kr) and
    jump thresholds, built on the first lookup of r and kept."""

    def __init__(self, model: RobotModel, config: HybridConfig):
        super().__init__()
        self.model = model
        self.config = config

    def __missing__(self, r: int) -> LogicState:
        up, down = self.config.thresholds(r)    # a mode below r_min raises ValueError
        state = self[r] = LogicState(r, compute_kr(self.model, self.config, r), up, down)
        return state


def step_logic(schedule: GainSchedule, state: LogicState, nrm: float) -> LogicState:
    """Apply at most one jump; an up-jump wins when both sets are hit.

    Two compares against the thresholds that schedule[r] took from the
    schedule's config.
    """
    if nrm >= state.up:
        return schedule[state.r + 1]
    if nrm <= state.down:
        return schedule[state.r - 1]
    return state


def initialize_logic(schedule: GainSchedule, nrm: float, r_guess: int) -> LogicState:
    """Settle the logic index at time zero where the walk of single jumps
    from r_guess ends, in no jump set but the one pointing back.  The
    thresholds grow with r, so one bisection finds it: the first mode from
    r_guess up with nrm < up when nrm >= up at r_guess, else the last mode
    in [r_min, r_guess] with nrm > down.  Raises ValueError for an r_guess
    below r_min (its thresholds refuse that mode) or a settled mode more
    than MAX_INIT_JUMPS bands from r_guess."""
    config = schedule.config
    if nrm >= config.thresholds(r_guess)[0]:
        span = range(r_guess, r_guess + MAX_INIT_JUMPS + 1)
        i = bisect.bisect_left(span, True, key=lambda r: nrm < config.thresholds(r)[0])
    else:
        span = range(max(config.r_min, r_guess - MAX_INIT_JUMPS), r_guess + 1)
        i = bisect.bisect_left(span, True, key=lambda r: nrm <= config.thresholds(r)[1]) - 1
    if not 0 <= i < len(span):
        raise ValueError(f"the time-zero mode lies more than {MAX_INIT_JUMPS} bands from r_guess")
    return schedule[span[i]]


def velocity_sandwich(eta: float, nrm):
    """Certified bracket for the true speed from the estimate norm nrm = ||xhat2||:
    (max(0, nrm - eta), nrm + eta), elementwise for an array of norms."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return np.maximum(0.0, nrm - eta), nrm + eta
