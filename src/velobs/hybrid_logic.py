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

from .dynamics import GridTables, RobotModel
from .observers import K_MIN

SEMANTICS = ("paper_faithful", "hysteresis")


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


def jump_up_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the up-jump set of mode r."""
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")
    return _estimate_norm(xhat2) >= config.up_threshold(r)

def jump_down_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the down-jump set of mode r.

    Always false at the floor mode, there is no mode below to jump to.
    """
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")
    if r <= config.r_min:
        return False
    return _estimate_norm(xhat2) <= config.down_threshold(r)


def flow_set(config: HybridConfig, r: int, xhat2) -> bool:
    """True iff the estimate lies in the flow set of mode r.

    The flow set is the closure of the complement of the jump sets, an
    annulus in estimate norm.  Boundary points belong to both the flow set
    and the adjacent jump set.
    """
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")
    nrm = _estimate_norm(xhat2)
    if nrm > config.up_threshold(r):
        return False
    if r > config.r_min and nrm < config.down_threshold(r):
        return False
    return True


def flow_interval(config: HybridConfig, r: int) -> tuple[float, float] | None:
    """Norm interval of the flow annulus of mode r, or None when it is empty.

    An empty interval means the jump sets cover the whole space in mode r,
    which happens with v_bar < 2 eta in paper_faithful semantics.
    """
    if r < config.r_min:
        raise ValueError("r below the lowest admissible mode")
    hi = config.up_threshold(r)
    lo = max(config.down_threshold(r), 0.0) if r > config.r_min else 0.0
    if hi < lo:
        return None
    return lo, hi


def _kr_from_tables(tables: GridTables, lam_f: float, config: HybridConfig,
                    r: int, k_min: float) -> float:
    ratios = (tables.c0 * (config.eta + r * config.v_bar) - lam_f) / tables.lam_min
    return max(float(ratios.max()), k_min)


def compute_kr(model: RobotModel, config: HybridConfig, r: int, *,
               k_min: float = K_MIN) -> float:
    """Scheduled gain of mode r, sized for speeds up to r * v_bar."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _kr_from_tables(model.design_tables, model.dissipation_floor(),
                           config, r, k_min)


class GainSchedule:
    """Gain table k_r backed by the design-grid maximization.

    Entries for r = 0..64 are precomputed; higher modes are filled in on
    demand.
    """

    def __init__(self, model: RobotModel, config: HybridConfig, *,
                 precompute: int = 64, k_min: float = K_MIN):
        self.model = model
        self.config = config
        self._k_min = k_min
        self._tables = model.design_tables
        self._lam_f = model.dissipation_floor()
        self._gains = [self._entry(r) for r in range(precompute + 1)]

    def _entry(self, r: int) -> float:
        return _kr_from_tables(self._tables, self._lam_f, self.config, r, self._k_min)

    def gain(self, r: int) -> float:
        if r < 0:
            raise ValueError("r must be nonnegative")
        while r >= len(self._gains):
            self._gains.append(self._entry(len(self._gains)))
        return self._gains[r]


@dataclass(frozen=True)
class LogicState:
    """Current mode r, its gain, and jump bookkeeping."""

    r: int
    k_r: float
    jump_count: int = 0
    last_jump_time: float = 0.0


def step_logic(config: HybridConfig, schedule: GainSchedule, state: LogicState,
               xhat2, t: float) -> LogicState:
    """Apply at most one jump; an up-jump wins when both sets are hit."""
    if jump_up_set(config, state.r, xhat2):
        new_r = state.r + 1
    elif jump_down_set(config, state.r, xhat2):
        new_r = state.r - 1
    else:
        return state
    return LogicState(r=new_r, k_r=schedule.gain(new_r),
                      jump_count=state.jump_count + 1, last_jump_time=t)


def initialize_logic(config: HybridConfig, schedule: GainSchedule, xhat2_0,
                     r_guess: int, *, max_iters: int = 1000,
                     events: list | None = None) -> LogicState:
    """Settle the logic index at time zero by iterating jumps.

    Jumps are applied repeatedly until the initial estimate is outside the
    active jump sets, or only inside the one that points back to the mode
    just exited (crossing back would cycle forever).  Each applied jump is
    appended to `events` as (old_r, new_r, estimate_norm) when a list is
    given.
    """
    if r_guess < config.r_min:
        raise ValueError("r_guess must not be below r_min")
    nrm = _estimate_norm(xhat2_0)
    r = r_guess
    last = None
    count = 0
    for _ in range(max_iters):
        up = jump_up_set(config, r, nrm)
        down = jump_down_set(config, r, nrm)
        if up and last != "down":
            r += 1
            last = "up"
        elif down and last != "up":
            r -= 1
            last = "down"
        else:
            return LogicState(r=r, k_r=schedule.gain(r),
                              jump_count=count, last_jump_time=0.0)
        count += 1
        if events is not None:
            events.append((r - 1 if last == "up" else r + 1, r, nrm))
    raise ValueError("logic index did not settle; inconsistent hybrid configuration")


def velocity_sandwich(eta: float, xhat2) -> tuple[float, float]:
    """Certified bracket for the true speed: (max(0, ||xhat2|| - eta), ||xhat2|| + eta)."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    nrm = _estimate_norm(xhat2)
    return max(0.0, nrm - eta), nrm + eta
