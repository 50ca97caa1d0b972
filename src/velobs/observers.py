"""Reduced-order velocity observer, its gain design, and a full-order baseline.

The reduced observer integrates an internal state z and reconstructs the
velocity estimate as xhat2 = z + k0 * y from the measured positions y.  The
constant gain k0 is sized on a configuration grid so that the estimation
error decays whenever the true speed stays below a design bound v_max and the
error starts inside a computable region.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .dynamics import RobotModel, design_tables
from .equations import define, joints, names

# Positive floor applied to designed gains (the grid formula can go negative
# when dissipation already dominates the Coriolis term).
K_MIN = 0.01


def check_gain(k: float, name: str) -> float:
    """k, checked to be positive with a finite square (the full observer's kp is k * k)."""
    if not (k > 0.0 and math.isfinite(k * k)):
        raise ValueError(f"{name} must be positive with a finite square, got {k:g}")
    return k


class GainDesign(NamedTuple):
    """Designed observer gain together with the spectral constants behind it."""

    eta: float
    v_max: float
    k0: float
    lambda1: float
    lambda2: float

    @property
    def region_radius(self) -> float:
        """Radius of the guaranteed error-decay region, eta * sqrt(lambda1/lambda2)."""
        return self.eta * math.sqrt(self.lambda1 / self.lambda2)


# The observers' equations as text (see `equations`), on the positions q.
# The reduced observer's estimate xhat2 = z + k y; its rate dz/dt = -k xhat2
# + acc, with acc the model's accel at w = xhat2 (the equivalent form of
# M dz/dt = -C(y, xhat2) xhat2 - F xhat2 - g(y) - k M xhat2 + tau); and z
# re-based to the gain k, keeping the estimate across a gain change.
ESTIMATE = "est{i} = k * q{i} + z{i}"
REDUCED = "dz{i} = -k * est{i} + acc{i}"
REBASE = "z{i} = -k * q{i} + est{i}"
# The full-order observer on (x1_hat, x2_hat) = (ph, vh): the innovation
# e = y - x1_hat gives dx1_hat = x2_hat + kd e, and x = kp e is the extra
# torque of the model's accel at w = x2_hat.
FULL = """
    e{i} = q{i} - ph{i}
    dph{i} = kd * e{i} + vh{i}
    x{i} = kp * e{i}
"""


@functools.cache
def _rates(n: int):
    """REDUCED and FULL compiled for n joints."""
    reduced = define("reduced", "acc, est, k", n, {"acc": ["acc{i}"], "est": ["est{i}"]},
                     joints(REDUCED, n), f"({names('dz{i}', n=n)})")
    full = define("full", "q, ph, vh, kd, kp", n,
                  {"q": ["q{i}"], "ph": ["ph{i}"], "vh": ["vh{i}"]}, joints(FULL, n),
                  f"({names('dph{i}', n=n)}), ({names('x{i}', n=n)})")
    return reduced, full


def reduced_rate(model: RobotModel, terms, tau, xhat2, k0: float) -> tuple[float, ...]:
    """dz/dt (REDUCED) on Python floats, from the model's kernel terms at y."""
    return _rates(model.n)[0](model.accel(terms, tau, xhat2), xhat2, k0)


def compute_k0(model: RobotModel, eta: float, v_max: float) -> GainDesign:
    """Size the constant observer gain by maximizing over the design grid.

    k0 = max over grid of (c0(q) (v_max + eta) - lambda_min(F)) / lambda_min(M(q)),
    floored at K_MIN.  This is the one gain formula: the scheduled gain of
    mode r is this gain at v_max = r * v_bar (hybrid_logic.compute_kr).
    """
    if eta <= 0.0 or v_max < 0.0:
        raise ValueError("eta must be positive" if eta <= 0.0 else "v_max must be nonnegative")
    tables = design_tables(model)
    # a speed bound near the float limit overflows here; check_gain refuses
    # the gain that comes out, so numpy's warning would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (tables.c0 * (v_max + eta) - tables.floor) / tables.lam_min
    k0 = check_gain(max(float(ratios.max()), K_MIN), "designed gain k0")
    return GainDesign(eta, v_max, k0, tables.lambda1, tables.lambda2)


def full_rate(model: RobotModel, terms, tau, y, x1_hat, x2_hat, kd: float, kp: float
              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(dx1_hat, dx2_hat) (FULL) on Python floats, from the model's kernel terms at y."""
    dx1, extra = _rates(model.n)[1](y, x1_hat, x2_hat, kd, kp)
    return dx1, model.accel(terms, tau, x2_hat, extra)

