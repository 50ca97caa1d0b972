"""Reduced-order velocity observer, its gain design, and a full-order baseline.

The reduced observer integrates an internal state z and reconstructs the
velocity estimate as xhat2 = z + k0 * y from the measured positions y.  The
constant gain k0 is sized on a configuration grid so that the estimation
error decays whenever the true speed stays below a design bound v_max and the
error starts inside a computable region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RobotModel

# Positive floor applied to designed gains (the grid formula can go negative
# when dissipation already dominates the Coriolis term).
K_MIN = 0.01


@dataclass
class ObserverState:
    """Internal state z and gain k0 of the reduced-order observer."""

    z: np.ndarray
    k0: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)

    def estimate(self, y) -> np.ndarray:
        """Velocity estimate xhat2 = z + k0 * y."""
        return self.z + self.k0 * np.asarray(y, dtype=float)


@dataclass(frozen=True)
class GainDesign:
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


def reduced_rate(accel, tau, xhat2, k0: float) -> list[float]:
    """dz/dt on Python floats, given the model kernel's `accel` at y.

    Equivalent form of M(y) dz/dt = -C(y, xhat2) xhat2 - F xhat2 - g(y)
    - k0 M(y) xhat2 + tau, with the linear output injection k(y) = k0 y.
    """
    return [a - k0 * w for a, w in zip(accel(tau, xhat2), xhat2)]


def reduced_observer_derivative(model: RobotModel, obs: ObserverState,
                                y: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Time derivative of the observer state z (array wrapper of reduced_rate)."""
    y = model._check_joint_vector(y, "y")
    tau = model._check_joint_vector(tau, "tau")
    _, accel, _ = model.kernel(y.tolist())
    return np.array(reduced_rate(accel, tau.tolist(), obs.estimate(y).tolist(), obs.k0))


def compute_k0(model: RobotModel, eta: float, v_max: float, *,
               k_min: float = K_MIN) -> GainDesign:
    """Size the constant observer gain by maximizing over the design grid.

    k0 = max over grid of (c0(q) (v_max + eta) - lambda_min(F)) / lambda_min(M(q)),
    floored at k_min.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if v_max < 0.0:
        raise ValueError("v_max must be nonnegative")
    tables = model.design_tables
    lam_f = model.dissipation_floor()
    ratios = (tables.c0 * (v_max + eta) - lam_f) / tables.lam_min
    k0 = max(float(ratios.max()), k_min)
    lambda1 = 0.5 * float(tables.lam_min.min())
    lambda2 = 0.5 * float(tables.lam_max.max())
    return GainDesign(eta=eta, v_max=v_max, k0=k0, lambda1=lambda1, lambda2=lambda2)


def compute_k0_conservative(model: RobotModel, eta: float, v_max: float, *,
                            k_min: float = K_MIN) -> GainDesign:
    """Grid-free variant using the uniform bounds c0_max and 2 lambda1.

    Always at least as large as the grid gain, since it replaces the
    numerator by its maximum and the denominator by its minimum.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if v_max < 0.0:
        raise ValueError("v_max must be nonnegative")
    tables = model.design_tables
    lambda1 = 0.5 * float(tables.lam_min.min())
    lambda2 = 0.5 * float(tables.lam_max.max())
    lam_f = model.dissipation_floor()
    k0 = max((model.c0_max * (v_max + eta) - lam_f) / (2.0 * lambda1), k_min)
    return GainDesign(eta=eta, v_max=v_max, k0=k0, lambda1=lambda1, lambda2=lambda2)


def convergence_rate(design: GainDesign, eps_max: float) -> float:
    """Guaranteed exponential rate for errors bounded by eps_max.

    Positive only while eps_max is small enough relative to the design margin.
    """
    if eps_max < 0.0:
        raise ValueError("eps_max must be nonnegative")
    return design.eta - math.sqrt(design.lambda2 / design.lambda1) * eps_max


@dataclass
class FullOrderObserverState:
    """States and gains of the classical full-order position+velocity observer."""

    x1_hat: np.ndarray
    x2_hat: np.ndarray
    kd: float
    kp: float

    def __post_init__(self):
        self.x1_hat = np.asarray(self.x1_hat, dtype=float)
        self.x2_hat = np.asarray(self.x2_hat, dtype=float)


def full_rate(accel, tau, y, x1_hat, x2_hat, kd: float, kp: float
              ) -> tuple[list[float], tuple[float, ...]]:
    """(dx1_hat, dx2_hat) on Python floats, given the model kernel's `accel` at y.

    Copies the plant model and injects the position innovation e = y - x1_hat
    into both equations:

        dx1_hat = x2_hat + kd e
        M(y) dx2_hat = -C(y, x2_hat) x2_hat - F x2_hat - g(y) + tau + kp e
    """
    e = [a - b for a, b in zip(y, x1_hat)]
    return ([w + kd * ei for w, ei in zip(x2_hat, e)],
            accel(tau, x2_hat, [kp * ei for ei in e]))


def full_order_observer_derivative(model: RobotModel, obs: FullOrderObserverState,
                                   y: np.ndarray, tau: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives (dx1_hat, dx2_hat) of the full-order baseline observer
    (array wrapper of full_rate)."""
    y = model._check_joint_vector(y, "y")
    tau = model._check_joint_vector(tau, "tau")
    _, accel, _ = model.kernel(y.tolist())
    d1, d2 = full_rate(accel, tau.tolist(), y.tolist(), obs.x1_hat.tolist(),
                       obs.x2_hat.tolist(), obs.kd, obs.kp)
    return np.array(d1), np.array(d2)
