"""Torque laws used by the scenario suite.

All feedback laws take the observer velocity estimate, never the true joint
velocity; positions are assumed measured.  Each law is defined once, on
Python floats, by its wrapper's `float_torque(g, q, xhat2, t)`, where the
first n entries of g are the gravity torque at q (the simulator passes the
model kernel's terms, which start with it); `torque` wraps it for arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import cos, sin

import numpy as np

from .dynamics import RobotModel


def _two_joint_gravity(model: RobotModel, q) -> list[float]:
    if model.n != 2:
        raise ValueError("open-loop profiles are defined for two-joint models")
    return model.gravity(q).tolist()


def _as_gain_matrix(k, n: int, name: str) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        k = np.diag(k)
    if k.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n} or a length-{n} diagonal")
    if not np.allclose(k, np.diag(np.diagonal(k))):
        raise ValueError(f"{name} must be diagonal")
    if np.any(np.diagonal(k) <= 0.0):
        raise ValueError(f"{name} diagonal entries must be positive")
    return k


@dataclass(frozen=True, eq=False)
class PdConfig:
    """Diagonal PD gains and the position setpoint."""

    kp: np.ndarray
    kd: np.ndarray
    x_ref: np.ndarray

    def __post_init__(self):
        x_ref = np.asarray(self.x_ref, dtype=float)
        n = x_ref.shape[0]
        object.__setattr__(self, "x_ref", x_ref)
        object.__setattr__(self, "kp", _as_gain_matrix(self.kp, n, "kp"))
        object.__setattr__(self, "kd", _as_gain_matrix(self.kd, n, "kd"))

    @cached_property
    def joint_terms(self) -> tuple[tuple[float, float, float], ...]:
        """(kp_i, kd_i, x_ref_i) for each joint, as Python floats."""
        return tuple(zip(np.diagonal(self.kp).tolist(), np.diagonal(self.kd).tolist(),
                         self.x_ref.tolist()))


@dataclass(frozen=True)
class OpenLoopBounded:
    """Gravity compensation plus the bounded profile (cos(t/2), -cos t)."""

    name: str = field(default="open_loop_1", init=False)

    @staticmethod
    def float_torque(g, q, xhat2, t):
        return g[0] + cos(0.5 * t), g[1] - cos(t)

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(_two_joint_gravity(model, q), q, xhat2, t))


@dataclass(frozen=True)
class OpenLoopUnbounded:
    """Gravity compensation plus (sin t, 1 + sin 2t); drives speeds unbounded."""

    name: str = field(default="open_loop_2", init=False)

    @staticmethod
    def float_torque(g, q, xhat2, t):
        return g[0] + sin(t), g[1] + (1.0 + sin(2.0 * t))

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(_two_joint_gravity(model, q), q, xhat2, t))


@dataclass(frozen=True, eq=False)
class PdGravity:
    """PD regulation about x_ref with gravity compensation, damping on the estimate."""

    config: PdConfig
    name: str = field(default="pd", init=False)

    def float_torque(self, g, q, xhat2, t):
        # g + Kp (x_ref - q) - Kd xhat2 with diagonal gains, for one or two joints
        joints = self.config.joint_terms
        if len(joints) == 1:
            (kp, kd, ref), = joints
            return (g[0] + kp * (ref - q[0]) - kd * xhat2[0],)
        (kp1, kd1, ref1), (kp2, kd2, ref2) = joints
        return (g[0] + kp1 * (ref1 - q[0]) - kd1 * xhat2[0],
                g[1] + kp2 * (ref2 - q[1]) - kd2 * xhat2[1])

    def torque(self, model, q, xhat2, t):
        q = model._check_joint_vector(q, "q")
        xhat2 = model._check_joint_vector(xhat2, "xhat2")
        if self.config.x_ref.shape != (model.n,):
            raise ValueError(f"PD setpoint must have {model.n} entries")
        return np.array(self.float_torque(model.gravity(q).tolist(), q.tolist(),
                                          xhat2.tolist(), t))


@dataclass(frozen=True, eq=False)
class ConstantTorque:
    tau: np.ndarray
    name: str = field(default="constant", init=False)

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))

    @cached_property
    def _floats(self) -> tuple[float, ...]:
        return tuple(np.ravel(self.tau).tolist())

    def float_torque(self, g, q, xhat2, t):
        return self._floats

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(None, q, xhat2, t))
