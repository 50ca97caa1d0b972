"""Torque laws used by the scenario suite.

All feedback laws take the observer velocity estimate, never the true joint
velocity; positions are assumed measured.  Each law is written once, as the
text LAW (see `equations`): it sets tau1..taun from the gravity torque
g1..gn, the positions q1..qn, the estimate xh1..xhn, the time t and its
CONSTANTS (the values of `_constants`).  `float_torque(g, q, xhat2, t)`
compiles it for Python floats (the first n entries of g are g(q), as in a
model kernel's terms) and `torque` wraps that for arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import RobotModel
from .equations import compiled, define, joints, names


def _two_joint_gravity(model: RobotModel, q) -> list[float]:
    if model.n != 2:
        raise ValueError("open-loop profiles are defined for two-joint models")
    return model.gravity(q).tolist()


class TorqueLaw:
    """A torque law of n joints, written as the text LAW."""

    CONSTANTS: tuple[str, ...] = ()
    _constants: tuple[float, ...] = ()

    # float_torque(g, q, xhat2, t): LAW on Python floats
    float_torque = compiled(lambda cls, n: define(
        "float_torque", "self, g, q, xhat2, t", n,
        {"self._constants": cls.CONSTANTS, f"g[:{n}]": ["g{i}"], "q": ["q{i}"],
         "xhat2": ["xh{i}"]}, joints(cls.LAW, n), f"({names('tau{i}', n=n)})"))


def _as_gain_matrix(k, n: int, name: str) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        k = np.diag(k)
    if k.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n} or a length-{n} diagonal")
    if not np.all(np.isfinite(k)):
        raise ValueError(f"{name} must be finite")
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


@dataclass(frozen=True)
class OpenLoopBounded(TorqueLaw):
    """Gravity compensation plus the bounded profile (cos(t/2), -cos t)."""

    name: str = field(default="open_loop_1", init=False)

    n = 2
    LAW = """
        tau1 = g1 + cos(0.5 * t)
        tau2 = g2 - cos(t)
    """

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(_two_joint_gravity(model, q), q, xhat2, t))


@dataclass(frozen=True)
class OpenLoopUnbounded(TorqueLaw):
    """Gravity compensation plus (sin t, 1 + sin 2t); drives speeds unbounded."""

    name: str = field(default="open_loop_2", init=False)

    n = 2
    LAW = """
        tau1 = g1 + sin(t)
        tau2 = g2 + (1.0 + sin(2.0 * t))
    """

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(_two_joint_gravity(model, q), q, xhat2, t))


@dataclass(frozen=True, eq=False)
class PdGravity(TorqueLaw):
    """PD regulation about x_ref with gravity compensation, damping on the estimate."""

    config: PdConfig
    name: str = field(default="pd", init=False)

    # g + Kp (x_ref - q) - Kd xhat2 with diagonal gains
    CONSTANTS = ("kp{i}", "kd{i}", "ref{i}")
    LAW = "tau{i} = g{i} + kp{i} * (ref{i} - q{i}) - kd{i} * xh{i}"

    @property
    def n(self) -> int:
        return self.config.x_ref.shape[0]

    @cached_property
    def _constants(self) -> tuple[float, ...]:
        cfg = self.config
        return (*np.diagonal(cfg.kp).tolist(), *np.diagonal(cfg.kd).tolist(),
                *cfg.x_ref.tolist())

    def torque(self, model, q, xhat2, t):
        q = model._check_joint_vector(q, "q")
        xhat2 = model._check_joint_vector(xhat2, "xhat2")
        if self.config.x_ref.shape != (model.n,):
            raise ValueError(f"PD setpoint must have {model.n} entries")
        return np.array(self.float_torque(model.gravity(q).tolist(), q.tolist(),
                                          xhat2.tolist(), t))


@dataclass(frozen=True, eq=False)
class ConstantTorque(TorqueLaw):
    tau: np.ndarray
    name: str = field(default="constant", init=False)

    CONSTANTS = ("u{i}",)
    LAW = "tau{i} = u{i}"

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))

    @property
    def n(self) -> int:
        return self.tau.size

    @cached_property
    def _constants(self) -> tuple[float, ...]:
        return tuple(np.ravel(self.tau).tolist())

    def torque(self, model, q, xhat2, t):
        return np.array(self.float_torque(None, q, xhat2, t))
