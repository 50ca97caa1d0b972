"""Torque laws used by the scenario suite.

All feedback laws take the observer velocity estimate, never the true joint
velocity; positions are assumed measured.  Each law is written once, as the
text LAW (see `equations`): it sets tau1..taun from the gravity torque
g1..gn, the positions q1..qn, the estimate xh1..xhn, the time t and its
CONSTANTS (the values of `_constants`).  `float_torque(g, q, xhat2, t)`
compiles it for Python floats (the first n entries of g are g(q), as in a
model kernel's terms), and `TorqueLaw.torque`, the one array form of every
law, evaluates it at a model's g(q) once q and xhat2 are n floats and the
law's joint count n is the model's: the rule for whether a law fits a model.
"""
from __future__ import annotations

import numpy as np

from .dynamics import RobotModel
from .equations import compiled, define, joints, names


class TorqueLaw:
    """A torque law of n joints, written as the text LAW, and named `name`."""

    name: str
    n: int
    CONSTANTS: tuple[str, ...] = ()
    _constants: tuple[float, ...] = ()

    # float_torque(g, q, xhat2, t): LAW on Python floats
    float_torque = compiled(lambda cls, n: define(
        "float_torque", "self, g, q, xhat2, t", n,
        {"self._constants": cls.CONSTANTS, f"g[:{n}]": ["g{i}"], "q": ["q{i}"],
         "xhat2": ["xh{i}"]}, joints(cls.LAW, n), f"({names('tau{i}', n=n)})"))

    def torque(self, model: RobotModel, q, xhat2, t) -> np.ndarray:
        """LAW as an array at q, the estimate xhat2 and t, with g(q) from
        `model`.  ValueError when the law's joint count n is not the model's,
        or q or xhat2 is not n floats (a law that reads no estimate too)."""
        if self.n != model.n:
            raise ValueError(f"the {self.name} law has n = {self.n}, the model n = {model.n}")
        q = model._check_joint_vector(q, "q")
        xhat2 = model._check_joint_vector(xhat2, "xhat2").tolist()
        return np.array(self.float_torque(model.gravity(q).tolist(), q.tolist(), xhat2, t))


def _as_gain_vector(k, n: int, name: str) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (n,):
        raise ValueError(f"{name} must be a vector of {n} diagonal entries")
    if not np.all(np.isfinite(k)):
        raise ValueError(f"{name} must be finite")
    if np.any(k <= 0.0):
        raise ValueError(f"{name} diagonal entries must be positive")
    return k


class PdConfig:
    """Diagonal PD gains kp and kd, each the vector of its diagonal entries, and the setpoint."""

    def __init__(self, kp, kd, x_ref):
        self.x_ref = np.asarray(x_ref, dtype=float)
        n = self.x_ref.shape[0]
        self.kp = _as_gain_vector(kp, n, "kp")
        self.kd = _as_gain_vector(kd, n, "kd")


class OpenLoopBounded(TorqueLaw):
    """Gravity compensation plus the bounded profile (cos(t/2), -cos t)."""

    name = "open_loop_1"
    n = 2
    LAW = """
        tau1 = g1 + cos(0.5 * t)
        tau2 = g2 - cos(t)
    """
    # on the class, where the benchmark's tracer wraps it by name
    torque = TorqueLaw.torque


class OpenLoopUnbounded(TorqueLaw):
    """Gravity compensation plus (sin t, 1 + sin 2t); drives speeds unbounded."""

    name = "open_loop_2"
    n = 2
    LAW = """
        tau1 = g1 + sin(t)
        tau2 = g2 + (1.0 + sin(2.0 * t))
    """
    # on the class, where the benchmark's tracer wraps it by name
    torque = TorqueLaw.torque


class PdGravity(TorqueLaw):
    """PD regulation about x_ref with gravity compensation, damping on the estimate."""

    name = "pd"
    # g + Kp (x_ref - q) - Kd xhat2 with diagonal gains
    CONSTANTS = ("kp{i}", "kd{i}", "ref{i}")
    LAW = "tau{i} = g{i} + kp{i} * (ref{i} - q{i}) - kd{i} * xh{i}"
    # on the class, where the benchmark's tracer wraps it by name
    torque = TorqueLaw.torque

    def __init__(self, config: PdConfig):
        self.config = config
        self.n = config.x_ref.shape[0]
        self._constants = (*config.kp.tolist(), *config.kd.tolist(), *config.x_ref.tolist())


class ConstantTorque(TorqueLaw):
    """The constant torque tau, whatever the state."""

    name = "constant"
    CONSTANTS = ("u{i}",)
    LAW = "tau{i} = u{i}"
    # on the class, where the benchmark's tracer wraps it by name
    torque = TorqueLaw.torque

    def __init__(self, tau):
        self.tau = np.asarray(tau, dtype=float)
        self.n = self.tau.size
        self._constants = tuple(np.ravel(self.tau).tolist())
