"""Reference computations for the benchmark's correctness checks.

Nothing here imports velobs.  The arm is the thin-rod planar two-link arm
written out from its Lagrangian (links as uniform rods: centre of mass at
mid-length, inertia m l^2 / 12; q1 from the horizontal, q2 relative to link
1, gravity along -y), integrated with scipy's DOP853 at tight tolerance.  The
observer gain is the paper's grid formula

    k(v) = max over q2 of (c0(q) (v + eta) - lambda_min(F)) / lambda_min(M(q)),

floored at 0.01, with closed-form 2x2 eigenvalues, and c0(q) the exact
Coriolis bound max over unit w of ||C(q, w)||.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import solve_ivp

DEFAULT_ARM = {"m1": 10.0, "m2": 20.0, "l1": 1.0, "l2": 1.5,
               "f1": 0.1, "f2": 0.3, "gravity": 9.81}

# Gain floor and design grid of the paper's formula (q2 swept over
# [-pi, pi]; M and c0 do not depend on q1).
K_FLOOR = 0.01
GRID_POINTS = 2048

# Open-loop torque profiles added to gravity compensation.
PROFILES = {
    "open_loop_1": lambda t: (math.cos(0.5 * t), -math.cos(t)),
    "open_loop_2": lambda t: (math.sin(t), 1.0 + math.sin(2.0 * t)),
}


@functools.cache
def _shape_peak() -> float:
    """max over unit w of ||S(w)||_2, S(w) = [[-w2, -(w1 + w2)], [w1, 0]].

    C(q, w) = m2 l1 d2 sin(q2) S(w), so c0(q) = m2 l1 d2 |sin q2| times this.
    """
    def sig2(th):
        w1, w2 = np.cos(th), np.sin(th)
        fro2 = w2 ** 2 + (w1 + w2) ** 2 + w1 ** 2
        det = w1 * (w1 + w2)
        return 0.5 * (fro2 + np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0)))

    # coarse sweep, then a fine sweep over the two cells around its peak
    th = np.linspace(0.0, math.pi, 10_001)
    i = int(np.argmax(sig2(th)))
    fine = np.linspace(th[max(i - 1, 0)], th[min(i + 1, th.size - 1)], 10_001)
    return float(math.sqrt(sig2(fine).max()))


class Arm:
    """Thin-rod two-link arm: M(q) q'' + C(q, q') q' + F q' + g(q) = tau."""

    def __init__(self, m1, m2, l1, l2, f1, f2, gravity):
        d1, d2 = 0.5 * l1, 0.5 * l2
        i1, i2 = m1 * l1 ** 2 / 12.0, m2 * l2 ** 2 / 12.0
        self.a = m1 * d1 ** 2 + i1 + m2 * (l1 ** 2 + d2 ** 2) + i2
        self.b = m2 * d2 ** 2 + i2
        self.h = m2 * l1 * d2
        self.f1, self.f2 = f1, f2
        self.g1 = (m1 * d1 + m2 * l1) * gravity
        self.g2 = m2 * d2 * gravity

    def mass(self, q2):
        """Entries (m11, m12, m22) of M(q); arrays broadcast."""
        c2 = np.cos(q2)
        return self.a + 2.0 * self.h * c2, self.b + self.h * c2, self.b

    def gravity(self, q1, q2):
        c12 = np.cos(q1 + q2)
        return self.g1 * np.cos(q1) + self.g2 * c12, self.g2 * c12

    def lam_min_max(self, q2):
        m11, m12, m22 = self.mass(q2)
        mid = 0.5 * (m11 + m22)
        rad = np.sqrt(0.25 * (m11 - m22) ** 2 + m12 ** 2)
        return mid - rad, mid + rad

    def energy(self, q2, e1, e2):
        """0.5 e^T M(q) e, row-wise."""
        m11, m12, m22 = self.mass(q2)
        return 0.5 * (m11 * e1 * e1 + 2.0 * m12 * e1 * e2 + m22 * e2 * e2)

    def accel(self, q1, q2, w1, w2, tau1, tau2):
        m11, m12, m22 = self.mass(q2)
        hs = self.h * math.sin(q2)
        g1, g2 = self.gravity(q1, q2)
        r1 = tau1 + hs * (2.0 * w1 * w2 + w2 * w2) - self.f1 * w1 - g1
        r2 = tau2 - hs * w1 * w1 - self.f2 * w2 - g2
        det = m11 * m22 - m12 * m12
        return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det

    def design(self, eta: float, speed: float):
        """(k, lambda1, lambda2) of the grid formula for speeds up to `speed`."""
        q2 = np.linspace(-math.pi, math.pi, GRID_POINTS)
        lo, hi = self.lam_min_max(q2)
        c0 = _shape_peak() * self.h * np.abs(np.sin(q2))
        ratio = (c0 * (speed + eta) - min(self.f1, self.f2)) / lo
        return (max(float(ratio.max()), K_FLOOR),
                0.5 * float(lo.min()), 0.5 * float(hi.max()))


def arm_of(spec) -> Arm:
    return Arm(**spec["arm"])


def open_loop_torque(spec, arm: Arm):
    """Torque law tau(t, q1, q2) of an open-loop spec, else None."""
    ctl = spec["controller"]
    if ctl["type"] == "constant":
        tau = ctl["tau"]
        return lambda t, q1, q2: (tau[0], tau[1])
    profile = PROFILES.get(ctl["type"])
    if profile is None:
        return None

    def torque(t, q1, q2):
        g1, g2 = arm.gravity(q1, q2)
        p1, p2 = profile(t)
        return g1 + p1, g2 + p2

    return torque


def plant_reference(spec, t: np.ndarray) -> np.ndarray | None:
    """Open-loop plant (q1, q2, dq1, dq2) sampled at t; None for feedback laws."""
    arm = arm_of(spec)
    torque = open_loop_torque(spec, arm)
    if torque is None:
        return None

    def rhs(tt, x):
        q1, q2, w1, w2 = x
        return (w1, w2, *arm.accel(q1, q2, w1, w2, *torque(tt, q1, q2)))

    x0 = [*spec["q0"], *spec["dq0"]]
    sol = solve_ivp(rhs, (0.0, float(t[-1])), x0, method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.sol(t).T
