r"""Rigid-manipulator dynamics with a skew-symmetry-preserving Coriolis term.

Models expose the matrices of

    M(q) \ddot q + C(q, \dot q) \dot q + F \dot q + g(q) = tau

together with a configuration-dependent norm bound c0(q) satisfying
||C(q, v)|| <= c0(q) ||v||.  The Coriolis matrix is assembled from Christoffel
symbols of the first kind, which gives two structural identities relied on
throughout the package:

  * dM/dt - 2 C(q, \dot q) is skew symmetric,
  * C(q, u) w = C(q, w) u for all u, w.

Besides these array methods, every model writes its equations of motion
once, as text (see `equations`), compiled on first use into `kernel(q)`, the
configuration terms at q as one flat tuple of floats, and `accel(terms, tau,
w, extra)` and `energy(terms, w)`, which evaluate
M(q)^-1 (tau - C(q, w) w - F w - g(q) + extra) and 0.5 w^T M(q) w from them;
the simulator inlines the same text.  The kernel checks nothing: a model
bounds the conditioning of M(q) over every q when it is constructed
(SingularInertiaError), so the integration loop never has to.

Planar two-link convention: the arm moves in a vertical plane, q1 is measured
counterclockwise from the horizontal axis, q2 is the second joint angle
relative to link 1, and gravity acts along -y.  Links are modeled as thin
uniform rods (center of mass at mid-length, barycentric inertia m L^2 / 12).
"""
from __future__ import annotations

import math
import types
from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .equations import ARRAYS, NAMESPACE, compiled, define, joints, names

# Conditioning limit above which the inertia matrix is treated as singular.
INERTIA_COND_LIMIT = 1e12

# Distinct models whose design tables are kept (about 50 KB each at the
# arm's 2048 grid points).
DESIGN_TABLES_CACHE = 16


# An extra torque x1..xn enters the residual last: M(q) acc = r + x.
INJECT = "r{i} += x{i}"


class SingularInertiaError(RuntimeError):
    """Raised when the inertia matrix is numerically singular."""


class PlantState:
    """Joint positions x1 (rad) and joint velocities x2 (rad/s)."""

    def __init__(self, x1, x2):
        self.x1 = np.asarray(x1, dtype=float)
        self.x2 = np.asarray(x2, dtype=float)
        if self.x1.ndim != 1 or self.x1.shape != self.x2.shape:
            raise ValueError("x1 and x2 must be 1-D arrays of equal length")


class RobotModel(ABC):
    """Provider of the manipulator matrices and the Coriolis norm bound."""

    n: int

    def inertia(self, q: np.ndarray) -> np.ndarray:
        """Symmetric positive definite inertia matrix M(q) (inertia_stack of one q)."""
        return self.inertia_stack(self.kernel(self._check_joint_vector(q, "q").tolist()), 1)[0]

    @abstractmethod
    def inertia_rate(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Time derivative of M along q with velocity v."""

    @abstractmethod
    def coriolis(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Christoffel Coriolis matrix C(q, v)."""

    def gravity(self, q: np.ndarray) -> np.ndarray:
        """Gravity torque vector g(q), the kernel's first n terms."""
        return np.array(self.kernel(self._check_joint_vector(q, "q").tolist())[:self.n])

    @abstractmethod
    def potential(self, q: np.ndarray) -> float:
        """Gravitational potential energy whose gradient is gravity(q)."""

    @abstractmethod
    def c0(self, q, ns=NAMESPACE) -> float:
        """c0_bound(q) for q n floats, unchecked, or n float arrays in ns = ARRAYS."""

    @property
    @abstractmethod
    def dissipation(self) -> np.ndarray:
        """Viscous friction matrix F (F + F^T positive semidefinite)."""

    @abstractmethod
    def design_grid(self) -> np.ndarray:
        """Configurations (rows) used for extremal gain and eigenvalue searches."""

    # The equations of motion as text (see `equations`).  KERNEL sets the
    # TERMS (the first n are the gravity torque g1..gn) from q1..qn and the
    # CONSTANTS, the values of `_constants`; RESIDUAL sets r1..rn = tau - C(q, w) w
    # - F w - g(q) from the terms, tau1..taun and w1..wn; SOLVE sets
    # acc1..accn = M(q)^-1 r; ENERGY sets energy = 0.5 w^T M(q) w.  INERTIA
    # names the n * n TERMS that are the entries of M(q), row by row.
    CONSTANTS: tuple[str, ...]
    TERMS: tuple[str, ...]
    INERTIA: tuple[str, ...]
    KERNEL: str
    RESIDUAL: str
    SOLVE: str
    ENERGY: str

    # kernel(q): the TERMS at q, a flat tuple of floats, unchecked (the
    # constructor has bounded the conditioning of M over all q)
    kernel = compiled(lambda cls, n: define(
        "kernel", "self, q", n, {"self._constants": cls.CONSTANTS, "q": ["q{i}"]},
        joints(cls.KERNEL, n), f"({names(*cls.TERMS, n=n)})"))
    # accel(terms, tau, w, extra=None): M(q)^-1 (tau - C(q, w) w - F w - g(q) + extra)
    accel = compiled(lambda cls, n: staticmethod(define(
        "accel", "terms, tau, w, extra=None", n,
        {"terms": cls.TERMS, "tau": ["tau{i}"], "w": ["w{i}"]},
        [*joints(cls.RESIDUAL, n), "if extra is not None:", f"    {names('x{i}', n=n)}= extra",
         *(f"    {line}" for line in joints(INJECT, n)), *joints(cls.SOLVE, n)],
        f"({names('acc{i}', n=n)})")))
    # energy(terms, w): 0.5 w^T M(q) w
    energy = compiled(lambda cls, n: staticmethod(define(
        "energy", "terms, w", n, {"terms": cls.TERMS, "w": ["w{i}"]},
        joints(cls.ENERGY, n), "energy")))

    def inertia_stack(self, terms, rows: int) -> np.ndarray:
        """M(q), (rows, n, n), from the kernel's terms at `rows` configurations."""
        m = np.empty((rows, self.n * self.n))
        for j, name in enumerate(self.INERTIA):
            m[:, j] = terms[self.TERMS.index(name)]     # a float term (c = beta) broadcasts
        return m.reshape(rows, self.n, self.n)

    def c0_bound(self, q) -> float:
        """Configuration-dependent bound with ||C(q, v)|| <= c0(q) ||v||."""
        return self.c0(self._check_joint_vector(q, "q").tolist())

    def _check_joint_vector(self, x, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"{name} must have shape ({self.n},), got {x.shape}")
        return x


# Peak over unit velocities v of the spectral norm of the two-link Coriolis
# factor [[-v2, -(v1 + v2)], [v1, 0]]: C(q, v) is coupling sin(q2) times that
# matrix, so c0_max = UNIT_CORIOLIS_GAIN * coupling is the tight c0 constant.
# tests/test_dynamics.py derives it (a dense scan refined by golden-section
# search) and checks that it equals this value bit for bit.
UNIT_CORIOLIS_GAIN = 1.6444905289849119


def _check_conditioning(lam_min: float, lam_max: float) -> None:
    # written to fail on NaN: terms that overflow to inf give lam_min = nan
    if not (lam_min > 0.0 and lam_max <= INERTIA_COND_LIMIT * lam_min):
        raise SingularInertiaError(
            f"inertia matrix is numerically singular (eigs {lam_min:g}, {lam_max:g})")


def _spd2_determinant(a: float, b: float, c: float) -> float:
    """Determinant of [[a, b], [b, c]] after its closed-form conditioning check."""
    # lambda_min as det / lambda_max: 0.5 (tr - disc) would cancel near the limit
    det = a * c - b * b
    lam_max = 0.5 * (a + c + math.sqrt(max((a - c) ** 2 + 4.0 * b * b, 0.0)))
    # an inertia that underflows to zero is singular, not a division by zero
    _check_conditioning(det / lam_max if lam_max else 0.0, lam_max)
    return det


@dataclass(frozen=True)
class TwoLinkParams:
    """Thin-rod planar two-link arm parameters (masses kg, lengths m, damping kg/s)."""

    m1: float = 10.0
    m2: float = 20.0
    l1: float = 1.0
    l2: float = 1.5
    f1: float = 0.1
    f2: float = 0.3
    gravity_accel: float = 9.81

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("arm parameters must be finite")
        if min(self.m1, self.m2, self.l1, self.l2) <= 0.0:
            raise ValueError("masses and lengths must be positive")
        if self.f1 < 0.0 or self.f2 < 0.0:
            raise ValueError("viscous coefficients must be nonnegative")


@dataclass(frozen=True)
class TwoLinkArm(RobotModel):
    """Planar two-link arm in a vertical plane with viscous joint friction."""

    params: TwoLinkParams = field(default_factory=TwoLinkParams)

    n = 2
    GRID_POINTS = 2048      # rows of the gain-design grid, q2 in [-pi, pi]

    @cached_property
    def coupling(self) -> float:
        # coefficient of the cos/sin(q2) terms in M and C
        return self._constants[2]

    @cached_property
    def c0_max(self) -> float:
        return UNIT_CORIOLIS_GAIN * self.coupling

    @cached_property
    def dissipation(self) -> np.ndarray:
        return np.diag([self.params.f1, self.params.f2])

    @cached_property
    def _constants(self) -> tuple[float, ...]:
        # alpha, beta, coupling and the two gravity coefficients of thin
        # uniform rods (center of mass at mid-length d, inertia m l^2 / 12),
        # then the viscous coefficients
        p = self.params
        d1, d2 = 0.5 * p.l1, 0.5 * p.l2
        i1, i2 = p.m1 * p.l1 ** 2 / 12.0, p.m2 * p.l2 ** 2 / 12.0
        return (p.m1 * d1 ** 2 + i1 + p.m2 * (p.l1 ** 2 + d2 ** 2) + i2,
                p.m2 * d2 ** 2 + i2, p.m2 * p.l1 * d2,
                (p.m1 * d1 + p.m2 * p.l1) * p.gravity_accel, p.m2 * d2 * p.gravity_accel,
                p.f1, p.f2)

    def __post_init__(self):
        # M(q) depends on q only through cos q2, and affinely, so on [-1, 1]
        # lambda_min is concave, lambda_max convex and their ratio
        # quasi-convex: the worst conditioning of any q is at cos q2 = +1 or
        # -1, and checking both bounds it everywhere.
        try:
            for q2 in (0.0, math.pi):
                _spd2_determinant(*self.kernel((0.0, q2))[2:5])
        except OverflowError:
            raise ValueError("arm parameters overflow the inertia terms") from None

    # on the class, where the benchmark's tracer wraps them by name
    inertia = RobotModel.inertia
    gravity = RobotModel.gravity

    def inertia_rate(self, q, v) -> np.ndarray:
        q = self._check_joint_vector(q, "q")
        v = self._check_joint_vector(v, "v")
        hd = -self.coupling * math.sin(q[1]) * v[1]
        return np.array([[2.0 * hd, hd], [hd, 0.0]])

    def coriolis(self, q, v) -> np.ndarray:
        q = self._check_joint_vector(q, "q")
        v = self._check_joint_vector(v, "v")
        h = self.kernel(q)[6]
        return np.array([[-h * v[1], -h * (v[0] + v[1])],
                         [h * v[0], 0.0]])

    # g = (g1, g2), M = [[a, b], [b, c]] with det M, the Coriolis factor
    # h = coupling sin q2, so that C(q, w) = h [[-w2, -(w1 + w2)], [w1, 0]]
    # as in coriolis(), and F = diag(f1, f2)
    CONSTANTS = ("alpha", "beta", "coupling", "a1", "a2", "f1", "f2")
    TERMS = ("g1", "g2", "a", "b", "c", "det", "h", "f1", "f2")
    INERTIA = ("a", "b", "b", "c")
    KERNEL = """
        c2 = cos(q2)
        c12 = cos(q1 + q2)
        a = alpha + 2.0 * coupling * c2
        b = beta + coupling * c2
        c = beta
        det = a * beta - b * b
        g1 = a1 * cos(q1) + a2 * c12
        g2 = a2 * c12
        h = coupling * sin(q2)
    """
    RESIDUAL = """
        r1 = tau1 - (-h * w2 * w1 + -h * (w1 + w2) * w2) - f1 * w1 - g1
        r2 = tau2 - h * w1 * w1 - f2 * w2 - g2
    """
    SOLVE = """
        acc1 = (c * r1 - b * r2) / det
        acc2 = (a * r2 - b * r1) / det
    """
    ENERGY = "energy = 0.5 * ((w1 * a + w2 * b) * w1 + (w1 * b + w2 * c) * w2)"

    def potential(self, q) -> float:
        q = self._check_joint_vector(q, "q")
        a1, a2 = self._constants[3:5]
        return a1 * math.sin(q[0]) + a2 * math.sin(q[0] + q[1])

    def c0(self, q, ns=NAMESPACE) -> float:
        return self.c0_max * abs(ns["sin"](q[1]))

    def design_grid(self) -> np.ndarray:
        # M, c0 and g depend on q2 only up to the q1 terms of gravity, and the
        # extremal searches only involve M and c0, so a 1-D sweep suffices.
        q2 = np.linspace(-np.pi, np.pi, self.GRID_POINTS)
        return np.column_stack([np.zeros_like(q2), q2])


@dataclass(frozen=True)
class SingleLinkModel(RobotModel):
    """Constant-inertia single-joint model; its dynamics are exactly linear."""

    inertia_value: float = 1.0
    damping: float = 0.0

    n = 1

    def __post_init__(self):
        if not (self.inertia_value > 0.0 and math.isfinite(self.inertia_value)):
            raise ValueError("inertia must be positive and finite")
        if not (self.damping >= 0.0 and math.isfinite(self.damping)):
            raise ValueError("damping must be nonnegative and finite")

    def inertia_rate(self, q, v) -> np.ndarray:
        self._check_joint_vector(q, "q")
        return np.zeros((1, 1))

    def coriolis(self, q, v) -> np.ndarray:
        self._check_joint_vector(q, "q")
        self._check_joint_vector(v, "v")
        return np.zeros((1, 1))

    def potential(self, q) -> float:
        self._check_joint_vector(q, "q")
        return 0.0

    def c0(self, q, ns=NAMESPACE) -> float:
        return 0.0

    @property
    def dissipation(self) -> np.ndarray:
        return np.array([[self.damping]])

    def design_grid(self) -> np.ndarray:
        return np.zeros((1, 1))

    # constant inertia m and damping d, no gravity
    CONSTANTS = ("m", "d")
    TERMS = ("g1", "m", "d")
    INERTIA = ("m",)
    KERNEL = "g1 = 0.0"
    RESIDUAL = "r1 = tau1 - d * w1"
    SOLVE = "acc1 = r1 / m"
    ENERGY = "energy = 0.5 * (w1 * m * w1)"

    @property
    def _constants(self) -> tuple[float, float]:
        return self.inertia_value, self.damping


def inertia_solver(m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return a dense solver for M x = rhs after a conditioning check."""
    w = np.linalg.eigvalsh(m)
    _check_conditioning(w[0], w[-1])
    return lambda rhs: np.linalg.solve(m, rhs)


class GridTables(NamedTuple):
    """What the gain design reads from a model: per-grid-row tables and three constants."""

    lam_min: np.ndarray
    lam_max: np.ndarray
    c0: np.ndarray
    lambda1: float      # lambda1 ||e||^2 <= e^T M(q) e / 2 <= lambda2 ||e||^2 on the grid
    lambda2: float
    floor: float        # the smallest eigenvalue of F's symmetric part


def grid_tables(model: RobotModel) -> GridTables:
    """Evaluate the design's tables and constants over the model's design grid."""
    # the kernel's code and c0 in ARRAYS, once over the grid's columns (each
    # entry the float kernel's at its row), the eigenvalues in one batched call
    q = model.design_grid().T
    with np.errstate(over="ignore", invalid="ignore"):  # g(q) may overflow: the design reads M(q)
        terms = types.FunctionType(type(model).kernel.__code__, ARRAYS)(model, q)
    w = np.linalg.eigvalsh(model.inertia_stack(terms, q.shape[1]))
    c0 = np.full(q.shape[1], model.c0(q, ARRAYS))
    # F's symmetric part as F + (F^T - F) / 2: no F + F^T to overflow
    f = model.dissipation
    floor = float(np.linalg.eigvalsh(f + 0.5 * (f.T - f))[0])
    return GridTables(w[:, 0].copy(), w[:, -1].copy(), c0,
                      0.5 * float(w[:, 0].min()), 0.5 * float(w[:, -1].max()), floor)


@lru_cache(maxsize=DESIGN_TABLES_CACHE)
def design_tables(model: RobotModel) -> GridTables:
    """grid_tables(model), built once per distinct model: models are frozen
    dataclasses compared by value, so equal models (same class and
    parameters) share one build, read-only, since every caller gets it."""
    tables = grid_tables(model)
    for table in tables[:3]:        # the arrays; the constants are floats
        table.flags.writeable = False
    return tables


def total_energy(model: RobotModel, state: PlantState) -> float:
    """Kinetic plus potential energy of the plant (the kernel's energy form)."""
    terms = model.kernel(model._check_joint_vector(state.x1, "x1").tolist())
    return model.energy(terms, state.x2.tolist()) + model.potential(state.x1)
