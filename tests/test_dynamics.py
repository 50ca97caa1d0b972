"""Structural and numeric properties of the manipulator models."""
from __future__ import annotations

import math

import numpy as np
import pytest

from velobs.dynamics import (
    JOINT_OPS,
    PlantState,
    SingleLinkModel,
    SingularInertiaError,
    TwoLinkArm,
    TwoLinkParams,
    forward_dynamics,
    grid_tables,
    inertia_solver,
    spectral_bounds,
    total_energy,
)

from oracles import TwoLinkOracle, coriolis_norm_samples

# Frozen from the symbolic oracle: alpha = 115/3, beta = 15, coupling = 15,
# so M at q2 = 0 is [[205/3, 30], [30, 15]].
M_AT_ZERO = np.array([[205.0 / 3.0, 30.0], [30.0, 15.0]])
SPECTRAL_LO = 0.7640126724296907
SPECTRAL_HI = 40.90263632876528
UNIT_CORIOLIS_GAIN = 1.6444905289849119


def random_config(rng):
    return rng.uniform(-np.pi, np.pi, size=2)


def test_closed_forms_match_symbolic_oracle(arm, oracle):
    rng = np.random.default_rng(101)
    for _ in range(200):
        q = random_config(rng)
        v = rng.normal(size=2) * 4.0
        assert np.allclose(arm.inertia(q), oracle.inertia(q), atol=1e-11)
        assert np.allclose(arm.coriolis(q, v), oracle.coriolis(q, v), atol=1e-11)
        assert np.allclose(arm.gravity(q), oracle.gravity(q), atol=1e-10)
        assert math.isclose(arm.potential(q), oracle.potential(q), abs_tol=1e-10)


def test_inertia_at_straight_configuration(arm):
    assert np.allclose(arm.inertia(np.zeros(2)), M_AT_ZERO, rtol=0, atol=1e-12)


def test_inertia_even_in_elbow_angle(arm):
    rng = np.random.default_rng(5)
    for _ in range(50):
        q1, q2 = random_config(rng)
        m_plus = arm.inertia(np.array([q1, q2]))
        m_minus = arm.inertia(np.array([q1, -q2]))
        assert np.allclose(m_plus, m_minus, atol=1e-14)


def test_inertia_symmetry_and_positive_definiteness(arm):
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = arm.inertia(random_config(rng))
        assert np.allclose(m, m.T, rtol=1e-12)
        assert np.linalg.eigvalsh(m)[0] > 0.0


def test_inertia_rate_minus_twice_coriolis_is_skew(arm):
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = random_config(rng)
        v = rng.normal(size=2) * 5.0
        eps = rng.normal(size=2)
        s = arm.inertia_rate(q, v) - 2.0 * arm.coriolis(q, v)
        assert abs(eps @ s @ eps) <= 1e-9 * (eps @ eps)


def test_inertia_rate_matches_finite_difference(arm):
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(50):
        q = random_config(rng)
        v = rng.normal(size=2)
        fd = (arm.inertia(q + h * v) - arm.inertia(q - h * v)) / (2.0 * h)
        assert np.allclose(arm.inertia_rate(q, v), fd, atol=1e-7)


def test_coriolis_exchange_identity(arm):
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = random_config(rng)
        u = rng.normal(size=2) * 3.0
        w = rng.normal(size=2) * 3.0
        assert np.allclose(arm.coriolis(q, u) @ w, arm.coriolis(q, w) @ u,
                           atol=1e-12 * (1.0 + abs(u @ w)))


def test_coriolis_vanishes_at_zero_velocity(arm):
    rng = np.random.default_rng(29)
    for _ in range(20):
        assert np.allclose(arm.coriolis(random_config(rng), np.zeros(2)), 0.0)


def test_coriolis_norm_bound_holds_and_is_tight(arm, oracle):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        q = random_config(rng)
        v = rng.normal(size=2) * rng.uniform(0.1, 8.0)
        bound = arm.c0_bound(q) * np.linalg.norm(v)
        norm = np.linalg.svd(arm.coriolis(q, v), compute_uv=False)[0]
        assert norm <= bound + 1e-12
        if bound > 1e-9:
            worst = max(worst, norm / bound)
    assert worst > 0.95
    # independent Monte Carlo confirmation through the oracle dynamics
    ratio = coriolis_norm_samples(oracle, np.random.default_rng(37), 500)
    assert ratio <= 1.0 + 1e-9


def test_unit_coriolis_gain_frozen_value(arm):
    assert math.isclose(arm.c0_max / arm.coupling, UNIT_CORIOLIS_GAIN,
                        rel_tol=1e-12)


def test_gravity_is_potential_gradient(arm):
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(50):
        q = random_config(rng)
        fd = np.array([
            (arm.potential(q + [h, 0.0]) - arm.potential(q - [h, 0.0])) / (2 * h),
            (arm.potential(q + [0.0, h]) - arm.potential(q - [0.0, h])) / (2 * h),
        ])
        assert np.allclose(arm.gravity(q), fd, atol=1e-6)


def test_gravity_zero_hanging_straight_down(arm):
    assert np.allclose(arm.gravity(np.array([-np.pi / 2.0, 0.0])), 0.0,
                       atol=1e-12)


def test_forward_dynamics_rest_equilibrium(arm):
    q = np.array([0.4, -1.1])
    state = PlantState(q, np.zeros(2))
    deriv = forward_dynamics(arm, state, arm.gravity(q))
    assert np.allclose(deriv.x1, 0.0)
    assert np.allclose(deriv.x2, 0.0, atol=1e-12)


def test_forward_dynamics_matches_oracle_acceleration(arm, oracle):
    rng = np.random.default_rng(43)
    for _ in range(25):
        q = random_config(rng)
        v = rng.normal(size=2) * 2.0
        tau = rng.normal(size=2) * 10.0
        acc = forward_dynamics(arm, PlantState(q, v), tau).x2
        rhs = (tau - oracle.coriolis(q, v) @ v - oracle.dissipation @ v
               - oracle.gravity(q))
        expected = np.linalg.solve(oracle.inertia(q), rhs)
        assert np.allclose(acc, expected, atol=1e-10)


def test_inertia_solver_agrees_with_dense_solve():
    rng = np.random.default_rng(47)
    for _ in range(25):
        a = rng.normal(size=(2, 2))
        m = a @ a.T + 0.5 * np.eye(2)
        rhs = rng.normal(size=2)
        assert np.allclose(inertia_solver(m)(rhs), np.linalg.solve(m, rhs),
                           atol=1e-10)


def test_inertia_solver_rejects_degenerate_matrices():
    with pytest.raises(SingularInertiaError):
        inertia_solver(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularInertiaError):
        inertia_solver(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularInertiaError):
        inertia_solver(np.diag([1.0, 1e-15, 1.0]))


def test_joint_vector_shape_is_checked(arm):
    with pytest.raises(ValueError):
        arm.inertia(np.zeros(3))
    with pytest.raises(ValueError):
        arm.coriolis(np.zeros(2), np.zeros(1))


def test_parameter_validation():
    with pytest.raises(ValueError):
        TwoLinkParams(m1=-1.0)
    with pytest.raises(ValueError):
        TwoLinkParams(f2=-0.1)
    with pytest.raises(ValueError):
        SingleLinkModel(inertia_value=0.0)
    with pytest.raises(ValueError):
        SingleLinkModel(damping=-1.0)
    for bad in (dict(m1=np.nan), dict(l2=np.inf), dict(f1=np.nan),
                dict(gravity_accel=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            TwoLinkParams(**bad)
    for bad in (dict(inertia_value=np.nan), dict(damping=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            SingleLinkModel(**bad)


def test_spectral_bounds_frozen_values(arm):
    lo, hi = spectral_bounds(arm)
    assert math.isclose(lo, SPECTRAL_LO, rel_tol=1e-12)
    assert math.isclose(hi, SPECTRAL_HI, rel_tol=1e-12)


def test_spectral_bounds_single_link(single):
    lo, hi = spectral_bounds(single)
    assert lo == hi == single.inertia_value / 2.0


def test_spectral_bounds_match_oracle(arm, oracle):
    lo, hi = spectral_bounds(arm)
    o_lo, o_hi, _ = oracle.design_constants(1.0, 1.5)
    assert math.isclose(lo, o_lo, rel_tol=1e-12)
    assert math.isclose(hi, o_hi, rel_tol=1e-12)


def test_grid_tables_shapes(arm):
    tables = grid_tables(arm)
    assert tables.lam_min.shape == (arm.grid_points,)
    assert np.all(tables.lam_min > 0.0)
    assert np.all(tables.lam_max >= tables.lam_min)
    assert np.all(tables.c0 >= 0.0)


def test_grid_refinement_is_converged(arm):
    fine = TwoLinkArm(grid_points=4096)
    lo, hi = spectral_bounds(arm)
    lo_f, hi_f = spectral_bounds(fine)
    assert abs(lo_f - lo) / lo < 1e-3
    assert abs(hi_f - hi) / hi < 1e-3


def test_total_energy_matches_oracle(arm, oracle):
    rng = np.random.default_rng(53)
    for _ in range(25):
        q = random_config(rng)
        v = rng.normal(size=2)
        e = total_energy(arm, PlantState(q, v))
        expected = 0.5 * v @ oracle.inertia(q) @ v + oracle.potential(q)
        assert math.isclose(e, expected, abs_tol=1e-10)


def test_single_link_model_terms(single):
    q = np.array([0.7])
    v = np.array([-1.3])
    assert np.allclose(single.inertia(q), [[2.5]])
    assert np.allclose(single.coriolis(q, v), 0.0)
    assert np.allclose(single.inertia_rate(q, v), 0.0)
    assert np.allclose(single.gravity(q), 0.0)
    assert single.potential(q) == 0.0
    assert single.c0_bound(q) == 0.0
    assert np.allclose(single.dissipation, [[0.4]])


@pytest.mark.parametrize("n", [1, 2])
def test_joint_ops_are_the_vector_formulas(n):
    ops = JOINT_OPS[n]
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = float(rng.normal() * 10.0)
        x, y = rng.normal(size=n) * 3.0, rng.normal(size=n) * 3.0
        xs, ys = tuple(x.tolist()), tuple(y.tolist())
        # numpy's elementwise float64 arithmetic rounds as Python floats do
        assert ops.axpy(a, xs, ys) == tuple((a * x + y).tolist())
        assert ops.sub(xs, ys) == tuple((x - y).tolist())
        assert ops.scale(a, xs) == tuple((a * x).tolist())
    assert sorted(JOINT_OPS) == [1, 2]
