"""Gain design and observer derivative tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from velobs.dynamics import (PlantState, SingleLinkModel, TwoLinkArm, forward_dynamics,
                             inertia_solver)
from velobs.observers import (
    K_MIN,
    FullOrderObserverState,
    ObserverState,
    compute_k0,
    compute_k0_conservative,
    convergence_rate,
    full_order_observer_derivative,
    full_rate,
    reduced_observer_derivative,
    reduced_rate,
)

# Frozen gain-design constants for the two-link arm, eta = 1.
K0_SLOW = 13.35798304843369        # v_max = 1.5
K0_FAST = 37.46755075659672        # v_max = 6.0
K0_CONSERVATIVE = 40.29278378402821
REGION_RADIUS = 0.13667045197664296


def test_estimate_is_affine_in_output():
    obs = ObserverState(z=np.array([1.0, -2.0]), k0=3.0)
    assert np.allclose(obs.estimate([0.5, 0.25]), [2.5, -1.25])


def test_frozen_design_constants(arm, design15):
    assert math.isclose(design15.k0, K0_SLOW, rel_tol=1e-12)
    assert math.isclose(design15.region_radius, REGION_RADIUS, rel_tol=1e-12)
    fast = compute_k0(arm, 1.0, 6.0)
    assert math.isclose(fast.k0, K0_FAST, rel_tol=1e-12)
    cons = compute_k0_conservative(arm, 1.0, 1.5)
    assert math.isclose(cons.k0, K0_CONSERVATIVE, rel_tol=1e-12)


def test_design_matches_independent_oracle(arm, design15, oracle):
    lo, hi, k0 = oracle.design_constants(1.0, 1.5, arm.grid_points)
    assert math.isclose(design15.lambda1, lo, rel_tol=1e-12)
    assert math.isclose(design15.lambda2, hi, rel_tol=1e-12)
    # the oracle's unit-circle sweep is sampled, so only ~1e-9 agreement
    assert math.isclose(design15.k0, k0, rel_tol=1e-8)


def test_gain_monotone_in_speed_envelope_and_eta(arm):
    k_a = compute_k0(arm, 1.0, 1.5).k0
    k_b = compute_k0(arm, 1.0, 3.0).k0
    k_c = compute_k0(arm, 1.0, 6.0).k0
    assert k_a < k_b < k_c
    assert compute_k0(arm, 0.5, 1.5).k0 < k_a < compute_k0(arm, 2.0, 1.5).k0


def test_conservative_gain_dominates_grid_gain(arm):
    for eta, v_max in [(1.0, 0.0), (1.0, 1.5), (0.3, 4.0), (2.0, 6.0)]:
        grid = compute_k0(arm, eta, v_max)
        cons = compute_k0_conservative(arm, eta, v_max)
        assert cons.k0 >= grid.k0
        assert cons.lambda1 == grid.lambda1
        assert cons.lambda2 == grid.lambda2


def test_gain_clamped_for_heavily_damped_model():
    # no Coriolis term and strong friction push the formula negative
    model = SingleLinkModel(inertia_value=1.0, damping=1.0)
    assert compute_k0(model, 1.0, 1.5).k0 == K_MIN
    assert compute_k0_conservative(model, 1.0, 1.5).k0 == K_MIN


def test_design_input_validation(arm, design15):
    with pytest.raises(ValueError):
        compute_k0(arm, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_k0(arm, 1.0, -0.5)
    with pytest.raises(ValueError):
        compute_k0_conservative(arm, -1.0, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(design15, -1e-9)


def test_convergence_rate_endpoints(design15):
    eta = design15.eta
    assert convergence_rate(design15, 0.0) == pytest.approx(eta)
    assert convergence_rate(design15, design15.region_radius) == pytest.approx(0.0, abs=1e-12)
    assert convergence_rate(design15, design15.region_radius / 2.0) == pytest.approx(eta / 2.0)


def test_error_dynamics_identity(arm):
    """The estimation-error derivative collapses to a linear form in the error.

    d eps/dt = -k0 eps - M(y)^-1 (C(y, x2) + C(y, xhat2) + F) eps, with the
    torque and gravity cancelling exactly.
    """
    rng = np.random.default_rng(61)
    k0 = 4.0
    for _ in range(50):
        y = rng.uniform(-np.pi, np.pi, size=2)
        x2 = rng.normal(size=2) * 3.0
        z = rng.normal(size=2)
        tau = rng.normal(size=2) * 20.0
        obs = ObserverState(z=z, k0=k0)
        xhat2 = obs.estimate(y)
        eps = x2 - xhat2

        plant_acc = forward_dynamics(arm, PlantState(y, x2), tau).x2
        est_rate = reduced_observer_derivative(arm, obs, y, tau) + k0 * x2
        lhs = plant_acc - est_rate

        solve = inertia_solver(arm.inertia(y))
        coupling = (arm.coriolis(y, x2) + arm.coriolis(y, xhat2)
                    + arm.dissipation) @ eps
        rhs = -k0 * eps - solve(coupling)
        assert np.allclose(lhs, rhs, atol=1e-10)

        # torque independence: shifting tau leaves the error derivative alone
        shifted = (forward_dynamics(arm, PlantState(y, x2), tau + 7.0).x2
                   - reduced_observer_derivative(arm, obs, y, tau + 7.0)
                   - k0 * x2)
        assert np.allclose(shifted, lhs, atol=1e-10)


def test_full_order_derivative_single_link(single):
    obs = FullOrderObserverState(x1_hat=np.array([0.2]), x2_hat=np.array([-0.8]),
                                 kd=5.0, kp=25.0)
    y = np.array([0.5])
    tau = np.array([0.7])
    d1, d2 = full_order_observer_derivative(single, obs, y, tau)
    e = 0.5 - 0.2
    assert np.allclose(d1, [-0.8 + 5.0 * e])
    assert np.allclose(d2, [(-0.4 * -0.8 + 0.7 + 25.0 * e) / 2.5])


def test_full_order_derivative_matches_plant_when_synchronized(arm):
    # with zero innovation the observer copies the plant vector field
    rng = np.random.default_rng(67)
    q = rng.uniform(-np.pi, np.pi, size=2)
    v = rng.normal(size=2)
    tau = rng.normal(size=2) * 5.0
    obs = FullOrderObserverState(x1_hat=q, x2_hat=v, kd=3.0, kp=9.0)
    d1, d2 = full_order_observer_derivative(arm, obs, q, tau)
    plant = forward_dynamics(arm, PlantState(q, v), tau)
    assert np.allclose(d1, plant.x1)
    assert np.allclose(d2, plant.x2, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_observer_rates_are_the_vector_formulas(n):
    # the per-joint text written out for n joints is the vector formula:
    # numpy's elementwise float64 arithmetic rounds as Python floats do
    model = TwoLinkArm() if n == 2 else SingleLinkModel(2.5, 0.4)
    rng = np.random.default_rng(n)
    for _ in range(20):
        k, kd, kp = (float(x) for x in rng.uniform(0.1, 50.0, size=3))
        y, tau, xhat2, x1_hat = (rng.normal(size=n) * 3.0 for _ in range(4))
        terms = model.kernel(y.tolist())
        acc = np.array(model.accel(terms, tau.tolist(), xhat2.tolist()))
        assert reduced_rate(model, terms, tau.tolist(), xhat2.tolist(), k) == tuple(
            (-k * xhat2 + acc).tolist())
        e = y - x1_hat
        d1, d2 = full_rate(model, terms, tau.tolist(), y.tolist(), x1_hat.tolist(),
                           xhat2.tolist(), kd, kp)
        assert d1 == tuple((kd * e + xhat2).tolist())
        assert d2 == model.accel(terms, tau.tolist(), xhat2.tolist(), (kp * e).tolist())
