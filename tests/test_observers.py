"""Gain design and observer derivative tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from velobs.controllers import ConstantTorque
from velobs.dynamics import SingleLinkModel, TwoLinkArm, inertia_solver
from velobs.hybrid_logic import LogicState
from velobs.observers import (
    K_MIN,
    GainDesign,
    compute_k0,
    compute_k0_conservative,
    convergence_rate,
    full_rate,
    reduced_rate,
)
from velobs.simulator import flat_rhs, record_columns

# Frozen gain-design constants for the two-link arm, eta = 1.
K0_SLOW = 13.35798304843369        # v_max = 1.5
K0_FAST = 37.46755075659672        # v_max = 6.0
K0_CONSERVATIVE = 40.29278378402821
REGION_RADIUS = 0.13667045197664296


def test_estimate_is_affine_in_output():
    # the ESTIMATE text xhat2 = z + k0 y, as a compiled run records it in the
    # sample row and hands its norm to the switching logic after the step;
    # the gain is the logic state's
    norms = []

    def logic_step(schedule, logic, nrm):
        norms.append(nrm)
        return logic

    _, run = flat_rhs(TwoLinkArm, ConstantTorque, "reduced")(
        *TwoLinkArm()._constants, 0.0, 0.0, 1.0, 1.0, 1e-3, None, logic_step)
    s = (0.5, 0.25, 0.0, 0.0, 1.0, -2.0)
    logic = LogicState(0, 3.0, math.inf, -math.inf)
    rows, s1, same = run(0, 1, s, 1, logic)
    # one sample, one row of the record: q, v and z are s, the estimate
    # columns xhat2 and both bound columns its norm
    row = dict(zip(record_columns("reduced", 2), rows))
    assert len(rows) == len(row) == 17 and same is logic
    assert tuple(row[c] for c in ("q1", "q2", "dq1", "dq2", "z1", "z2")) == s
    assert (row["r"], row["k_r"]) == (0, 3.0)
    assert (row["dq1_hat"], row["dq2_hat"]) == (2.5, -1.25)
    assert row["lower_bound"] == row["upper_bound"] == math.hypot(2.5, -1.25)
    assert norms == [math.hypot(3.0 * s1[0] + s1[4], 3.0 * s1[1] + s1[5])]


def test_frozen_design_constants(arm, design15):
    assert math.isclose(design15.k0, K0_SLOW, rel_tol=1e-12)
    assert math.isclose(design15.region_radius, REGION_RADIUS, rel_tol=1e-12)
    fast = compute_k0(arm, 1.0, 6.0)
    assert math.isclose(fast.k0, K0_FAST, rel_tol=1e-12)
    cons = compute_k0_conservative(arm, 1.0, 1.5)
    assert math.isclose(cons.k0, K0_CONSERVATIVE, rel_tol=1e-12)


def test_a_design_keeps_its_field_order_and_region_radius(design15):
    assert GainDesign._fields == ("eta", "v_max", "k0", "lambda1", "lambda2")
    design = GainDesign(0.5, 2.0, 3.0, 4.0, 9.0)
    assert (design.eta, design.v_max, design.k0, design.lambda1, design.lambda2) \
        == (0.5, 2.0, 3.0, 4.0, 9.0)
    assert design.region_radius == 0.5 * math.sqrt(4.0 / 9.0)
    assert (design15.eta, design15.v_max) == (1.0, 1.5)
    assert design15.region_radius == design15.eta * math.sqrt(
        design15.lambda1 / design15.lambda2)


def test_design_matches_independent_oracle(arm, design15, oracle):
    lo, hi, k0 = oracle.design_constants(1.0, 1.5, arm.GRID_POINTS)
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
    assert K_MIN == 0.01


def test_design_input_validation(arm, design15):
    with pytest.raises(ValueError):
        compute_k0(arm, 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_k0(arm, 1.0, -0.5)
    with pytest.raises(ValueError):
        compute_k0_conservative(arm, -1.0, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(design15, -1e-9)
    # a gain that overflows, or whose square (the full observer's kp) does;
    # numpy's overflow warning is an error under this suite
    for v_max in (1e308, 1e160):
        with pytest.raises(ValueError, match="finite square"):
            compute_k0(arm, 1.0, v_max)
        with pytest.raises(ValueError, match="finite square"):
            compute_k0_conservative(arm, 1.0, v_max)


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
        xhat2 = z + k0 * y
        eps = x2 - xhat2
        terms = arm.kernel(y.tolist())

        def error_rate(tau):
            """d(x2 - xhat2)/dt, with d(k0 y)/dt = k0 x2."""
            plant_acc = np.array(arm.accel(terms, tau.tolist(), x2.tolist()))
            dz = np.array(reduced_rate(arm, terms, tau.tolist(), xhat2.tolist(), k0))
            return plant_acc - (dz + k0 * x2)

        lhs = error_rate(tau)

        solve = inertia_solver(arm.inertia(y))
        coupling = (arm.coriolis(y, x2) + arm.coriolis(y, xhat2)
                    + arm.dissipation) @ eps
        rhs = -k0 * eps - solve(coupling)
        assert np.allclose(lhs, rhs, atol=1e-10)

        # torque independence: shifting tau leaves the error derivative alone
        assert np.allclose(error_rate(tau + 7.0), lhs, atol=1e-10)


def test_full_order_derivative_single_link(single):
    d1, d2 = full_rate(single, single.kernel([0.5]), [0.7], [0.5], [0.2], [-0.8], 5.0, 25.0)
    e = 0.5 - 0.2
    assert np.allclose(d1, [-0.8 + 5.0 * e])
    assert np.allclose(d2, [(-0.4 * -0.8 + 0.7 + 25.0 * e) / 2.5])


def test_full_order_derivative_matches_plant_when_synchronized(arm):
    # with zero innovation the observer copies the plant vector field
    rng = np.random.default_rng(67)
    q = rng.uniform(-np.pi, np.pi, size=2)
    v = rng.normal(size=2)
    tau = rng.normal(size=2) * 5.0
    terms = arm.kernel(q.tolist())
    d1, d2 = full_rate(arm, terms, tau.tolist(), q.tolist(), q.tolist(), v.tolist(), 3.0, 9.0)
    assert np.allclose(d1, v)
    assert np.allclose(d2, arm.accel(terms, tau.tolist(), v.tolist()), atol=1e-12)


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
