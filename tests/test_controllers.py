"""Torque-law tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from velobs.controllers import (
    ConstantTorque,
    OpenLoopBounded,
    OpenLoopUnbounded,
    PdConfig,
    PdGravity,
)
from velobs.dynamics import SingleLinkModel


def test_open_loop_profiles_at_reference_instants(arm):
    q = np.array([0.3, -0.9])
    g = arm.gravity(q)
    bounded, unbounded = OpenLoopBounded(), OpenLoopUnbounded()
    assert np.allclose(bounded.torque(arm, q, None, 0.0) - g, [1.0, -1.0])
    assert np.allclose(bounded.torque(arm, q, None, np.pi) - g, [math.cos(np.pi / 2), 1.0])
    assert np.allclose(unbounded.torque(arm, q, None, 0.0) - g, [0.0, 1.0])
    assert np.allclose(unbounded.torque(arm, q, None, np.pi / 2) - g, [1.0, 1.0])


def test_bounded_profile_stays_within_sqrt2(arm):
    q = np.zeros(2)
    g = arm.gravity(q)
    t = np.linspace(0.0, 50.0, 5001)
    worst = max(np.linalg.norm(OpenLoopBounded().torque(arm, q, None, ti) - g) for ti in t)
    assert worst <= math.sqrt(2.0) + 1e-12
    # the second profile exceeds that bound, which is the point of it
    worst2 = max(np.linalg.norm(OpenLoopUnbounded().torque(arm, q, None, ti) - g) for ti in t)
    assert worst2 > math.sqrt(2.0)


def test_open_loop_profiles_require_two_joints():
    single = SingleLinkModel()
    with pytest.raises(ValueError):
        OpenLoopBounded().torque(single, np.zeros(1), None, 0.0)
    with pytest.raises(ValueError):
        OpenLoopUnbounded().torque(single, np.zeros(1), None, 0.0)


def test_pd_law_is_pure_gravity_compensation_at_setpoint(arm):
    cfg = PdConfig(kp=[40.0, 20.0], kd=[60.0, 30.0],
                   x_ref=np.array([np.pi / 4, -np.pi / 3]))
    tau = PdGravity(cfg).torque(arm, cfg.x_ref, np.zeros(2), 0.0)
    assert np.allclose(tau, arm.gravity(cfg.x_ref))


def test_pd_law_components(arm):
    cfg = PdConfig(kp=[2.0, 4.0], kd=[1.0, 3.0], x_ref=np.zeros(2))
    q = np.array([0.5, -0.25])
    xhat2 = np.array([1.0, 2.0])
    tau = PdGravity(cfg).torque(arm, q, xhat2, 0.0)
    expected = arm.gravity(q) + np.array([-2.0 * 0.5 - 1.0,
                                          4.0 * 0.25 - 3.0 * 2.0])
    assert np.allclose(tau, expected)


def test_pd_law_on_one_joint():
    single = SingleLinkModel(inertia_value=2.5, damping=0.4)
    cfg = PdConfig(kp=[5.0], kd=[3.0], x_ref=[0.4])
    tau = PdGravity(cfg).torque(single, np.array([-0.3]), np.array([1.5]), 0.0)
    assert tau.shape == (1,)
    assert tau[0] == 5.0 * (0.4 - -0.3) - 3.0 * 1.5


def test_pd_config_accepts_diagonal_matrix_or_vector():
    a = PdConfig(kp=[1.0, 2.0], kd=[3.0, 4.0], x_ref=np.zeros(2))
    b = PdConfig(kp=np.diag([1.0, 2.0]), kd=np.diag([3.0, 4.0]),
                 x_ref=np.zeros(2))
    assert np.array_equal(a.kp, b.kp)
    assert np.array_equal(a.kd, b.kd)


def test_pd_config_validation():
    with pytest.raises(ValueError):
        PdConfig(kp=[1.0, -2.0], kd=[1.0, 1.0], x_ref=np.zeros(2))
    with pytest.raises(ValueError):
        PdConfig(kp=np.array([[1.0, 0.5], [0.0, 2.0]]), kd=[1.0, 1.0],
                 x_ref=np.zeros(2))
    with pytest.raises(ValueError):
        PdConfig(kp=[1.0, 2.0, 3.0], kd=[1.0, 1.0], x_ref=np.zeros(2))


def test_wrappers_dispatch_to_their_laws(arm):
    q = np.array([0.1, 0.2])
    xhat2 = np.array([0.5, -0.7])
    g = arm.gravity(q).tolist()
    cfg = PdConfig(kp=[1.0, 1.0], kd=[1.0, 1.0], x_ref=np.zeros(2))
    for law in (OpenLoopBounded(), OpenLoopUnbounded(), PdGravity(cfg),
                ConstantTorque([3.0, -1.0])):
        assert np.array_equal(law.torque(arm, q, xhat2, 1.2),
                              law.float_torque(g, q.tolist(), xhat2.tolist(), 1.2))
    assert np.array_equal(ConstantTorque([3.0, -1.0]).torque(arm, q, xhat2, 1.2),
                          [3.0, -1.0])


def test_wrapper_names_are_stable():
    names = [OpenLoopBounded().name, OpenLoopUnbounded().name,
             ConstantTorque([0.0]).name]
    assert names == ["open_loop_1", "open_loop_2", "constant"]
