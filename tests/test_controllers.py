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
    assert np.allclose(bounded.torque(arm, q, np.zeros(2), 0.0) - g, [1.0, -1.0])
    assert np.allclose(bounded.torque(arm, q, np.zeros(2), np.pi) - g, [math.cos(np.pi / 2), 1.0])
    assert np.allclose(unbounded.torque(arm, q, np.zeros(2), 0.0) - g, [0.0, 1.0])
    assert np.allclose(unbounded.torque(arm, q, np.zeros(2), np.pi / 2) - g, [1.0, 1.0])


@pytest.mark.parametrize("t", [0.0, 0.25, 1.0, math.pi / 3, 2.5, 7.125, 19.999])
def test_open_loop_laws_are_their_closed_forms_bit_for_bit(arm, t):
    # each profile written out with math's cos and sin, in the LAW text's order
    q = np.array([0.3, -0.9])
    g1, g2 = arm.gravity(q).tolist()
    est = np.zeros(2)
    assert OpenLoopBounded().torque(arm, q, est, t).tolist() == [
        g1 + math.cos(0.5 * t), g2 - math.cos(t)]
    assert OpenLoopUnbounded().torque(arm, q, est, t).tolist() == [
        g1 + math.sin(t), g2 + (1.0 + math.sin(2.0 * t))]


def test_bounded_profile_stays_within_sqrt2(arm):
    q = est = np.zeros(2)
    g = arm.gravity(q)
    t = np.linspace(0.0, 50.0, 5001)
    worst = max(np.linalg.norm(OpenLoopBounded().torque(arm, q, est, ti) - g) for ti in t)
    assert worst <= math.sqrt(2.0) + 1e-12
    # the second profile exceeds that bound, which is the point of it
    worst2 = max(np.linalg.norm(OpenLoopUnbounded().torque(arm, q, est, ti) - g) for ti in t)
    assert worst2 > math.sqrt(2.0)


def test_open_loop_profiles_require_two_joints():
    single = SingleLinkModel()
    for law in (OpenLoopBounded(), OpenLoopUnbounded()):
        with pytest.raises(ValueError, match=f"the {law.name} law has n = 2, the model n = 1"):
            law.torque(single, np.zeros(1), np.zeros(1), 0.0)


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


def test_pd_config_takes_gain_vectors():
    cfg = PdConfig(kp=[1, 2], kd=(3.0, 4.0), x_ref=np.zeros(2))
    for gain, entries in ((cfg.kp, [1.0, 2.0]), (cfg.kd, [3.0, 4.0])):
        assert gain.dtype == float and gain.shape == (2,) and gain.tolist() == entries
    # a 2-D gain is refused whole, diagonal or not: no off-diagonal entry is
    # dropped and no diagonal is read out of it
    for matrix in (np.diag([1.0, 2.0]), [[1e-10, 5e-9], [5e-9, 1e-10]]):
        for key in ("kp", "kd"):
            gains = {"kp": [1.0, 2.0], "kd": [3.0, 4.0], key: matrix}
            with pytest.raises(ValueError, match=f"^{key} must be a vector of 2 diagonal entries$"):
                PdConfig(**gains, x_ref=np.zeros(2))


def test_pd_config_validation():
    with pytest.raises(ValueError):
        PdConfig(kp=[1.0, -2.0], kd=[1.0, 1.0], x_ref=np.zeros(2))
    with pytest.raises(ValueError, match="kd diagonal entries must be positive"):
        PdConfig(kp=[1.0, 2.0], kd=[1.0, -1.0], x_ref=np.zeros(2))
    with pytest.raises(ValueError, match="kd diagonal entries must be positive"):
        PdConfig(kp=[1.0, 2.0], kd=[1.0, 0.0], x_ref=np.zeros(2))
    with pytest.raises(ValueError, match="kp must be finite"):
        PdConfig(kp=[1.0, np.inf], kd=[1.0, 1.0], x_ref=np.zeros(2))
    with pytest.raises(ValueError, match="kd must be a vector of 2 diagonal entries"):
        PdConfig(kp=[1.0, 2.0], kd=np.array([[1.0, 0.5], [0.0, 2.0]]), x_ref=np.zeros(2))
    with pytest.raises(ValueError):
        PdConfig(kp=np.array([[1.0, 0.5], [0.0, 2.0]]), kd=[1.0, 1.0],
                 x_ref=np.zeros(2))
    with pytest.raises(ValueError):
        PdConfig(kp=[1.0, 2.0, 3.0], kd=[1.0, 1.0], x_ref=np.zeros(2))


def test_wrappers_dispatch_to_their_laws(arm):
    """torque is float_torque at the model's kernel terms, bit for bit, for
    every law on the arm and the one-joint laws on the single link."""
    single = SingleLinkModel(inertia_value=2.5, damping=0.4)
    cfg = PdConfig(kp=[1.0, 1.0], kd=[1.0, 1.0], x_ref=np.zeros(2))
    cases = [
        (arm, [0.1, 0.2], [0.5, -0.7], [OpenLoopBounded(), OpenLoopUnbounded(), PdGravity(cfg),
                                        ConstantTorque([3.0, -1.0])]),
        (single, [0.7], [-1.3], [PdGravity(PdConfig(kp=[5.0], kd=[3.0], x_ref=[0.4])),
                                 ConstantTorque([0.8])]),
    ]
    for model, q, xhat2, laws in cases:
        terms = model.kernel(q)
        for law in laws:
            tau = law.torque(model, np.array(q), np.array(xhat2), 1.2)
            assert tau.tobytes() == np.array(law.float_torque(terms, q, xhat2, 1.2)).tobytes()
    # every law checks the estimate, one that reads none too
    for law in cases[0][3]:
        with pytest.raises(ValueError, match="xhat2"):
            law.torque(arm, np.array([0.1, 0.2]), None, 1.2)


def test_wrapper_names_are_stable():
    names = [OpenLoopBounded().name, OpenLoopUnbounded().name,
             ConstantTorque([0.0]).name]
    assert names == ["open_loop_1", "open_loop_2", "constant"]


def test_pd_config_takes_its_keywords_in_either_order():
    a = PdConfig(kp=[1.0, 2.0], kd=[3.0, 4.0], x_ref=[0.5, -0.5])
    b = PdConfig(x_ref=np.array([0.5, -0.5]), kd=[3.0, 4.0], kp=[1.0, 2.0])
    for cfg in (a, b):
        assert cfg.x_ref.dtype == float and cfg.x_ref.tolist() == [0.5, -0.5]
        assert cfg.kp.tolist() == [1.0, 2.0]
        assert cfg.kd.tolist() == [3.0, 4.0]


@pytest.mark.parametrize("law, name, n, constants", [
    (OpenLoopBounded(), "open_loop_1", 2, ()),
    (OpenLoopUnbounded(), "open_loop_2", 2, ()),
    (PdGravity(PdConfig(kp=[40.0, 20.0], kd=[60.0, 30.0], x_ref=[0.25, -0.5])), "pd", 2,
     (40.0, 20.0, 60.0, 30.0, 0.25, -0.5)),
    (PdGravity(PdConfig(kp=[5.0], kd=[3.0], x_ref=[0.4])), "pd", 1, (5.0, 3.0, 0.4)),
    (ConstantTorque([3, -1]), "constant", 2, (3.0, -1.0)),
    (ConstantTorque([0.5, 1.5, 2.5]), "constant", 3, (0.5, 1.5, 2.5)),
])
def test_each_law_keeps_its_name_size_and_constants(law, name, n, constants):
    """The class's name, the joint count the law is compiled for, and the
    values of its CONSTANTS in order, as Python floats."""
    assert (law.name, law.n, law._constants) == (name, n, constants)
    assert all(type(c) is float for c in law._constants)
    if isinstance(law, ConstantTorque):
        assert law.tau.dtype == float
